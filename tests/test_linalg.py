import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertilt import linalg
from oracle import (
    as_array,
    matmul_by_numpy,
    nullspace_by_numpy,
    rref_by_numpy,
    solve_by_numpy,
)


def _matrices(max_dim=5, primes=(2, 3, 5)):
    return st.tuples(
        st.sampled_from(primes),
        st.integers(1, max_dim),
        st.integers(1, max_dim),
        st.randoms(use_true_random=False),
    )


def _random(rng, p, rows, cols) -> linalg.Matrix:
    return linalg.Matrix(tuple(tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)), cols)


@given(_matrices())
@settings(max_examples=80, deadline=None)
def test_rref_is_idempotent_and_rank_consistent(data):
    p, rows, cols, rng = data
    a = _random(rng, p, rows, cols)
    r, pivots = linalg.rref(a, p)
    r2, pivots2 = linalg.rref(r, p)
    assert r == r2
    assert pivots == pivots2
    assert len(pivots) == linalg.rank(a, p)


def _rref_row_by_row(a, p):
    """Reference elimination: one update per row that has a nonzero entry in
    the pivot column."""
    r = np.array(a, dtype=np.int64) % p
    rows, cols = r.shape
    pivots, row = [], 0
    for col in range(cols):
        if row >= rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * linalg.inv_mod(r[row, col], p)) % p
        for i in np.nonzero(r[:, col])[0]:
            if i != row:
                r[i] = (r[i] - r[i, col] * r[row]) % p
        pivots.append(col)
        row += 1
    return r, pivots


@given(_matrices(max_dim=8, primes=(2, 3, 5, 65521)))
@settings(max_examples=80, deadline=None)
def test_rref_matches_row_by_row_elimination(data):
    p, rows, cols, rng = data
    a = _random(rng, p, rows, cols)
    r, pivots = linalg.rref(a, p)
    want, want_pivots = _rref_row_by_row(as_array(a), p)
    assert np.array_equal(as_array(r), want)
    assert pivots == want_pivots


@given(_matrices())
@settings(max_examples=80, deadline=None)
def test_nullspace_annihilates_and_has_complementary_dim(data):
    p, rows, cols, rng = data
    a = _random(rng, p, rows, cols)
    ns = linalg.nullspace(a, p)
    assert ns.shape == (cols, cols - linalg.rank(a, p))
    assert linalg.matmul(a, ns, p).is_zero()


@given(_matrices())
@settings(max_examples=60, deadline=None)
def test_solve_finds_solutions_for_images(data):
    p, rows, cols, rng = data
    a = _random(rng, p, rows, cols)
    b = linalg.matmul(a, _random(rng, p, cols, 1), p)
    sol = linalg.solve(a, b, p)
    assert sol is not None
    assert linalg.matmul(a, sol, p) == b
    # a vector right-hand side gives a vector
    assert linalg.solve(a, b.T.rows[0], p) == sol.T.rows[0]


def test_inverse_round_trip():
    """solve(a, I) inverts an invertible a and is None for a singular one."""
    p = 5
    a = linalg.normalize([[1, 2, 0], [0, 1, 4], [3, 0, 2]], p)
    inv = linalg.solve(a, linalg.eye(3), p)
    assert inv is not None
    assert linalg.matmul(a, inv, p) == linalg.eye(3)
    singular = linalg.normalize([[1, 2], [2, 4]], p)
    assert linalg.solve(singular, linalg.eye(2), p) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_char_poly_matches_sympy(p):
    rng = linalg.stable_rng(11, p)
    for _ in range(10):
        n = rng.randrange(1, 7)
        a = _random(rng, p, n, n)
        mine = linalg.char_poly(a, p)
        ref = [int(c) % p for c in reversed(sympy.Matrix(a.rows).charpoly().all_coeffs())]
        assert mine == ref


def test_min_poly_annihilates_and_divides_char_poly():
    rng = linalg.stable_rng(13)
    for p in (2, 3):
        for _ in range(8):
            n = rng.randrange(1, 6)
            a = _random(rng, p, n, n)
            mp = linalg.min_poly(a, p)
            assert linalg.poly_eval_matrix(mp, a, p).is_zero()
            cp = linalg.char_poly(a, p)
            assert not any(linalg.poly_mod(cp, mp, p))


def test_quotient_space_coordinates():
    p = 2
    sub = linalg.normalize([[1], [1], [0]], p)
    quot = linalg.QuotientSpace(3, sub, p)
    assert quot.dim == 2
    v = (1, 0, 1)
    coords = quot.to_coords(v)
    lifted = quot.lift(coords)
    # lifted and v agree modulo the subspace
    assert quot.to_coords(lifted) == coords
    assert quot.to_coords([(x - y) % p for x, y in zip(v, lifted)]) == (0, 0)


def test_stable_rng_is_process_independent():
    a = linalg.stable_rng(3, "tag").randrange(10**9)
    b = linalg.stable_rng(3, "tag").randrange(10**9)
    c = linalg.stable_rng(4, "tag").randrange(10**9)
    assert a == b
    assert a != c


def _random_poly(rng, p, max_degree):
    return linalg.poly_sub([rng.randrange(p) for _ in range(rng.randrange(1, max_degree + 2))], [0], p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_poly_divmod_and_gcdex(p):
    rng = linalg.stable_rng(23, p)
    for _ in range(40):
        f, g = _random_poly(rng, p, 6), _random_poly(rng, p, 6)
        if not any(g):
            continue
        q, r = linalg.poly_divmod(f, g, p)
        assert len(r) < len(g) or r == [0]
        assert linalg.poly_sub(linalg.poly_mul(q, g, p), linalg.poly_sub(f, r, p), p) == [0]
        s, t, h = linalg.poly_gcdex(f, g, p)
        assert h == linalg.poly_gcd(f, g, p)
        lhs = linalg.poly_sub(linalg.poly_mul(s, f, p), linalg.poly_sub([0], linalg.poly_mul(t, g, p), p), p)
        assert lhs == h
        if len(h) >= min(len(f), len(g)):
            continue
        assert s == [0] or len(s) - 1 < len(g) - len(h)
        assert t == [0] or len(t) - 1 < len(f) - len(h)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_poly_factor_is_a_sorted_irreducible_factorization(p):
    x = sympy.symbols("x")
    rng = linalg.stable_rng(29, p)
    for _ in range(25):
        f = _random_poly(rng, p, 4)
        for _ in range(rng.randrange(3)):
            f = linalg.poly_mul(f, f if rng.random() < 0.3 else _random_poly(rng, p, 3), p)
        if len(f) < 2:
            continue
        factors = linalg.poly_factor(f, p)
        product = [1]
        for g, e in factors:
            assert g[-1] == 1 and sympy.Poly(list(reversed(g)), x, modulus=p).is_irreducible
            for _ in range(e):
                product = linalg.poly_mul(product, g, p)
        assert product == linalg.poly_monic(f, p)
        assert len({tuple(g) for g, _ in factors}) == len(factors)
        keys = [(len(g), e, g[::-1]) for g, e in factors]
        assert keys == sorted(keys)


def test_matmul_is_exact_where_int64_would_overflow():
    """Entries are Python ints, so a product is the exact integer sum
    reduced mod p however many terms it has: at the largest accepted prime
    with more terms than an int64 sum of (p - 1)**2 can hold, and at a prime
    where two such terms already overflow int64."""
    p = 2965819
    terms = 2**20 + 6  # (2**63 - 1) // (p - 1)**2 == 2**20 + 5
    a = linalg.Matrix(((p - 1,) * terms,), terms)
    assert linalg.matmul(a, a.T, p) == linalg.Matrix(((terms * (p - 1) ** 2 % p,),), 1)
    p = 3037000493
    assert 2 * (p - 1) ** 2 > 2**63 - 1
    a = linalg.Matrix(((p - 1, p - 1), (p - 2, 1)), 2)
    exact = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*a.rows)] for row in a.rows]
    assert linalg.matmul(a, a, p) == linalg.normalize(exact, p)
    rng = linalg.stable_rng(37)
    a, b = _random(rng, p, 3, 4), _random(rng, p, 4, 2)
    exact = (np.array(a.rows, dtype=object) @ np.array(b.rows, dtype=object)) % p
    assert linalg.matmul(a, b, p) == linalg.normalize(exact.tolist(), p)


@pytest.mark.parametrize("p", [65521, 2965819])
def test_inverse_is_exact_for_accepted_primes(p):
    """solve(a, I) is an exact inverse at the largest accepted primes."""
    rng = linalg.stable_rng(31, p)
    for _ in range(20):
        a = _random(rng, p, 4, 4)
        inv = linalg.solve(a, linalg.eye(4), p)
        if inv is None:
            continue
        exact = (np.array(a.rows, dtype=object) @ np.array(inv.rows, dtype=object)) % p
        assert exact.tolist() == np.eye(4, dtype=int).tolist()


PRIMES = (2, 3, 5, 65521)


def _array(rng, p, rows, cols, rank=None) -> np.ndarray:
    """A random rows x cols int64 array over F_p; with rank, the product of
    two random ones through that dimension, so that systems are often
    inconsistent."""
    if rank is not None:
        return matmul_by_numpy(_array(rng, p, rows, rank), _array(rng, p, rank, cols), p)
    entries = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def _zeros(rows, cols) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def _same(m, a) -> bool:
    """A Matrix and an array agree in shape and entries (None matches None)."""
    if m is None or a is None:
        return m is None and a is None
    return m.shape == a.shape and np.array_equal(as_array(m), a)


@given(st.sampled_from(PRIMES), st.integers(0, 6), st.integers(0, 6), st.integers(0, 3),
       st.integers(0, 6), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_kernels_match_their_numpy_references(p, rows, cols, rank, other, rng):
    """rref (echelon form and pivots), nullspace, solve and matmul on
    Python ints against the int64 numpy kernels they replaced, on every
    shape from 0 x 0 to 6 x 6."""
    a = _array(rng, p, rows, cols, rank)
    m = linalg.normalize(a, p)
    assert m.shape == (rows, cols)
    r, pivots = linalg.rref(m, p)
    want, want_pivots = rref_by_numpy(a, p)
    assert _same(r, want) and pivots == want_pivots
    assert _same(linalg.nullspace(m, p), nullspace_by_numpy(a, p))
    b = _array(rng, p, rows, other)
    assert _same(linalg.solve(m, linalg.normalize(b, p), p), solve_by_numpy(a, b, p))
    vector = b[:, 0] if other else _zeros(rows, 1)[:, 0]
    want = solve_by_numpy(a, vector, p)
    got = linalg.solve(m, tuple(vector.tolist()), p)
    assert (got is None) == (want is None) and (got is None or list(got) == want[:, 0].tolist())
    c = _array(rng, p, cols, other)
    image = matmul_by_numpy(a, c, p)
    assert _same(linalg.matmul(m, linalg.normalize(c, p), p), image)
    assert _same(linalg.solve(m, linalg.normalize(image, p), p), solve_by_numpy(a, image, p))
    assert linalg.solve(m, linalg.normalize(image, p), p) is not None


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3), (3, 2)])
def test_kernels_keep_empty_shapes_and_report_inconsistency(p, rows, cols):
    """The column count of a matrix with no rows survives every kernel, and
    an inconsistent system has no solution under either implementation."""
    zero, a = linalg.zeros(rows, cols), _zeros(rows, cols)
    assert zero.T.shape == (cols, rows)
    assert _same(linalg.rref(zero, p)[0], rref_by_numpy(a, p)[0])
    assert _same(linalg.nullspace(zero, p), nullspace_by_numpy(a, p))
    assert _same(linalg.matmul(zero, linalg.zeros(cols, 2), p), matmul_by_numpy(a, _zeros(cols, 2), p))
    assert _same(linalg.matmul(linalg.zeros(2, rows), zero, p), matmul_by_numpy(_zeros(2, rows), a, p))
    ones = np.ones((rows, 1), dtype=np.int64)
    assert _same(linalg.solve(zero, linalg.normalize(ones, p), p), solve_by_numpy(a, ones, p))
    assert (linalg.solve(zero, linalg.normalize(ones, p), p) is None) == (rows > 0)
    assert _same(linalg.solve(zero, linalg.zeros(rows, 2), p), solve_by_numpy(a, _zeros(rows, 2), p))
    assert linalg.solve(zero, linalg.zeros(rows, 2), p).shape == (cols, 2)
