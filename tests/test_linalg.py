import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertilt import linalg


def _matrices(max_dim=5, primes=(2, 3, 5)):
    return st.tuples(
        st.sampled_from(primes),
        st.integers(1, max_dim),
        st.integers(1, max_dim),
        st.randoms(use_true_random=False),
    )


@given(_matrices())
@settings(max_examples=80, deadline=None)
def test_rref_is_idempotent_and_rank_consistent(data):
    p, rows, cols, rng = data
    a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    r, pivots = linalg.rref(a, p)
    r2, pivots2 = linalg.rref(r, p)
    assert np.array_equal(r, r2)
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
    a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    r, pivots = linalg.rref(a, p)
    want, want_pivots = _rref_row_by_row(a, p)
    assert np.array_equal(r, want)
    assert pivots == want_pivots


@given(_matrices())
@settings(max_examples=80, deadline=None)
def test_nullspace_annihilates_and_has_complementary_dim(data):
    p, rows, cols, rng = data
    a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    ns = linalg.nullspace(a, p)
    assert ns.shape[1] == cols - linalg.rank(a, p)
    if ns.size:
        assert not np.any(linalg.matmul(a, ns, p))


@given(_matrices())
@settings(max_examples=60, deadline=None)
def test_solve_finds_solutions_for_images(data):
    p, rows, cols, rng = data
    a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    x = np.array([[rng.randrange(p)] for _ in range(cols)], dtype=np.int64)
    b = linalg.matmul(a, x, p)
    sol = linalg.solve(a, b, p)
    assert sol is not None
    assert np.array_equal(linalg.matmul(a, sol, p), b)


def test_inverse_round_trip():
    p = 5
    a = np.array([[1, 2, 0], [0, 1, 4], [3, 0, 2]], dtype=np.int64)
    inv = linalg.inverse(a, p)
    assert inv is not None
    assert np.array_equal(linalg.matmul(a, inv, p), linalg.eye(3))
    singular = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert linalg.inverse(singular, p) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_char_poly_matches_sympy(p):
    rng = linalg.stable_rng(11, p)
    for _ in range(10):
        n = rng.randrange(1, 7)
        a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        mine = linalg.char_poly(a, p)
        ref = [int(c) % p for c in reversed(sympy.Matrix(a.tolist()).charpoly().all_coeffs())]
        assert mine == ref


def test_min_poly_annihilates_and_divides_char_poly():
    rng = linalg.stable_rng(13)
    for p in (2, 3):
        for _ in range(8):
            n = rng.randrange(1, 6)
            a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
            mp = linalg.min_poly(a, p)
            assert not np.any(linalg.poly_eval_matrix(mp, a, p))
            cp = linalg.char_poly(a, p)
            assert not any(linalg.poly_mod(cp, mp, p))


def test_quotient_space_coordinates():
    p = 2
    sub = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int64)[:, :1]
    quot = linalg.QuotientSpace(3, sub, p)
    assert quot.dim == 2
    v = np.array([1, 0, 1], dtype=np.int64)
    coords = quot.to_coords(v)
    lifted = quot.lift(coords)
    # lifted and v agree modulo the subspace
    assert np.array_equal(quot.to_coords(lifted), coords)
    assert np.array_equal(quot.to_coords((v - lifted) % p), np.zeros(2, dtype=np.int64))


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


def test_matmul_refuses_sums_that_could_overflow():
    p = 3037000493  # (p - 1)**2 alone is just below 2**63
    a = np.full((2, 2), p - 1, dtype=np.int64)
    with pytest.raises(ValueError, match="at most 1 terms fit"):
        linalg.matmul(a, a, p)
    # the largest accepted prime: exactly as many terms as fit are exact
    p = 2965819
    terms = linalg.INT64_MAX // (p - 1) ** 2
    assert terms >= linalg.MIN_TERMS
    a = np.full((1, terms), p - 1, dtype=np.int64)
    assert linalg.matmul(a, a.T, p)[0, 0] == terms * (p - 1) ** 2 % p
    with pytest.raises(ValueError, match=f"at most {terms} terms fit"):
        linalg.matmul(np.full((1, terms + 1), 1, dtype=np.int64), np.full((terms + 1, 1), 1, dtype=np.int64), p)


@pytest.mark.parametrize("p", [65521, 2965819])
def test_inverse_is_exact_for_accepted_primes(p):
    rng = linalg.stable_rng(31, p)
    for _ in range(20):
        a = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(4)], dtype=np.int64)
        inv = linalg.inverse(a, p)
        if inv is None:
            continue
        exact = (np.array(a.tolist(), dtype=object) @ np.array(inv.tolist(), dtype=object)) % p
        assert exact.tolist() == np.eye(4, dtype=int).tolist()
