"""Exact linear algebra over the prime field F_p.

A matrix is a `Matrix`: a tuple of rows, each a tuple of Python ints in
[0, p), and its column count, which a matrix with no rows keeps.  Matrices
are immutable, so blocks may be shared.  Python ints do not overflow, so
every product and sum is exact before it is reduced mod p.  All routines
are deterministic: pivots are chosen by first-nonzero scan, so echelon
forms, nullspace bases and solution vectors are reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import random
from operator import mul

# The largest field characteristic the parser accepts.  Entries are Python
# ints, so no characteristic can overflow a product or a sum; the bound is
# the one an int64 kernel needed (2**20 products of residues within int64),
# kept so that the accepted primes stay the same.
MAX_FIELD_CHAR = 2_965_821


def stable_rng(seed: int, *tags) -> random.Random:
    """Process-independent seeded RNG (str hashes are salted; sha256 is not)."""
    material = repr((int(seed),) + tags).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class Matrix:
    """A matrix: `rows`, a tuple of equal-length tuples of ints, and
    `ncols`.  No entry can be written, and no routine rebinds either
    attribute.  The routines of this module take and return residues in
    [0, p); `normalize` reduces anything else."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: tuple, ncols: int):
        self.rows = rows
        self.ncols = ncols

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.ncols

    @property
    def T(self) -> "Matrix":
        if not self.rows:
            return Matrix(((),) * self.ncols, 0)
        return Matrix(tuple(zip(*self.rows)), len(self.rows))

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.ncols == other.ncols and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({self.rows!r}, {self.ncols})"


def normalize(a, p: int) -> Matrix:
    """a reduced mod p, as a Matrix.  a is a Matrix or a sequence of rows,
    a numpy array included; its column count is read off `shape` when it
    has one, so that an array with no rows keeps it."""
    rows = a.rows if isinstance(a, Matrix) else a.tolist() if hasattr(a, "tolist") else a
    shape = a.shape if hasattr(a, "shape") else (len(rows), len(rows[0]) if len(rows) else 0)
    if len(shape) != 2 or any(len(row) != shape[1] for row in rows):
        raise ValueError(f"not a matrix: shape {shape}")
    return Matrix(tuple(tuple(int(x) % p for x in row) for row in rows), shape[1])


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(((0,) * cols,) * rows, cols)


@functools.cache
def unit_rows(cols, n: int) -> Matrix:
    """The len(cols) x n matrix whose row i is the unit vector e_{cols[i]};
    cols is a range or a tuple.  Matrices are immutable, so every caller
    shares one per argument pair (identities, and the inclusions and
    projections of direct sums)."""
    return Matrix(tuple((0,) * c + (1,) + (0,) * (n - c - 1) for c in cols), n)


def eye(n: int) -> Matrix:
    return unit_rows(range(n), n)


def column(v) -> Matrix:
    """The vector v as a one-column matrix."""
    return Matrix(tuple((x,) for x in v), 1)


def from_columns(vectors, nrows: int) -> Matrix:
    """The nrows-row matrix whose columns are the given tuples."""
    return Matrix(tuple(vectors), nrows).T


def from_flat(flat: tuple, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix with row-major entries flat."""
    return Matrix(tuple(flat[i * cols : (i + 1) * cols] for i in range(rows)), cols)


def columns(a: Matrix, idx) -> Matrix:
    """The columns idx of a, in that order."""
    return Matrix(tuple(tuple(row[j] for j in idx) for row in a.rows), len(idx))


def hstack(mats: list[Matrix]) -> Matrix:
    """A nonempty list of matrices with equal row counts, side by side."""
    return Matrix(tuple(sum(rs, ()) for rs in zip(*(m.rows for m in mats))), sum(m.ncols for m in mats))


def vstack(mats: list[Matrix]) -> Matrix:
    """A nonempty list of matrices with equal column counts, stacked."""
    return Matrix(sum((m.rows for m in mats), ()), mats[0].ncols)


def combination(coeffs, mats: list[Matrix], p: int, shape: tuple[int, int]) -> Matrix:
    """sum c_i m_i over matrices of the given shape; the zero matrix when
    every c_i is zero."""
    terms = [(int(c) % p, m.rows) for c, m in zip(coeffs, mats) if int(c) % p]
    if not terms:
        return zeros(*shape)
    cs = [c for c, _ in terms]
    return Matrix(tuple(tuple(sum(map(mul, cs, entries)) % p for entries in zip(*rs))
                        for rs in zip(*(rows for _, rows in terms))), shape[1])


def matmul(a: Matrix, b: Matrix, p: int) -> Matrix:
    cols = b.T.rows
    return Matrix(tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a.rows), b.ncols)


def inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def rref(a: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    # Every update builds a new row, so the rows of a are never written.
    r = list(a.rows)
    nrows = len(r)
    pivots: list[int] = []
    row = 0
    for col in range(a.ncols):
        if row >= nrows:
            break
        piv = next((i for i in range(row, nrows) if r[i][col]), None)
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        prow = r[row]
        lead = prow[col]
        if lead != 1:
            inv = inv_mod(lead, p)
            prow = r[row] = [x * inv % p for x in prow]
        for i in range(nrows):  # clear the pivot column in the other rows
            f = r[i][col]
            if f and i != row:
                r[i] = [(x - f * y) % p for x, y in zip(r[i], prow)]
        pivots.append(col)
        row += 1
    return Matrix(tuple(map(tuple, r)), a.ncols), pivots


def rank(a: Matrix, p: int) -> int:
    if not a.rows or not a.ncols:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: Matrix, p: int) -> Matrix:
    """Basis of the right kernel as columns, in free-variable order."""
    rows, cols = a.shape
    if cols == 0:
        return zeros(0, 0)
    if rows == 0:
        return eye(cols)
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    out = [()] * cols
    for c, unit in zip(free, eye(len(free)).rows):
        out[c] = unit
    for i, pc in enumerate(pivots):
        out[pc] = tuple(-r.rows[i][c] % p for c in free)
    return Matrix(tuple(out), len(free))


def solve(a: Matrix, b, p: int):
    """One solution x of a @ x = b, or None.  b is a Matrix, whose columns
    are solved jointly, or a vector, which gives a vector x."""
    vector = not isinstance(b, Matrix)
    if vector:
        b = column(b)
    cols = a.ncols
    if len(a.rows) != len(b.rows):
        raise ValueError(f"solve: {len(a.rows)} equations for {len(b.rows)} right-hand sides")
    r, pivots = rref(Matrix(tuple(x + y for x, y in zip(a.rows, b.rows)), cols + b.ncols), p)
    if pivots and pivots[-1] >= cols:
        return None
    x = [(0,) * b.ncols] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r.rows[i][cols:]
    return tuple(row[0] for row in x) if vector else Matrix(tuple(x), b.ncols)


def is_invertible(a: Matrix, p: int) -> bool:
    return len(a.rows) == a.ncols and rank(a, p) == a.ncols


def column_space_basis(a: Matrix, p: int) -> Matrix:
    """Columns of a restricted to a basis of the column space (original vectors)."""
    if a.ncols == 0:
        return a
    return columns(a, rref(a, p)[1])


class QuotientSpace:
    """Coordinates on F_p^dim / span(columns of sub).

    Used for Ext-class coordinates and stable-Hom classes: `to_coords`
    reduces an ambient vector modulo the subspace, `lift` picks the
    canonical representative of a coordinate vector.  Vectors are tuples.
    """

    def __init__(self, dim: int, sub: Matrix, p: int):
        self.p = p
        self.ambient_dim = dim
        r, pivots = rref(sub.T, p)
        self.sub_rows = r.rows[: len(pivots)]  # echelon basis of subspace, as rows
        self.sub_pivots = pivots
        self.free = [c for c in range(dim) if c not in pivots]
        self.dim = len(self.free)

    def to_coords(self, v) -> tuple:
        """Reduce v modulo the subspace; coordinates are the free positions."""
        p = self.p
        v = [x % p for x in v]
        for row, pc in zip(self.sub_rows, self.sub_pivots):
            f = v[pc]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return tuple(v[c] for c in self.free)

    def lift(self, coords) -> tuple:
        v = [0] * self.ambient_dim
        for k, fc in enumerate(self.free):
            v[fc] = coords[k] % self.p
        return tuple(v)


def char_poly(a: Matrix, p: int) -> list[int]:
    """Characteristic polynomial of a over F_p, low-degree-first coefficients.

    Hessenberg reduction by similarity transforms, then the standard
    leading-principal-minor recurrence.  Exact over F_p.
    """
    n = len(a.rows)
    h = [list(row) for row in a.rows]
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = inv_mod(h[j + 1][j], p)
        for i in range(j + 2, n):
            if h[i][j]:
                factor = (h[i][j] * inv) % p
                # similarity: row op paired with the inverse column op
                for c in range(n):
                    h[i][c] = (h[i][c] - factor * h[j + 1][c]) % p
                for r_ in range(n):
                    h[r_][j + 1] = (h[r_][j + 1] + factor * h[r_][i]) % p
    # p_k(x) = char poly of leading k x k block of the Hessenberg matrix
    polys: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        # (x - h[k-1][k-1]) * p_{k-1}
        prev = polys[k - 1]
        cur = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            cur[i + 1] = (cur[i + 1] + c) % p
            cur[i] = (cur[i] - h[k - 1][k - 1] * c) % p
        run = 1
        for i in range(k - 1, 0, -1):
            run = (run * h[i][i - 1]) % p
            coef = (h[i - 1][k - 1] * run) % p
            if coef:
                q = polys[i - 1]
                for d, c in enumerate(q):
                    cur[d] = (cur[d] - coef * c) % p
        polys.append(cur)
    return polys[n] if n else [1]


# -- polynomials over F_p -----------------------------------------------------
#
# Coefficient lists, lowest degree first, entries in [0, p), with no trailing
# zeros; the zero polynomial is [0].  Factoring follows von zur Gathen and
# Gerhard, *Modern Computer Algebra*, ch. 14: square-free decomposition,
# distinct-degree factorization, then equal-degree splitting.


def _trim(f: list[int]) -> list[int]:
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def poly_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with f = q*g + r and deg r < deg g; g nonzero."""
    r = [c % p for c in f]
    g = _trim([c % p for c in g])
    dg = len(g) - 1
    lead_inv = inv_mod(g[-1], p)
    q = [0] * max(len(r) - dg, 1)
    for shift in range(len(r) - 1 - dg, -1, -1):
        coef = (r[shift + dg] * lead_inv) % p
        if coef:
            q[shift] = coef
            for i, c in enumerate(g):
                r[shift + i] = (r[shift + i] - coef * c) % p
    return _trim(q), _trim(r[:dg] or [0])


def poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g, g nonzero."""
    return poly_divmod(f, g, p)[1]


def poly_divexact(f: list[int], g: list[int], p: int) -> list[int]:
    """f // g assuming g divides f."""
    return poly_divmod(f, g, p)[0]


def poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a % p:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def poly_sub(f: list[int], g: list[int], p: int) -> list[int]:
    """f - g; in characteristic 2 this is also f + g."""
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return _trim([(a - b) % p for a, b in zip(f, g)])


def poly_monic(f: list[int], p: int) -> list[int]:
    """f divided by its leading coefficient; f nonzero."""
    f = _trim([c % p for c in f])
    inv = inv_mod(f[-1], p)
    return [(c * inv) % p for c in f]


def poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd; [0] when both are zero."""
    a, b = _trim([c % p for c in f]), _trim([c % p for c in g])
    while any(b):
        a, b = b, poly_mod(a, b, p)
    return poly_monic(a, p) if any(a) else [0]


def poly_gcdex(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(s, t, h) with h the monic gcd of f and g (g nonzero) and
    s*f + t*g = h, by extended Euclid.  If deg h < min(deg f, deg g), then
    deg s < deg g - deg h and deg t < deg f - deg h, which makes s and t
    unique."""
    r0, r1 = _trim([c % p for c in f]), _trim([c % p for c in g])
    s0, s1, t0, t1 = [1], [0], [0], [1]
    while any(r1):
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    inv = inv_mod(r0[-1], p)
    return tuple([(c * inv) % p for c in a] for a in (s0, t0, r0))


def poly_powmod(f: list[int], e: int, m: list[int], p: int) -> list[int]:
    """f**e mod m, for deg m >= 1."""
    out, base = [1], poly_mod(f, m, p)
    while e:
        if e & 1:
            out = poly_mod(poly_mul(out, base, p), m, p)
        e >>= 1
        if e:
            base = poly_mod(poly_mul(base, base, p), m, p)
    return out


def poly_derivative(f: list[int], p: int) -> list[int]:
    return _trim([(i * c) % p for i, c in enumerate(f)][1:] or [0])


def poly_sqf_list(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Square-free decomposition of a monic f: pairs (g, e) with g monic,
    square-free, of degree >= 1 and pairwise coprime, and f = prod g**e."""
    out = []
    c = poly_gcd(f, poly_derivative(f, p), p)
    w = poly_divexact(f, c, p)
    e = 1
    # w is the product of the irreducible factors whose multiplicity is >= e
    # and prime to p; c holds the rest of f.
    while len(w) > 1:
        y = poly_gcd(w, c, p)
        z = poly_divexact(w, y, p)
        if len(z) > 1:
            out.append((z, e))
        w, c, e = y, poly_divexact(c, y, p), e + 1
    if len(c) > 1:
        # Every multiplicity left is divisible by p, so c(x) = r(x)**p with
        # r = sum_k c_{kp} x^k, since a**p = a on F_p.
        out += [(g, k * p) for g, k in poly_sqf_list(c[::p], p)]
    return out


def poly_ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of a monic square-free f: pairs (g, d)
    with g the product of the irreducible factors of f of degree d."""
    out = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = poly_powmod(h, p, f, p)  # x**(p**d) mod f
        g = poly_gcd(poly_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = poly_divexact(f, g, p)
            h = poly_mod(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def poly_edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The irreducible factors of a monic f that is a product of distinct
    irreducibles of degree d.  A random a splits f by gcd(b, f), where b is
    a**((p**d - 1)/2) - 1 for odd p (Cantor-Zassenhaus) and the trace
    a + a**2 + ... + a**(2**(d-1)) for p = 2.  The factors returned do not
    depend on the draws."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if p == 2:
            b = power = a
            for _ in range(d - 1):
                power = poly_powmod(power, 2, f, p)
                b = poly_sub(b, power, p)
        else:
            b = poly_sub(poly_powmod(a, (p**d - 1) // 2, f, p), [1], p)
        g = poly_gcd(b, f, p)
        if 1 < len(g) < len(f):
            return poly_edf(g, d, p, rng) + poly_edf(poly_divexact(f, g, p), d, p, rng)


def poly_factor(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Monic irreducible factors of a nonzero f with their multiplicities,
    ordered by degree, then multiplicity, then coefficients from the leading
    one down."""
    rng = random.Random(0)
    out = [
        (g, e)
        for s, e in poly_sqf_list(poly_monic(f, p), p)
        for h, d in poly_ddf(s, p)
        for g in poly_edf(h, d, p, rng)
    ]
    out.sort(key=lambda t: (len(t[0]), t[1], t[0][::-1]))
    return out


def poly_eval_matrix(f: list[int], a: Matrix, p: int) -> Matrix:
    """Evaluate polynomial (low-first coefficients) at a square matrix."""
    n = len(a.rows)
    powers = [eye(n)]
    for _ in f[1:]:
        powers.append(matmul(powers[-1], a, p))
    return combination(f, powers, p, (n, n))


def min_poly(a: Matrix, p: int) -> list[int]:
    """Minimal polynomial of a over F_p via Krylov chains, low-first, monic."""
    n = len(a.rows)
    if n == 0:
        return [0, 1]
    result = [1]
    for start in range(n):
        vec = unit_rows((start,), n).T
        krylov = [vec]
        while True:
            vec = matmul(a, vec, p)
            sol = solve(hstack(krylov), vec, p)
            if sol is not None:
                local = [-x % p for x in sol.T.rows[0]] + [1]
                break
            krylov.append(vec)
        result = poly_lcm(result, local, p)
        if len(result) == n + 1:
            break
    return result


def poly_lcm(f: list[int], g: list[int], p: int) -> list[int]:
    d = poly_gcd(f, g, p)
    return poly_mul(f, poly_divexact(g, d, p), p)
