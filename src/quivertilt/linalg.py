"""Exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries normalized to [0, p).  All
routines are deterministic: pivots are chosen by first-nonzero scan, so
echelon forms, nullspace bases and solution vectors are reproducible.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np

# Residues are int64 values in [0, p).  A matrix product adds up one product
# of two residues, each at most (p - 1)**2, per term of its inner dimension
# before reducing, so the sum must stay within int64.  A characteristic is
# accepted only if 2**20 such products fit; `matmul` checks its own length.
INT64_MAX = 2**63 - 1
MIN_TERMS = 2**20
MAX_FIELD_CHAR = math.isqrt(INT64_MAX // MIN_TERMS) + 1  # 2,965,821


def stable_rng(seed: int, *tags) -> random.Random:
    """Process-independent seeded RNG (str hashes are salted; sha256 is not)."""
    material = repr((int(seed),) + tags).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def normalize(a: np.ndarray, p: int) -> np.ndarray:
    return np.mod(np.asarray(a, dtype=np.int64), p)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    terms = a.shape[1]
    if terms * (p - 1) ** 2 > INT64_MAX:
        raise ValueError(
            f"F_{p} matrix product with inner dimension {terms} could overflow int64: "
            f"at most {INT64_MAX // (p - 1) ** 2} terms fit"
        )
    return np.mod(a @ b, p)


def inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = normalize(a, p)  # a fresh reduced copy: np.mod never returns its input
    rows, cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        nz = r[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        lead = int(r[row, col])
        if lead != 1:
            r[row] = (r[row] * inv_mod(lead, p)) % p
        if rows > 1:  # clear the pivot column in the other rows
            factors = r[:, col].copy()
            factors[row] = 0
            r -= factors[:, None] * r[row]
            r %= p
        pivots.append(col)
        row += 1
    return r, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel as columns, in free-variable order."""
    rows, cols = a.shape
    if cols == 0:
        return zeros(0, 0)
    if rows == 0:
        return eye(cols)
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(cols, len(free))
    basis[free, range(len(free))] = 1
    basis[pivots] = -r[: len(pivots), free] % p
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of a @ x = b (columns of b solved jointly), or None."""
    rows, cols = a.shape
    b = np.asarray(b)
    if b.ndim == 1:
        b = b.reshape(rows, 1)
    r, pivots = rref(np.concatenate([a, b], axis=1), p)
    ncols_b = b.shape[1]
    for pc in pivots:
        if pc >= cols:
            return None
    x = zeros(cols, ncols_b)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x


def inverse(a: np.ndarray, p: int) -> np.ndarray | None:
    n = a.shape[0]
    if a.shape != (n, n):
        return None
    if n == 0:
        return zeros(0, 0)
    x = solve(a, eye(n), p)
    if x is None:
        return None
    if not np.array_equal(matmul(a, x, p), eye(n)):
        return None
    return x


def is_invertible(a: np.ndarray, p: int) -> bool:
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def column_space_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Columns of a restricted to a basis of the column space (original vectors)."""
    if a.shape[1] == 0:
        return a.copy()
    _, piv_cols = rref(a, p)
    return a[:, piv_cols].copy()


def row_space_basis(a: np.ndarray, p: int) -> np.ndarray:
    r, pivots = rref(a, p)
    return r[: len(pivots)].copy()


class QuotientSpace:
    """Coordinates on F_p^dim / span(columns of sub).

    Used for Ext-class coordinates and stable-Hom classes: `to_coords`
    reduces an ambient vector modulo the subspace, `lift` picks the
    canonical representative of a coordinate vector.
    """

    def __init__(self, dim: int, sub: np.ndarray, p: int):
        self.p = p
        self.ambient_dim = dim
        r, pivots = rref(sub.T if sub.size else zeros(0, dim), p)
        self.sub_rows = r[: len(pivots)]  # echelon basis of subspace, as rows
        self.sub_pivots = pivots
        self.free = [c for c in range(dim) if c not in pivots]
        self.dim = len(self.free)

    def to_coords(self, v: np.ndarray) -> np.ndarray:
        """Reduce v modulo the subspace; coordinates are the free positions."""
        v = normalize(v, self.p).reshape(-1).copy()
        for i, pc in enumerate(self.sub_pivots):
            if v[pc]:
                v = (v - v[pc] * self.sub_rows[i]) % self.p
        return v[self.free]

    def lift(self, coords: np.ndarray) -> np.ndarray:
        v = zeros(self.ambient_dim, 1).reshape(-1)
        for k, fc in enumerate(self.free):
            v[fc] = coords[k] % self.p
        return v


def char_poly(a: np.ndarray, p: int) -> list[int]:
    """Characteristic polynomial of a over F_p, low-degree-first coefficients.

    Hessenberg reduction by similarity transforms, then the standard
    leading-principal-minor recurrence.  Exact over F_p.
    """
    n = a.shape[0]
    h = [[int(x) % p for x in row] for row in a.tolist()]
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


def poly_eval_matrix(f: list[int], a: np.ndarray, p: int) -> np.ndarray:
    """Evaluate polynomial (low-first coefficients) at a square matrix."""
    n = a.shape[0]
    out = zeros(n, n)
    power = eye(n)
    for c in f:
        if c % p:
            out = (out + (c % p) * power) % p
        power = matmul(power, a, p)
    return out


def min_poly(a: np.ndarray, p: int) -> list[int]:
    """Minimal polynomial of a over F_p via Krylov chains, low-first, monic."""
    n = a.shape[0]
    if n == 0:
        return [0, 1]
    result = [1]
    for start in range(n):
        e = zeros(n, 1)
        e[start, 0] = 1
        krylov = [e]
        vec = e
        while True:
            vec = matmul(a, vec, p)
            stacked = np.concatenate(krylov, axis=1)
            sol = solve(stacked, vec, p)
            if sol is not None:
                local = [(-int(sol[i, 0])) % p for i in range(len(krylov))] + [1]
                break
            krylov.append(vec)
        result = poly_lcm(result, local, p)
        if len(result) == n + 1:
            break
    return result


def poly_lcm(f: list[int], g: list[int], p: int) -> list[int]:
    d = poly_gcd(f, g, p)
    return poly_mul(f, poly_divexact(g, d, p), p)
