"""Exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries normalized to [0, p).  All
routines are deterministic: pivots are chosen by first-nonzero scan, so
echelon forms, nullspace bases and solution vectors are reproducible.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np


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
    # entries < p and p**2 * inner_dim stays far below 2**63 for any sane size
    return np.mod(a @ b, p)


def inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = normalize(np.array(a, dtype=np.int64, copy=True), p)
    rows, cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        sub = r[row:, col]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * inv_mod(r[row, col], p)) % p
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
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of a @ x = b (columns of b solved jointly), or None."""
    rows, cols = a.shape
    b = normalize(b, p)
    if b.ndim == 1:
        b = b.reshape(rows, 1)
    aug = np.concatenate([normalize(a, p), b], axis=1)
    r, pivots = rref(aug, p)
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


def in_span(vectors: np.ndarray, v: np.ndarray, p: int) -> bool:
    """True if column vector v lies in the column span of `vectors`."""
    return solve(vectors, v, p) is not None


class QuotientSpace:
    """Coordinates on F_p^dim / span(columns of sub).

    Used for Ext-class coordinates and stable-Hom classes: `to_coords`
    reduces an ambient vector modulo the subspace, `lift` picks the
    canonical representative of a coordinate vector.
    """

    def __init__(self, dim: int, sub: np.ndarray, p: int):
        self.p = p
        self.ambient_dim = dim
        sub = normalize(sub, p) if sub.size else zeros(dim, 0)
        r, pivots = rref(sub.T, p)
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


def poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g, coefficients low-first, g nonzero."""
    f = [c % p for c in f]
    g = [c % p for c in g]
    while g and g[-1] == 0:
        g.pop()
    dg = len(g) - 1
    lead_inv = inv_mod(g[-1], p)
    while len(f) - 1 >= dg and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        shift = len(f) - 1 - dg
        factor = (f[-1] * lead_inv) % p
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - factor * c) % p
    while f and f[-1] == 0:
        f.pop()
    return f or [0]


def poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    a, b = [c % p for c in f], [c % p for c in g]
    while any(b):
        a, b = b, poly_mod(a, b, p)
    if not any(a):
        return [0]
    inv = inv_mod(a[-1], p)
    return [(c * inv) % p for c in a]


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


def poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a % p:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def poly_divexact(f: list[int], g: list[int], p: int) -> list[int]:
    """f // g assuming g divides f."""
    f = [c % p for c in f]
    g = [c % p for c in g]
    while g and g[-1] == 0:
        g.pop()
    out = [0] * (len(f) - len(g) + 1)
    lead_inv = inv_mod(g[-1], p)
    work = list(f)
    for shift in range(len(out) - 1, -1, -1):
        coef = (work[shift + len(g) - 1] * lead_inv) % p
        out[shift] = coef
        if coef:
            for i, c in enumerate(g):
                work[shift + i] = (work[shift + i] - coef * c) % p
    return out


def poly_lcm(f: list[int], g: list[int], p: int) -> list[int]:
    d = poly_gcd(f, g, p)
    return poly_mul(f, poly_divexact(g, d, p), p)
