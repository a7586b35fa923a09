"""Krull-Schmidt decomposition and isomorphism testing.

Splitting has one path.  Hunt for a nontrivial idempotent endomorphism among
candidates z (the basis of End, products of pairs, seeded random
combinations): when the minimal polynomial of z has two coprime factors, an
extended gcd gives a polynomial g with g(z) an exact idempotent (factors over
F_p come from `linalg.poly_factor`).  When the hunt finds none, the module
must be certified indecomposable: End modulo its radical is a field
(commutative with a one-dimensional Frobenius fixed space).  Otherwise the
hunt runs again on fresh draws, and then raises `DecompositionError`.
Indecomposability is never assumed.

Other splitting searches would only add candidates, never a new kind of
witness.  A Fitting splitting by phi (ker phi^N != 0 != im phi^N) means the
minimal polynomial of phi is x^a g with a >= 1, g(0) != 0 and deg g >= 1:
two coprime factors, so the hunt splits on phi itself.  An idempotent of
End/rad found from the class of z means that class has a minimal polynomial
with two coprime factors; it divides the minimal polynomial of z, so again
the hunt splits on z.

The radical is computed by the characteristic-p chain of coefficient
conditions c_{p^k}((xy)) = 0 and then *certified* at runtime to be a
nilpotent two-sided ideal, so a wrong radical can only raise, never
silently corrupt a decomposition.
"""

from __future__ import annotations

import itertools
import random

from . import linalg
from .algebra import projective_module
from .modules import (
    ModuleMap,
    Representation,
    end_vertex,
    hom_basis,
    hom_dim,
    identity_map,
    linear_combination,
    socle_subspaces,
    top_dims,
)


class DecompositionError(Exception):
    """Splitting machinery exhausted without a certificate; never silent."""


# -- endomorphism algebra helpers -------------------------------------------


def action_matrix(f: ModuleMap) -> linalg.Matrix:
    """Block-diagonal matrix of f on the total space of its source."""
    n = f.source.total_dim
    rows = []
    pos = 0
    for b in f.blocks:
        left, right = (0,) * pos, (0,) * (n - pos - b.ncols)
        rows += [left + row + right for row in b.rows]
        pos += b.ncols
    return linalg.Matrix(tuple(rows), n)


def _char_coeff(a: linalg.Matrix, idx: int, p: int) -> int:
    poly = linalg.char_poly(a, p)
    return poly[idx] if 0 <= idx < len(poly) else 0


def radical_basis(endos: list[ModuleMap], p: int) -> list[tuple]:
    """Coordinate vectors (over the given endo basis) spanning rad End.

    Chain: I_0 = End, I_{k+1} = {x in I_k : c_{p^k}(xy) = 0 for all y in I_k},
    for p^k <= dim of the module.  The result is certified to be a nilpotent
    two-sided ideal; certification failure raises.
    """
    if not endos:
        return []
    n = endos[0].source.total_dim
    dim_e = len(endos)
    acts = [action_matrix(f) for f in endos]

    cur = list(linalg.eye(dim_e).rows)  # coords over endo basis

    def coord_to_matrix(c):
        return linalg.combination(c, acts, p, (n, n))

    k = 0
    while p**k <= n and cur:
        pk = p**k
        mats = [coord_to_matrix(c) for c in cur]
        rows = tuple(tuple(_char_coeff(linalg.matmul(x, y, p), n - pk, p) for x in mats) for y in mats)
        null = linalg.nullspace(linalg.Matrix(rows, len(mats)), p)
        cur = list(linalg.matmul(null.T, linalg.Matrix(tuple(cur), dim_e), p).rows)
        k += 1

    rad = cur
    # certification: two-sided ideal, nilpotent
    rad_mats = [coord_to_matrix(c) for c in rad]
    # the flattened radical, one column per member
    rad_flat = linalg.from_columns((sum(m.rows, ()) for m in rad_mats), n * n)

    def in_rad_span(mat):
        return linalg.solve(rad_flat, sum(mat.rows, ()), p) is not None if rad else mat.is_zero()

    for r in rad_mats:
        for b in acts:
            if not in_rad_span(linalg.matmul(r, b, p)) or not in_rad_span(linalg.matmul(b, r, p)):
                raise DecompositionError("radical chain did not produce an ideal")
    power = [m for m in rad_mats if not m.is_zero()]
    for _ in range(dim_e + 1):
        if not power:
            break
        prods = []
        for a in power:
            for r in rad_mats:
                prod = linalg.matmul(a, r, p)
                if not prod.is_zero():
                    prods.append(prod)
        if not prods:
            power = []
            break
        span, pivots = linalg.rref(linalg.Matrix(tuple(sum(m.rows, ()) for m in prods), n * n), p)
        power = [linalg.from_flat(row, n, n) for row in span.rows[: len(pivots)]]
    if power:
        raise DecompositionError("radical chain did not produce a nilpotent ideal")
    return rad


class _QuotientAlgebra:
    """End modulo a certified ideal, with multiplication and Frobenius."""

    def __init__(self, endos: list[ModuleMap], rad_coords: list[tuple], p: int):
        self.p = p
        self.endos = endos
        dim_e = len(endos)
        self.quot = linalg.QuotientSpace(dim_e, linalg.from_columns(rad_coords, dim_e), p)
        self.dim = self.quot.dim
        flats = tuple(f.flatten() for f in endos)
        self.basis_flat = linalg.from_columns(flats, len(flats[0]))
        self.acts = [action_matrix(f) for f in endos]

    def mult_e(self, a, b) -> tuple:
        """Product in End, both in endo-basis coordinates."""
        p = self.p
        n = len(self.acts[0].rows) if self.acts else 0
        ma = linalg.combination(a, self.acts, p, (n, n))
        mb = linalg.combination(b, self.acts, p, (n, n))
        prod = linalg.matmul(ma, mb, p)
        # products of endomorphisms are endomorphisms: expand over the basis
        flat = []
        pos = 0
        for d in self.endos[0].source.dims:
            flat += [x for row in prod.rows[pos : pos + d] for x in row[pos : pos + d]]
            pos += d
        sol = linalg.solve(self.basis_flat, flat, self.p)
        if sol is None:
            raise DecompositionError("endomorphism product escaped the algebra")
        return sol

    def is_commutative(self) -> bool:
        reps = [self.quot.lift(e) for e in linalg.eye(self.dim).rows]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                ab = self.quot.to_coords(self.mult_e(reps[i], reps[j]))
                ba = self.quot.to_coords(self.mult_e(reps[j], reps[i]))
                if ab != ba:
                    return False
        return True

    def frobenius_fixed_dim(self) -> int:
        """dim of {x : x^p = x}; counts the simple factors when commutative."""
        cols = []
        for unit in linalg.eye(self.dim).rows:
            e = self.quot.lift(unit)
            power = e
            for _ in range(self.p - 1):
                power = self.mult_e(power, e)
            cols.append(self.quot.to_coords(power))
        frob = linalg.from_columns(cols, self.dim)
        ident = linalg.eye(self.dim)
        return linalg.nullspace(linalg.combination((1, -1), (frob, ident), self.p, frob.shape), self.p).ncols


# -- idempotent hunting ------------------------------------------------------


def _splitting_idempotent_from_minpoly(minpoly: list[int], p: int):
    """If the minimal polynomial has >= 2 coprime factors, return a polynomial
    g with g(z) idempotent and nontrivial; else None.

    With f1 the first irreducible factor in `linalg.poly_factor`'s order,
    minpoly = f1**e1 * rest, and u*f1**e1 + v*rest = 1 with deg v < deg f1**e1;
    g = v*rest is 1 modulo f1**e1 and 0 modulo rest."""
    factors = linalg.poly_factor(minpoly, p)
    if len(factors) < 2:
        return None

    def product(pairs):
        out = [1]
        for f, e in pairs:
            for _ in range(e):
                out = linalg.poly_mul(out, f, p)
        return out

    part1, rest = product(factors[:1]), product(factors[1:])
    _, v, _ = linalg.poly_gcdex(part1, rest, p)
    return linalg.poly_mul(v, rest, p)


def _apply_poly_to_endo(f: ModuleMap, poly: list[int]) -> ModuleMap:
    src = f.source
    p = f.p
    blocks = [linalg.poly_eval_matrix(poly, b, p) for b in f.blocks]
    # poly(f) includes the constant term as a multiple of the identity
    return ModuleMap(src, src, blocks, validate=False)


def _split_by_idempotent(m: Representation, e: ModuleMap):
    """The subrepresentations on im e and im (1 - e); raises unless, at each
    vertex, their bases side by side form an invertible matrix."""
    from .modules import _subspace_with_induced_action

    p = m.algebra.p
    one_minus = linear_combination([identity_map(m), e], (1, -1))
    bases_a = [linalg.column_space_basis(b, p) for b in e.blocks]
    bases_b = [linalg.column_space_basis(b, p) for b in one_minus.blocks]
    if not all(linalg.is_invertible(linalg.hstack([a, b]), p) for a, b in zip(bases_a, bases_b)):
        raise DecompositionError("idempotent images do not split the module")
    return _subspace_with_induced_action(m, bases_a)[0], _subspace_with_induced_action(m, bases_b)[0]


# Random candidates of the second hunt on a module that is not certified local.
_RETRY_DRAWS = 96


def _hunt_idempotent(
    m: Representation, endos: list[ModuleMap], rng: random.Random, draws: int = 24
):
    """Nontrivial idempotent endomorphism of m, or None.

    Candidates: the basis, products of pairs among its first six maps, then
    `draws` random combinations."""
    p = m.algebra.p
    k = min(len(endos), 6)
    # Every coefficient vector is drawn now, so the rng moves on by the same
    # amount whichever candidate succeeds; the maps are built when reached.
    drawn = [[rng.randrange(p) for _ in endos] for _ in range(draws)]
    candidates = itertools.chain(
        endos,
        (endos[i].compose(endos[j]) for i in range(k) for j in range(k)),
        (linear_combination(endos, coeffs) for coeffs in drawn if any(coeffs)),
    )
    ident = identity_map(m)
    for z in candidates:
        act = action_matrix(z)
        minpoly = linalg.min_poly(act, p)
        g = _splitting_idempotent_from_minpoly(minpoly, p)
        if g is None:
            continue
        e = _apply_poly_to_endo(z, g)
        if e.is_zero() or linear_combination([e, ident], (1, -1)).is_zero():
            continue
        assert linear_combination([e.compose(e), e], (1, -1)).is_zero()
        return e
    return None


def _is_certified_local(m: Representation, endos: list[ModuleMap]) -> bool:
    """End(m)/rad is a field: commutative with Frobenius fixed space of dim 1."""
    p = m.algebra.p
    rad = radical_basis(endos, p)
    q = _QuotientAlgebra(endos, rad, p)
    if q.dim == 0:
        raise DecompositionError("endomorphism algebra equals its radical")
    return q.is_commutative() and q.frobenius_fixed_dim() == 1


# -- decomposition -----------------------------------------------------------


def summand_split(m: Representation, seed: int = 0) -> list[Representation]:
    """The indecomposable summands of m, sorted by dimension vector.  The
    seed feeds the hunt's random candidates: it may change the bases the
    pieces carry, never their isomorphism classes."""
    rng = linalg.stable_rng(seed, 1)
    out = []
    _split_rec(m, out, rng, 4 * max(m.total_dim, 1))
    out.sort(key=lambda piece: (piece.dims, -piece.total_dim))
    return out


def _split_rec(piece, out, rng, bound, depth=0):
    if piece.total_dim == 0:
        return
    if depth > bound:
        raise DecompositionError("splitting recursion exceeded its depth bound")
    endos = hom_basis(piece, piece)
    if len(endos) == 1:
        out.append(piece)
        return
    e = _hunt_idempotent(piece, endos, rng)
    if e is None:
        if _is_certified_local(piece, endos):
            out.append(piece)
            return
        e = _hunt_idempotent(piece, endos, rng, draws=_RETRY_DRAWS)
        if e is None:
            raise DecompositionError(
                "no locality certificate and no splitting found "
                f"for a module of dimension vector {piece.dims}"
            )
    for half in _split_by_idempotent(piece, e):
        _split_rec(half, out, rng, bound, depth + 1)


# -- isomorphism testing -----------------------------------------------------


def indecomposable_isomorphic(a: Representation, b: Representation) -> bool:
    """Whether the indecomposables a and b are isomorphic: whether some map
    of the basis of Hom(a, b) is an isomorphism.

    The scan is exact.  End(a) of an indecomposable of finite length is
    local (Fitting's lemma; Auslander-Reiten-Smalo, ch. I).  So for an
    isomorphism phi: a -> b, the maps a -> b that are not isomorphisms are
    phi rad End(a), a proper subspace of Hom(a, b), and no basis lies in a
    proper subspace."""
    return a.dims == b.dims and any(f.is_iso() for f in hom_basis(a, b))


# -- fingerprints ------------------------------------------------------------


def _probes(algebra) -> tuple[list[Representation], list[int | None]]:
    """The projectives P_v by vertex, and for each the vertex w with
    P_v = I_w (None when P_v is not injective); cached on the algebra.
    An injective P_v is the I_w of its simple socle S_w."""
    cache = getattr(algebra, "_probe_cache", None)
    if cache is None:
        projs = [projective_module(algebra, v) for v in algebra.quiver.vertex_ids]
        as_injective = [end_vertex(pv, dual=True) for pv in projs]
        cache = algebra._probe_cache = projs, as_injective
    return cache


def fingerprint(m: Representation) -> tuple:
    """Isomorphism-invariant index key: dimension vector, Hom profile against
    the simples and projectives, arrow matrix ranks.  Collisions are resolved
    by `indecomposable_isomorphic`; the fingerprint is never the final arbiter.

    The profile is read off dimensions where it can be: hom(P_v, M) = dim M_v
    (Yoneda), hom(S_v, M) = dim soc(M)_v, hom(M, S_v) = dim top(M)_v, and
    hom(M, P_v) = dim M_w when P_v = I_w.  Only projectives that are not
    injective need an intertwining system."""
    cached = getattr(m, "_fp", None)
    if cached is not None:
        return cached
    p = m.algebra.p
    projs, as_injective = _probes(m.algebra)
    socle = [b.ncols for b in socle_subspaces(m)]
    top = top_dims(m)
    profile = []
    for v in range(len(m.dims)):
        profile += [socle[v], top[v]]
    for v, (pv, w) in enumerate(zip(projs, as_injective)):
        profile += [m.dims[v], m.dims[w] if w is not None else hom_dim(m, pv)]
    ranks = tuple(linalg.rank(a, p) for a in m.matrices)
    fp = (m.dims, tuple(profile), ranks)
    m._fp = fp
    return fp
