"""Projective covers, injective hulls, syzygies, Ext and approximations.

Covers are built from lifts of a basis of top(M) = M/rad M; hulls are covers
of the dual module over the opposite algebra, dualized back.  Hulls are
cached on the representation object, and so are minimal resolutions, which
are extended lazily, so repeated Ext queries against the same module share
work; Ext dimensions are read off Hom dimensions along the resolution, and
the syzygy of a module is the first one its resolution holds.
Right and left approximations are one construction, `approximation`, with a
`dual` switch.  The transpose Tr, and with it the Auslander-Reiten translates
tau = D Tr and tau^- = Tr D, is read off the first two terms of the minimal
resolution.
"""

from __future__ import annotations

from . import linalg
from .algebra import projective_module
from .modules import (
    ModuleMap,
    Representation,
    cokernel,
    direct_sum,
    dual_map,
    dual_representation,
    hom_basis,
    hom_dim,
    kernel,
    radical_subspaces,
    top_dims,
    zero_map,
    zero_representation,
)


def top_generator_lifts(m: Representation) -> list[tuple[int, linalg.Matrix]]:
    """(vertex, column) pairs projecting to a basis of top(M), in vertex order."""
    p = m.algebra.p
    rad = radical_subspaces(m)
    out = []
    for v in range(len(m.dims)):
        quot = linalg.QuotientSpace(m.dims[v], rad[v], p)
        out += [(v, linalg.unit_rows((c,), m.dims[v]).T) for c in quot.free]
    return out


def projective_cover(m: Representation) -> tuple[Representation, ModuleMap]:
    """Minimal projective cover (P, epi); kernel of the epi lies in rad P."""
    gens = top_generator_lifts(m)
    if not gens:
        z = zero_representation(m.algebra)
        return z, zero_map(z, m)
    total, cover = _map_from_projectives(m, gens)
    if not cover.is_epi():
        raise RuntimeError("projective cover construction failed to be surjective")
    return total, cover


def _map_from_projectives(
    m: Representation, gens: list[tuple[int, linalg.Matrix]]
) -> tuple[Representation, ModuleMap]:
    """(P, f): P is the sum of one P_v per (vertex v, column gen of m_v)
    pair, in order, and f sends the trivial path of each summand to its gen,
    so the basis path q of that summand goes to m_q(gen)."""
    alg = m.algebra
    n = alg.quiver.n_vertices
    total = direct_sum([projective_module(alg, alg.quiver.vertex_ids[v]) for v, _ in gens])[0]
    cols: list[list[linalg.Matrix]] = [[] for _ in range(n)]
    for v, gen in gens:
        for w, paths in enumerate(alg.basis_by_target(v)):
            cols[w] += [linalg.matmul(m.path_matrix(q), gen, alg.p) for q in paths]
    blocks = [linalg.hstack(c) if c else linalg.zeros(m.dims[w], 0) for w, c in enumerate(cols)]
    return total, ModuleMap(total, m, blocks, validate=False)


def injective_hull(m: Representation) -> tuple[Representation, ModuleMap]:
    """Minimal injective hull (I, mono), via the cover of the dual module;
    cached on the representation object."""
    cached = getattr(m, "_hull", None)
    if cached is not None:
        return cached
    dm = dual_representation(m)
    pd, epi = projective_cover(dm)
    mono_raw = dual_map(epi)  # D(dm) -> D(pd); D(dm) has the same matrices as m
    hull = mono_raw.target
    mono = ModuleMap(m, hull, mono_raw.blocks, validate=False)
    if not mono.is_mono():
        raise RuntimeError("injective hull construction failed to be injective")
    m._hull = hull, mono
    return hull, mono


def _summand_vertices(m: Representation) -> list[int]:
    """The vertex of each summand P_v of the projective cover of m, in the
    order `projective_cover` sums them."""
    return [v for v, t in enumerate(top_dims(m)) for _ in range(t)]


def transpose(m: Representation) -> Representation:
    """Tr m, a module over the opposite algebra: the cokernel of
    P0* -> P1*, the dual under P* = Hom(P, L) of a minimal presentation
    P1 -> P0 -> m -> 0 (Auslander-Reiten-Smalo IV.1).

    P_v* is the opposite algebra's projective at v.  A component P_w -> P_v
    of the presentation sends the trivial path at w to a combination of
    paths v -> w, its coefficients read off the resolution; the transposed
    component P_v* -> P_w* sends the trivial path at v to the same
    combination of the reversed paths.  Zero when m is projective."""
    alg = m.algebra
    op = alg.opposite()
    res = minimal_resolution(m)
    res.extend(1, syzygy=False)
    tops0 = _summand_vertices(m)
    tops1 = _summand_vertices(res.syzygies[0])
    if not tops1:
        return zero_representation(op)
    ids = alg.quiver.vertex_ids
    p1_star = direct_sum([projective_module(op, ids[w]) for w in tops1])[0]
    d1 = res.diffs[1].blocks
    gens = []
    for i, v in enumerate(tops0):
        gen = [0] * p1_star.dims[v]
        for j, w in enumerate(tops1):
            # the trivial path of the j-th summand of P1 leads its columns at
            # w, and the i-th summand of P0 holds the paths v -> w at w
            col = sum(len(alg.basis_by_target(x)[w]) for x in tops1[:j])
            row = sum(len(alg.basis_by_target(x)[w]) for x in tops0[:i])
            out = sum(len(op.basis_by_target(x)[v]) for x in tops1[:j])
            op_paths = op.basis_by_target(w)[v]
            for k, path in enumerate(alg.basis_by_target(v)[w]):
                c = d1[w].rows[row + k][col]
                if c:
                    for rev, c_rev in op.reduce_path((w, path[1][::-1])).items():
                        r = out + op_paths.index(rev)
                        gen[r] = (gen[r] + c * c_rev) % alg.p
        gens.append((v, linalg.column(gen)))
    return cokernel(_map_from_projectives(p1_star, gens)[1])[0]


def ar_translate(m: Representation, inverse: bool = False) -> Representation:
    """The Auslander-Reiten translate tau m = D Tr m; with `inverse`,
    tau^- m = Tr D m.  Zero on projectives (with `inverse`, injectives);
    indecomposable on the other indecomposables."""
    return transpose(dual_representation(m)) if inverse else dual_representation(transpose(m))


def syzygy(m: Representation) -> Representation:
    """Kernel of the projective cover, read off the cached minimal
    resolution; zero for projectives."""
    return minimal_resolution(m).syzygy_module(1)


def cosyzygy(m: Representation) -> Representation:
    """Cokernel of the injective hull; zero for injectives."""
    _, mono = injective_hull(m)
    return cokernel(mono)[0]


class MinimalResolution:
    """Lazily extended minimal projective resolution of a module.

    terms[k] is P_k, diffs[k]: P_k -> P_{k-1} (diffs[0] is the cover
    P_0 -> M), syzygy_incls[k]: Omega^{k+1} -> P_k, tops[k] the top
    dimensions of Omega^k (Omega^0 = M), filled by `top_dims`.  The kernel
    Omega^{k+1} of the cover P_k -> Omega^k is taken only when asked for.
    """

    def __init__(self, target: Representation):
        self.target = target
        self.terms: list[Representation] = []
        self.diffs: list[ModuleMap] = []
        self.syzygies: list[Representation] = []
        self.syzygy_incls: list[ModuleMap] = []
        self.tops: list[list[int]] = []
        self._cover: ModuleMap | None = None  # P_k -> Omega^k of the last term, until its kernel

    def extend(self, upto: int, syzygy: bool = True):
        """Terms and differentials through P_upto, and with `syzygy` the
        syzygy Omega^{upto+1} as well."""
        while len(self.terms) <= upto:
            k = len(self.terms)
            tail = self.target if k == 0 else self._syzygy(k - 1)
            pk, self._cover = projective_cover(tail)
            self.terms.append(pk)
            self.diffs.append(self._cover if k == 0 else self.syzygy_incls[k - 1].compose(self._cover))
        if syzygy:
            self._syzygy(upto)

    def _syzygy(self, k: int) -> Representation:
        """Omega^{k+1}, the kernel of the cover P_k -> Omega^k, once P_k is
        the last term."""
        if len(self.syzygies) == k:
            ker, incl = kernel(self._cover)
            self.syzygies.append(ker)
            self.syzygy_incls.append(incl)
            self._cover = None
        return self.syzygies[k]

    def syzygy_module(self, k: int) -> Representation:
        """Omega^k of the target (k >= 1)."""
        self.extend(k - 1)
        return self.syzygies[k - 1]

    def top_dims(self, k: int) -> list[int]:
        """Vertex-wise dimensions of top(Omega^k) of the target (k >= 0)."""
        while len(self.tops) <= k:
            j = len(self.tops)
            self.tops.append(top_dims(self.syzygy_module(j) if j else self.target))
        return self.tops[k]


def minimal_resolution(m: Representation) -> MinimalResolution:
    res = getattr(m, "_minres", None)
    if res is None:
        res = MinimalResolution(m)
        m._minres = res
    return res


def ext_dim(k: int, m: Representation, n: Representation) -> int:
    """dim Ext^k(m, n) from the minimal resolution; k = 0 gives dim Hom.

    With Omega^0 m = m, the presentation 0 -> Omega^k m -> P_{k-1} ->
    Omega^{k-1} m -> 0 gives Ext^k(m, n) = Ext^1(Omega^{k-1} m, n), the
    cokernel of Hom(P_{k-1}, n) -> Hom(Omega^k m, n) whose kernel is
    Hom(Omega^{k-1} m, n).  P_{k-1} holds top_v(Omega^{k-1} m) copies of P_v,
    and dim Hom(P_v, n) = dim n_v (Yoneda), so only dimensions are needed."""
    if k < 0:
        raise ValueError("negative cohomological degree")
    if k == 0:
        return hom_dim(m, n)
    if m.total_dim == 0 or n.total_dim == 0:
        return 0
    res = minimal_resolution(m)
    res.extend(k - 1)
    prev = res.syzygies[k - 2] if k > 1 else m
    hom_cover = sum(t * d for t, d in zip(res.top_dims(k - 1), n.dims))
    return hom_dim(res.syzygies[k - 1], n) - hom_cover + hom_dim(prev, n)


def approximation(members: list[Representation], c: Representation, dual: bool = False) -> ModuleMap:
    """Right approximation of c by add(members): the sum of a basis of each
    Hom(x, c), so every map from a member factors through it.  With `dual`,
    the left approximation c -> sum of a basis of each Hom(c, x).  A member
    with no maps adds no summand, and with none at all the map is from
    (into) 0."""
    summands: list[tuple[Representation, ModuleMap]] = []
    for x in members:
        for f in hom_basis(c, x) if dual else hom_basis(x, c):
            summands.append((x, f))
    if not summands:
        z = zero_representation(c.algebra)
        return zero_map(c, z) if dual else zero_map(z, c)
    total = direct_sum([s for s, _ in summands])[0]
    # The summands take their coordinates of the sum in order, so each block
    # is theirs side by side (stacked, with `dual`).
    blocks = [(linalg.vstack if dual else linalg.hstack)([f.blocks[v] for _, f in summands])
              for v in range(len(c.dims))]
    return ModuleMap(*((c, total) if dual else (total, c)), blocks, validate=False)
