"""Stable module category of a self-injective algebra.

Suspension is the cokernel of the injective hull and loop the kernel of the
projective cover, `homology.cosyzygy` and `homology.syzygy`; the cone of
f: M -> N is the cokernel of the mapping cylinder M -> I(M) + N, returned
as a module alone.  No stable Hom space and no connecting map is formed
here.  Every short exact sequence of modules is a triangle in the stable
category (Happel 1988), so a context realizes its conflations as short
exact sequences, and reads stable Hom(Omega C, A) as module Ext^1(C, A)
(`contexts.StableExtSpace`).

A stable context checks that the algebra is self-injective, reads Omega M
off its E table, from the syzygy held by M's minimal resolution, and names
Sigma M from `cosyzygy`.  Over a self-injective algebra the kernel of a
projective cover and the cokernel of an injective hull have no projective
summands (Heller's lemma): the E table raises on one in Omega M, and the
strip that Sigma M passes through finds none.  A cone may have projective
summands; `strip_projectives` removes them without splitting M.  Each P_v
is injective with simple socle S_w, w = nu(v), spanned by one combination
omega_v of paths v -> w, so a map P_v -> M is mono iff it does not kill
omega_v, and a mono out of an injective module splits (injective modules
are direct summands of every module containing them;
Auslander-Reiten-Smalo IV.3).  So the multiplicity of P_v in M is the rank
of M(omega_v): M_v -> M_w, and generators at the pivot columns give a split
mono from the sum of those projectives whose cokernel is the
projective-free core.
"""

from __future__ import annotations

from . import linalg
from .algebra import BoundQuiverAlgebra, is_self_injective, projective_module
from .homology import _map_from_projectives, injective_hull
from .modules import (
    ModuleMap,
    Representation,
    cokernel,
    direct_sum,
    linear_combination,
    socle_subspaces,
    summand_maps,
)


class NotSelfInjectiveError(Exception):
    """Stable-category operations require a self-injective algebra."""


def require_self_injective(algebra: BoundQuiverAlgebra):
    flag = getattr(algebra, "_self_injective", None)
    if flag is None:
        flag = is_self_injective(algebra)
        algebra._self_injective = flag
    if not flag:
        raise NotSelfInjectiveError(
            "stable module categories are only formed over self-injective algebras"
        )


def _socle_paths(algebra: BoundQuiverAlgebra) -> list[tuple[int, list[tuple[int, tuple]]]]:
    """Per vertex v: (w, omega_v), where the simple socle S_w of the
    projective-injective P_v is spanned by omega_v = sum c q over the paths
    q: v -> w, given as (c, q) pairs; cached on the algebra, which must be
    self-injective."""
    cache = getattr(algebra, "_socle_path_cache", None)
    if cache is None:
        cache = []
        for v, vid in enumerate(algebra.quiver.vertex_ids):
            socle = socle_subspaces(projective_module(algebra, vid))
            w = next(u for u, b in enumerate(socle) if b.ncols)
            paths = algebra.basis_by_target(v)[w]
            cache.append((w, [(row[0], q) for row, q in zip(socle[w].rows, paths) if row[0]]))
        algebra._socle_path_cache = cache
    return cache


def strip_projectives(m: Representation) -> Representation:
    """Projective-free core: the sum of the summands of m that are not
    projective, as the cokernel of a split mono from the projective ones.

    Generators at the pivot columns of M(omega_v): M_v -> M_w, for every v,
    map their socles to independent vectors (nu is a permutation), so the map
    from the sum of the P_v is mono; this is checked, not assumed."""
    require_self_injective(m.algebra)
    p = m.algebra.p
    gens = []
    for v, (w, omega) in enumerate(_socle_paths(m.algebra)):
        if not m.dims[v] or not m.dims[w]:
            continue
        action = linalg.combination([c for c, _ in omega], [m.path_matrix(q) for _, q in omega], p,
                                    (m.dims[w], m.dims[v]))
        gens += [(v, linalg.unit_rows((col,), m.dims[v]).T) for col in linalg.rref(action, p)[1]]
    if not gens:
        return m
    mono = _map_from_projectives(m, gens)[1]
    if not mono.is_mono():
        raise RuntimeError("the projective summands found by socle ranks do not embed")
    return cokernel(mono)[0]


def cone(f: ModuleMap) -> Representation:
    """Mapping cone of f: M -> N in the stable category: the cokernel of
    M -> I(M) + N, so that 0 -> M -> I(M) + N -> cone -> 0 is exact."""
    require_self_injective(f.source.algebra)
    hull, mono = injective_hull(f.source)
    pair = [hull, f.target]
    incl_hull, incl_n = summand_maps(direct_sum(pair), pair)
    return cokernel(linear_combination([incl_hull.compose(mono), incl_n.compose(f)], (1, 1)))[0]
