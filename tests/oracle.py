"""Independent oracles: extension groups by cocycles, and identification of
modules by splitting.

`ext1_dim_oracle` computes dim Ext^1(M, N) directly from extension cocycles: an extension
structure on N + M is a family theta_a in Hom_k(M_s(a), N_t(a)) making the
block matrices [[N_a, theta_a], [0, M_a]] satisfy the algebra relations;
equivalence is a coboundary shift theta_a -> theta_a + N_a h_s - h_t M_a.
No projective resolutions, covers or syzygies are involved, so this is a
genuinely independent check of the resolution-based computation.

`rref_by_numpy`, `rank_by_numpy`, `nullspace_by_numpy`, `solve_by_numpy`
and `matmul_by_numpy` are the F_p kernels of `linalg` as
they were on numpy int64 arrays, before the package dropped numpy for
Python ints: the same first-nonzero pivot rule, one vectorized update of
every row per pivot.  `as_array` turns a `linalg.Matrix` into such an array,
of its shape; `linalg.normalize` turns one back.  `ext1_dim_oracle` runs on
them alone.

`identify_by_splitting` names the summands of a module the way contexts did
before they solved by Hom vectors: Krull-Schmidt splitting, then an
isomorphism test of each piece against the context objects; in a stable
context the projective pieces are dropped first, as `stable.strip_projectives`
did.

`is_end_by_search`, `probes_by_search` and `self_injective_by_search` are the
isomorphism searches that `modules.is_end`, `decompose._probes` and
`algebra.is_self_injective` replaced by reading the top, the socle and the
dimension vector: a module is an indecomposable projective (injective) when it
is isomorphic to some P_v (I_v).

`fingerprint_by_hom_probes` is `decompose.fingerprint` as it was before the
profile was read off dimensions: one intertwining system per probe.

`greedy_step_by_full_approximation` is the canonical approximation step of
`checkers._greedy_step` computed from the whole of X, uncached;
`cocone_by_cone_and_loop` names the cocone of a map in a triangulated context
as the loop of its mapping cone.  `loop` and `suspension` were
`stable.loop` and `stable.suspension`, which the enough-projectives
witnesses of a stable context used before they named Omega C (Sigma C)
through `homology.syzygy` (`cosyzygy`) in every root.

`approximation_by_adds` is `homology.approximation` summed one map at a
time, with `extra` as one more summand: the augmented approximation that
`Context.approx` built before a plain one was shown to do.

`conflation_candidates`, `resdim_by_search`, `clause3_by_search` and
`cotorsion_by_search` are the bounded conflation search that `check
--exhaustive` ran before the approximation clause was decided by minimal
approximations: every map onto (from) the object from (to) a sum of at most
two members, with the resolution dimension the least over the chains it
finds.  A pass names actual conflations; a failure may be the bound's.
`sum_rep` and `nonzero_combinations` were `Context.sum_rep` and
`modules.nonzero_combinations`, which only the search used.

`stable_realize_by_cone` is how a stable context realized a class of E(C, A)
before it used the short exact sequences of `contexts.ExactExtSpace`: the
mapping cone of the class representative t: Omega C -> A in stable
Hom(Omega C, A), with the connecting map of the cone composed with an
isomorphism Sigma Omega C -> C found by a seeded random search.

`enumerate_by_ext_closure` lists the indecomposables the way contexts did
before they knitted the Auslander-Reiten quiver: close the simples,
projectives and injectives under syzygy, cosyzygy and the middle terms of
every nonzero class of every Ext^1 pair.

`splitting_idempotent_by_sympy` is the splitting polynomial of
`decompose._splitting_idempotent_from_minpoly` as it was computed with
sympy's factoring and extended gcd over F_p, before the package did both
itself.

`cluster_tilting_by_subset_walk` and `cotorsion_diagonal_by_subset_walk` are
the enumerators of `checkers` as they were before they became output
sensitive: both walk every superset of the projectives and injectives, by
size and then lexicographically, and test each with per-degree bit loops.

`all_class_coords` lists every class of E(C, A) and
`extension_closed_by_all_classes` is `contexts.is_extension_closed` as it was
before it realized one class per line: it realizes every nonzero class.

`cokernel_by_unit_vectors` and `direct_sum_by_entries` are `modules.cokernel`
and `modules.direct_sum` as they were before they were vectorized: the
cokernel projection is formed one reduced unit vector at a time and its
arrow action by solving on a section, and the direct sum's inclusions and
projections are set entry by entry.  `approximation_by_adds` is
`homology.approximation` as it was before it wrote each block once: the sum
of one composite with an inclusion (projection) of the direct sum per Hom
basis map.

`hom_matrix_by_systems` and `ext_table_by_pairs` are the Hom matrix that
`contexts.HomVectors` inverted and the E table that root contexts filled
before both were read off the Auslander-Reiten mesh: one intertwining system
per pair of modules, and `homology.ext_dim` per pair of objects.

`middle_terms_by_splitting` is how the knit found each almost split middle
term before it read them off the mesh: realize the almost split sequence
ending at every non-projective module (`contexts._almost_split_middle`),
split its middle term and identify each piece by isomorphism.

`twist_images_by_fingerprint` and `automorphism_images_by_fingerprint` are
how a root found where the algebra's vertex automorphisms send its modules
before it read the knit's twist table: twist every module along each
automorphism (`modules.twist`) and look the twist up by its fingerprint,
which is distinct on the indecomposables; an automorphism that is the
composite of two already placed gets the composite of their images.

`is_isomorphic` was `decompose.is_isomorphic`, the isomorphism test of
arbitrary modules from before contexts named modules by Hom vectors: a
seeded random search for an invertible map (`linalg.stable_rng` tag 3, as
before, by `_random_invertible_combo`, the search that
`decompose.indecomposable_isomorphic` made before it scanned a basis of
Hom), then splitting both modules and matching the pieces with
`decompose.indecomposable_isomorphic`.

`decompose` was `decompose.decompose`: the Krull-Schmidt summands of a
module with multiplicities, split by `decompose.summand_split` with the
given seed and grouped by `indecomposable_isomorphic`, which takes no
seed.

`StableHomSpace` and `stable_hom_dim` are stable Hom as `stable` computed it
before stable conflations became short exact sequences: Hom(m, n) modulo the
maps that factor through the injective hull of m, which over a
self-injective algebra are the maps through projectives.

`class_of` was the method `modules.HomQuotient.class_of`, the inverse of
`HomQuotient.representative`: the coordinates of the class of a map in a
Hom quotient.  Only the tests ask for a map's class.

`image` was `modules.image`: the image of a module map as a
subrepresentation of its target, from a column basis of each block.  No
command forms an image; kernels and cokernels are enough.

`conflation` is what `Context.realize` returned before it returned only the
object ids of the middle term: the conflation A -> B -> C of a class, with
its three modules, its Ext space, the projection of P0 + A onto B that
realized it, and the maps x: A -> B and y: B -> C, formed on first use by
`ext_space_maps`; y is found by factoring P0 + A -> P0 -> C through that
projection.  It realizes the class afresh with `ExactExtSpace.realize` and
reads the middle term's ids from `Context.realize`.

`is_subquotient_by_submodules` is `search.is_subquotient` as it was before it
read the answer off top vertices and lengths: a search over every
arrow-invariant tuple of vertex subspaces and every map from that submodule
onto m.  It enumerates each subspace once, by its reduced echelon basis,
and has neither the old refusal above total dimension 6 nor its cap of 4096
maps.

`cluster_tilting_by_combinations` is how `search.search_nakayama_stable`
found its hits before it took them from `checkers.enumerate_cluster_tilting`:
`check_cluster_tilting` on every set of the requested size through the
projectives and injectives.

`map_from_projectives_by_path_matrices` is `homology._map_from_projectives`
as it was before it took each path's image from its prefix's: the basis path
q of the summand at (v, gen) goes to the full matrix `path_matrix(q)` times
gen, and the map is validated, so its blocks must intertwine.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import sympy

from quivertilt import checkers, linalg
from quivertilt.algebra import (
    induced_arrows,
    injective_module,
    projective_module,
    simple_module,
    vertex_automorphisms,
)
from quivertilt.contexts import Context, ContextError, ExactExtSpace, _almost_split_middle
from quivertilt.decompose import fingerprint, indecomposable_isomorphic, summand_split
from quivertilt.homology import ar_translate, cosyzygy, ext_dim, injective_hull, minimal_resolution, syzygy
from quivertilt.modules import (
    HomQuotient,
    ModuleMap,
    Representation,
    _subspace_with_induced_action,
    cokernel,
    direct_sum,
    hom_basis,
    hom_dim,
    is_end,
    linear_combination,
    summand_maps,
    twist,
    zero_map,
    zero_representation,
)
from quivertilt.stable import cone, require_self_injective


# -- numpy F_p kernels ----------------------------------------------------------


def as_array(m: linalg.Matrix) -> np.ndarray:
    """m as an int64 array of its shape."""
    return np.array(m.rows, dtype=np.int64).reshape(m.shape)


def rref_by_numpy(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = np.mod(np.asarray(a, dtype=np.int64), p)  # a fresh reduced copy
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
            r[row] = (r[row] * linalg.inv_mod(lead, p)) % p
        if rows > 1:  # clear the pivot column in the other rows
            factors = r[:, col].copy()
            factors[row] = 0
            r -= factors[:, None] * r[row]
            r %= p
        pivots.append(col)
        row += 1
    return r, pivots


def rank_by_numpy(a: np.ndarray, p: int) -> int:
    return len(rref_by_numpy(a, p)[1]) if a.size else 0


def matmul_by_numpy(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.mod(a @ b, p)


def nullspace_by_numpy(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel as columns, in free-variable order."""
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref_by_numpy(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[pivots] = -r[: len(pivots), free] % p
    return basis


def solve_by_numpy(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of a @ x = b (columns of b solved jointly), or None."""
    rows, cols = a.shape
    b = np.asarray(b)
    if b.ndim == 1:
        b = b.reshape(rows, 1)
    r, pivots = rref_by_numpy(np.concatenate([a, b], axis=1), p)
    if any(pc >= cols for pc in pivots):
        return None
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x


def _theta_offsets(m: Representation, n: Representation):
    q = m.algebra.quiver
    sizes = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        sizes.append(n.dims[t] * m.dims[s])
    offsets = np.cumsum([0] + sizes)
    return sizes, offsets


def _path_twist_rows(m, n, path, row_block, total, coeff, p):
    """Rows of the linearized relation term: for a path q = a_1 ... a_k the
    twisted block is sum_i N_{a_k..a_{i+1}} theta_{a_i} M_{a_{i-1}..a_1}."""
    alg = m.algebra
    q = alg.quiver
    sizes, offsets = _theta_offsets(m, n)
    src = path[0]
    arrows = path[1]
    rows = row_block.shape[0] if hasattr(row_block, "shape") else 0
    out = row_block
    for i, a in enumerate(arrows):
        prefix = (src, arrows[:i])
        v = alg.path_target(prefix)
        suffix_src = q.arrow_target[a]
        suffix = (suffix_src, arrows[i + 1 :])
        m_pre = as_array(m.path_matrix(prefix))
        n_suf = as_array(n.path_matrix(suffix))
        # vec(N_suf @ theta_a @ M_pre) = (N_suf kron M_pre^T) vec(theta_a)
        kron = np.kron(n_suf, m_pre.T) % p
        block = (coeff * kron) % p
        cols = slice(int(offsets[a]), int(offsets[a + 1]))
        out[:, cols] = (out[:, cols] + block) % p
    return out


def ext1_dim_oracle(m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n) via cocycles modulo coboundaries."""
    alg = m.algebra
    p = alg.p
    q = alg.quiver
    sizes, offsets = _theta_offsets(m, n)
    total = int(offsets[-1])
    if total == 0:
        return 0
    rows = []
    for rel in alg.relations:
        some_path = next(iter(rel))
        src = some_path[0]
        tgt = alg.path_target(some_path)
        n_eq = n.dims[tgt] * m.dims[src]
        if n_eq == 0:
            continue
        block = np.zeros((n_eq, total), dtype=np.int64)
        for path, coeff in rel.items():
            block = _path_twist_rows(m, n, path, block, total, coeff, p)
        rows.append(block)
    constraints = np.concatenate(rows, axis=0) if rows else np.zeros((0, total), dtype=np.int64)
    cocycles = nullspace_by_numpy(constraints, p)
    # coboundary map: h = (h_v) |-> theta_a = N_a h_s - h_t M_a
    h_sizes = [n.dims[v] * m.dims[v] for v in range(q.n_vertices)]
    h_offsets = np.cumsum([0] + h_sizes)
    h_total = int(h_offsets[-1])
    cob = np.zeros((total, max(h_total, 1)), dtype=np.int64)
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        if sizes[a] == 0:
            continue
        r = slice(int(offsets[a]), int(offsets[a + 1]))
        if h_sizes[s]:
            cob[r, int(h_offsets[s]) : int(h_offsets[s + 1])] = (
                cob[r, int(h_offsets[s]) : int(h_offsets[s + 1])]
                + np.kron(as_array(n.matrices[a]), np.eye(m.dims[s], dtype=np.int64))
            ) % p
        if h_sizes[t]:
            cob[r, int(h_offsets[t]) : int(h_offsets[t + 1])] = (
                cob[r, int(h_offsets[t]) : int(h_offsets[t + 1])]
                - np.kron(np.eye(n.dims[t], dtype=np.int64), as_array(m.matrices[a]).T)
            ) % p
    cob = cob % p
    dim_z = cocycles.shape[1]
    # coboundaries must be cocycles; anything else is an oracle bug
    for col in range(min(h_total, cob.shape[1])):
        vec = cob[:, col : col + 1]
        if constraints.size and np.any(matmul_by_numpy(constraints, vec, p)):
            raise AssertionError("coboundary fails the cocycle constraints")
    dim_b = rank_by_numpy(cob[:, :h_total], p) if h_total else 0
    return dim_z - dim_b


def identify_by_splitting(ctx, rep: Representation) -> Counter:
    """Context object ids of the indecomposable summands of rep, projective
    ones left out in a stable context; a summand matching no object raises
    AssertionError."""
    seed = ctx.config.seed
    out: Counter = Counter()
    if rep.total_dim == 0:
        return out
    stable = ctx.root_kind == "stable"
    for piece in summand_split(rep, seed):
        if stable and is_end_by_search(piece):
            continue
        matches = [o.index for o in ctx.objects if indecomposable_isomorphic(o.rep, piece)]
        if len(matches) != 1:
            raise AssertionError(f"summand {piece.dims} matches objects {matches}")
        out[matches[0]] += 1
    return out


def is_end_by_search(m: Representation, dual: bool = False) -> bool:
    """Whether m is isomorphic to some P_v (with `dual`, I_v)."""
    alg = m.algebra
    make = injective_module if dual else projective_module
    return any(indecomposable_isomorphic(m, make(alg, v)) for v in alg.quiver.vertex_ids)


def probes_by_search(algebra) -> list[int | None]:
    """For each P_v, the first w with P_v isomorphic to I_w, or None."""
    ids = algebra.quiver.vertex_ids
    injs = [injective_module(algebra, v) for v in ids]
    return [
        next((w for w, inj in enumerate(injs)
              if inj.dims == pv.dims and indecomposable_isomorphic(pv, inj)), None)
        for pv in (projective_module(algebra, v) for v in ids)
    ]


def self_injective_by_search(algebra) -> bool:
    """Whether every P_v is isomorphic to some I_w."""
    ids = algebra.quiver.vertex_ids
    injs = [injective_module(algebra, v) for v in ids]
    return all(any(is_isomorphic(projective_module(algebra, v), inj) for inj in injs) for v in ids)


def fingerprint_by_hom_probes(m: Representation) -> tuple:
    """Dimension vector, dim Hom both ways against every simple and then
    every projective, and the arrow matrix ranks."""
    alg = m.algebra
    probes = [simple_module(alg, v) for v in alg.quiver.vertex_ids]
    probes += [projective_module(alg, v) for v in alg.quiver.vertex_ids]
    profile = []
    for probe in probes:
        profile += [hom_dim(probe, m), hom_dim(m, probe)]
    return m.dims, tuple(profile), tuple(linalg.rank(a, alg.p) for a in m.matrices)


def greedy_step_by_full_approximation(ctx, x_ids, idx: int, dual: bool):
    """Cocone (with `dual`, cone) ids of the approximation of object idx by
    every member of X; None when the map is not a deflation (inflation)."""
    return ctx.conflation_end(ctx.approx(sorted(x_ids), idx, dual), dual)


def nonzero_combinations(maps: list[ModuleMap]):
    """The combinations of maps with a nonzero coefficient vector, coefficient
    vectors in lexicographic order."""
    if maps:
        for coeffs in itertools.product(range(maps[0].p), repeat=len(maps)):
            if any(coeffs):
                yield linear_combination(maps, coeffs)


def sum_rep(ctx, ids: Counter) -> Representation:
    """The direct sum of the context objects in a multiset of ids."""
    reps = [ctx.objects[i].rep for i, m in sorted(ids.items()) for _ in range(m)]
    return direct_sum(reps) if reps else zero_representation(ctx.algebra)


def conflation_candidates(ctx, member_ids, c_rep: Representation, dual: bool,
                          max_multiplicity: int = 2, bound: int = 4096):
    """The ids of K over the conflations K -> X0 -> C with X0 in add(members)
    (with `dual`, of L over C -> X0 -> L) that a bounded search meets: X0
    runs over the zero object in a triangulated root, then over the sums of
    at most max_multiplicity members, and the map over every nonzero
    combination of a basis of Hom(X0, C) (Hom(C, X0)).  A Hom space with more
    than `bound` elements raises, since skipping it could miss the only
    conflation."""
    p = ctx.algebra.p
    middles = [Counter()] if ctx.root_kind == "stable" else []
    for size in range(1, max_multiplicity + 1):
        for combo in itertools.combinations_with_replacement(sorted(member_ids), size):
            middles.append(Counter(combo))
    for mid in middles:
        mid_rep = sum_rep(ctx, mid)
        if mid_rep.total_dim == 0:
            maps = [zero_map(c_rep, mid_rep) if dual else zero_map(mid_rep, c_rep)]
        else:
            homs = hom_basis(c_rep, mid_rep) if dual else hom_basis(mid_rep, c_rep)
            if p ** len(homs) > bound:
                raise ContextError(f"a Hom space of the conflation search has {p ** len(homs)} elements, "
                                   f"above the bound {bound}")
            maps = nonzero_combinations(homs)
        for f in maps:
            try:
                ids = ctx.conflation_end(f, dual)
            except ContextError:
                continue
            if ids is not None:
                yield ids


def _searched_resdim(ctx, x_ids: frozenset, target: Counter, bound: int, dual: bool, memo):
    """Least length over the bounded conflation chains of target with
    middle terms in add(X) (`conflation_candidates`)."""
    key = (tuple(sorted(target.items())), bound)
    if key in memo:
        return memo[key]
    memo[key] = checkers.EXCEEDS  # cycle guard
    if all(i in x_ids for i in target):
        memo[key] = 0
        return 0
    if bound == 0:
        return checkers.EXCEEDS
    best = checkers.EXCEEDS
    for k_ids in conflation_candidates(ctx, x_ids, sum_rep(ctx, target), dual):
        sub = _searched_resdim(ctx, x_ids, k_ids, bound - 1, dual, memo)
        if isinstance(sub, int) and (not isinstance(best, int) or sub + 1 < best):
            best = sub + 1
            if best == 1:
                break
    memo[key] = best
    return best


def resdim_by_search(ctx, x_ids, target, bound: int, dual: bool = False):
    """The least of `checkers.resdim` and the bounded search's length: what
    `resdim(..., exhaustive=True)` returned."""
    x_ids = frozenset(int(i) for i in x_ids)
    counter = target if isinstance(target, Counter) else Counter({int(target): 1})
    greedy = checkers.resdim(ctx, x_ids, counter, bound, dual)
    memo = ctx.__dict__.setdefault("_searched_resdim_cache", {}).setdefault((x_ids, dual), {})
    brute = _searched_resdim(ctx, x_ids, counter, bound, dual, memo)
    if isinstance(greedy, int) and isinstance(brute, int):
        return min(greedy, brute)
    return brute if isinstance(brute, int) else greedy


def clause3_by_search(ctx, x_ids, y_ids, n: int, c_idx: int, dual: bool) -> bool:
    """Whether some conflation of the bounded search, with end the object
    and middle in add(X), has its other end within Y-(co)resolution
    dimension n-1."""
    candidates = conflation_candidates(ctx, x_ids, ctx.objects[c_idx].rep, dual)
    return any(checkers.within(resdim_by_search(ctx, y_ids, k, n - 1, dual), n - 1) for k in candidates)


def cotorsion_by_search(ctx, x_ids, y_ids, n: int) -> bool:
    """Whether (X, Y) passed the n-cotorsion check as `--exhaustive` ran it:
    both orthogonality clauses, then for each object outside the
    approximating class the canonical step with `resdim_by_search`, or else
    `clause3_by_search`.  A pass names actual conflations; a failure may be
    the search's bound."""
    x_ids = frozenset(int(i) for i in x_ids)
    y_ids = frozenset(int(i) for i in y_ids)
    if any(ctx.e_k_dim(k, x, y) for x in x_ids for y in y_ids for k in range(1, n + 1)):
        return False
    for dual in (False, True):
        approx_ids, res_ids = (y_ids, x_ids) if dual else (x_ids, y_ids)
        for c_idx in set(range(ctx.n_objects)) - approx_ids:
            step = checkers._greedy_step(ctx, approx_ids, c_idx, dual)
            if step is not None and checkers.within(resdim_by_search(ctx, res_ids, step, n - 1, dual), n - 1):
                continue
            if not clause3_by_search(ctx, approx_ids, res_ids, n, c_idx, dual):
                return False
    return True


def suspension(m: Representation) -> Representation:
    """Cosyzygy, the cokernel of the injective hull; projective-free by
    Heller's lemma and quasi-inverse to loop on projective-free objects."""
    require_self_injective(m.algebra)
    return cosyzygy(m)


def loop(m: Representation) -> Representation:
    """Syzygy, the kernel of the projective cover; projective-free by
    Heller's lemma."""
    require_self_injective(m.algebra)
    return syzygy(m)


def cocone_by_cone_and_loop(ctx, y) -> Counter:
    """Ids of the cocone of y in a triangulated context: Omega of cone(y)."""
    cone_raw = cone(y)
    return ctx.identify_sum(loop(cone_raw) if cone_raw.total_dim else cone_raw)


def stable_realize_by_cone(c_rep: Representation, a_rep: Representation, coords, seed: int = 0):
    """(B, x: A -> B, y: B -> C) for the class with the given coordinates in
    stable Hom(Omega C, A): B is the cone of the representative t, x the map
    from A into it, and y its connecting map B -> Sigma Omega C followed by
    an isomorphism onto C."""
    t = StableHomSpace(loop(c_rep), a_rep).representative(coords)
    p = t.p
    m, n = t.source, t.target
    hull, mono = injective_hull(m)
    sigma, sigma_proj = cokernel(mono)
    pair = [hull, n]
    total = direct_sum(pair)
    (incl_hull, incl_n), (proj_hull, _) = summand_maps(total, pair), summand_maps(total, pair, dual=True)
    b, cone_proj = cokernel(linear_combination([incl_hull.compose(mono), incl_n.compose(t)], (1, 1)))
    onto_sigma = sigma_proj.compose(proj_hull)
    blocks = []
    for v in range(len(cone_proj.blocks)):
        sol = linalg.solve(cone_proj.blocks[v].T, onto_sigma.blocks[v].T, p)
        assert sol is not None, "cone connecting map is not well defined"
        blocks.append(sol.T)
    connecting = ModuleMap(b, sigma, blocks, validate=False)
    iso = _stable_iso(sigma, c_rep, seed)
    assert iso is not None, "suspension of the syzygy is not the object back"
    return b, cone_proj.compose(incl_n), iso.compose(connecting)


def _random_invertible_combo(maps: list[ModuleMap], rng, p: int, tries: int) -> ModuleMap | None:
    """The first of `tries` random nonzero combinations of maps that is an
    isomorphism, or None."""
    for _ in range(tries):
        coeffs = [rng.randrange(p) for _ in maps]
        if any(coeffs):
            combo = linear_combination(maps, coeffs)
            if combo.is_iso():
                return combo
    return None


def _stable_iso(a: Representation, b: Representation, seed: int) -> ModuleMap | None:
    """An isomorphism a -> b by a seeded random search over Hom(a, b), then
    by walking every combination when there are few."""
    maps = hom_basis(a, b)
    if not maps:
        return None
    p = a.algebra.p
    combo = _random_invertible_combo(maps, linalg.stable_rng(seed, 4, a.dims, b.dims), p, 64)
    if combo is None and p ** len(maps) <= 4096:
        combo = next((f for f in nonzero_combinations(maps) if f.is_iso()), None)
    return combo


def splitting_idempotent_by_sympy(minpoly: list[int], p: int):
    """If the minimal polynomial has >= 2 coprime factors, return a polynomial
    g with g(z) idempotent and nontrivial; else None."""
    x = sympy.symbols("x")
    f = sympy.Poly(list(reversed([c % p for c in minpoly])), x, modulus=p)
    _, factors = f.factor_list()
    if len(factors) < 2:
        return None
    f1, e1 = factors[0]
    part1 = sympy.Poly(f1**e1, x, modulus=p)
    rest = sympy.Poly(1, x, modulus=p)
    for fi, ei in factors[1:]:
        rest = sympy.Poly(rest * fi**ei, x, modulus=p)
    u, v, g = sympy.gcdex(part1.as_expr(), rest.as_expr(), x, modulus=p)
    # u*part1 + v*rest = 1; e := v*rest is 1 mod part1 and 0 mod rest
    e_poly = sympy.Poly(sympy.expand(v * rest.as_expr()), x, modulus=p)
    return list(reversed([int(c) % p for c in e_poly.all_coeffs()]))


def enumerate_by_ext_closure(algebra) -> list[Representation]:
    """Every indecomposable of mod L, sorted by (total_dim, dims,
    fingerprint): the simples, projectives and injectives closed under
    syzygy, cosyzygy and the middle terms of every nonzero class of every
    Ext^1 pair of the list, until a sweep adds nothing."""
    pool: list[Representation] = []

    def register(rep):
        for piece in summand_split(rep):
            if not any(fingerprint(k) == fingerprint(piece) and indecomposable_isomorphic(k, piece)
                       for k in pool):
                pool.append(piece)

    for v in algebra.quiver.vertex_ids:
        for rep in (simple_module(algebra, v), projective_module(algebra, v),
                    injective_module(algebra, v)):
            register(rep)
    done: set[tuple[int, int]] = set()
    shifted = 0
    while True:
        count = len(pool)
        while shifted < len(pool):
            for out in (syzygy(pool[shifted]), cosyzygy(pool[shifted])):
                if out.total_dim:
                    register(out)
            shifted += 1
        for ci, ai in itertools.product(range(len(pool)), repeat=2):
            if (ci, ai) in done:
                continue
            done.add((ci, ai))
            d = ext_dim(1, pool[ci], pool[ai])
            if d:
                space = ExactExtSpace(pool[ci], pool[ai])
                for coords in itertools.product(range(algebra.p), repeat=d):
                    if any(coords):
                        register(space.realize(coords)[0])
        if len(pool) == count and shifted == len(pool):
            return sorted(pool, key=lambda r: (r.total_dim, r.dims, fingerprint(r)))


def subset_masks(ctx, forced: frozenset[int]):
    """All subsets containing the forced set, by size then lexicographically."""
    free = sorted(set(range(ctx.n_objects)) - forced)
    base = frozenset(forced)
    for size in range(len(free) + 1):
        for combo in itertools.combinations(free, size):
            yield base | frozenset(combo)


def _orth_bitmasks_per_degree(ctx, k_max: int):
    """bit i of right[k][j] set iff E^k(j, i) = 0; left dual."""
    n = ctx.n_objects
    right = {}
    left = {}
    for k in range(1, k_max + 1):
        table = ctx.e_k_table(k)
        right[k] = [0] * n
        left[k] = [0] * n
        for j in range(n):
            rmask = 0
            lmask = 0
            for i in range(n):
                if table[j][i] == 0:
                    rmask |= 1 << i
                if table[i][j] == 0:
                    lmask |= 1 << i
            right[k][j] = rmask
            left[k][j] = lmask
    return right, left


def cluster_tilting_by_subset_walk(ctx, n: int) -> list:
    """Every superset X of the forced set with X^perp = X = perp X, checked
    by `check_cluster_tilting`, sorted as the enumerator sorts its hits."""
    forced = frozenset(ctx.projective_ids | ctx.injective_ids)
    right, left = _orth_bitmasks_per_degree(ctx, n - 1)
    full = (1 << ctx.n_objects) - 1
    hits = []
    for subset in subset_masks(ctx, forced):
        mask = 0
        for i in subset:
            mask |= 1 << i
        rset = full
        lset = full
        for j in subset:
            for k in range(1, n):
                rset &= right[k][j]
                lset &= left[k][j]
        if rset == mask and lset == mask:
            assert checkers.check_cluster_tilting(ctx, subset, n).passed
            hits.append(checkers.Subcat.of(ctx, subset))
    hits.sort(key=lambda s: (len(s.ids), s.names()))
    return hits


def rigid_supersets_by_subset_walk(ctx, n: int) -> list[frozenset[int]]:
    """The supersets of the forced set with E^k(X, X) = 0 for k <= n, in
    walk order: the sets the cotorsion enumerator checks, in its order."""
    forced = frozenset(ctx.projective_ids | ctx.injective_ids)
    right, _ = _orth_bitmasks_per_degree(ctx, n)
    out = []
    for subset in subset_masks(ctx, forced):
        mask = 0
        for i in subset:
            mask |= 1 << i
        ok = True
        for j in subset:
            acc = (1 << ctx.n_objects) - 1
            for k in range(1, n + 1):
                acc &= right[k][j]
            if mask & ~acc:
                ok = False
                break
        if ok:
            out.append(subset)
    return out


def cotorsion_diagonal_by_subset_walk(ctx, n: int) -> list:
    """Every rigid superset X of the forced set with (X, X) n-cotorsion."""
    hits = [checkers.Subcat.of(ctx, subset) for subset in rigid_supersets_by_subset_walk(ctx, n)
            if checkers.check_n_cotorsion(ctx, subset, subset, n).passed]
    hits.sort(key=lambda s: (len(s.ids), s.names()))
    return hits


def all_class_coords(ctx, c_idx: int, a_idx: int, include_zero: bool = False):
    """Every class of E(c, a), in lexicographic order."""
    for coords in itertools.product(range(ctx.algebra.p), repeat=ctx.e_dim(c_idx, a_idx)):
        if include_zero or any(coords):
            yield coords


def extension_closed_by_all_classes(parent, subset_ids):
    """(ok, witness), realizing every nonzero class of every pair."""
    subset = sorted(set(subset_ids))
    inside = set(subset)
    for c in subset:
        for a in subset:
            for coords in all_class_coords(parent, c, a):
                middle = parent.realize(c, a, coords)
                if any(i not in inside for i in middle):
                    outside = [parent.object_names[i] for i in middle if i not in inside]
                    return False, {
                        "c": parent.object_names[c],
                        "a": parent.object_names[a],
                        "delta": list(coords),
                        "middle": outside,
                    }
    return True, None


def cokernel_by_unit_vectors(f):
    """(coker, projection): each column of the projection is a unit vector
    reduced modulo the image, each arrow action solved on a section."""
    p = f.p
    rep = f.target
    q = rep.algebra.quiver
    projections = []
    dims = []
    for v in range(q.n_vertices):
        quot = linalg.QuotientSpace(rep.dims[v], f.blocks[v], p)
        dims.append(quot.dim)
        # column c of the projection is the unit vector e_c reduced
        cols = tuple(quot.to_coords(e) for e in linalg.eye(rep.dims[v]).rows)
        projections.append(linalg.from_columns(cols, quot.dim))
    mats = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        rhs = linalg.matmul(projections[t], rep.matrices[a], p)
        sol = linalg.solve(projections[s].T, rhs.T, p)
        if sol is None:
            raise ValueError("cokernel action is not well defined")
        mats.append(sol.T)
    coker = Representation(rep.algebra, tuple(dims), mats)
    return coker, ModuleMap(rep, coker, projections)


def canonical_modules_by_validation(algebra) -> list[tuple[Representation, Representation, Representation]]:
    """(P_v, S_v, I_v) for each vertex v, in vertex order, each matrix set
    entry by entry and handed to the validating constructor, which reduces
    it mod p and checks every relation.  P_v has the basis paths from v,
    grouped by target, and the arrow a sends the path b to the normal form
    of the path b a (`reduce_path`); S_v is one-dimensional at v; I_v is the
    dual of the P_v of the opposite algebra, its matrices transposed."""
    def projective(alg, v):
        q, by_target = alg.quiver, alg.basis_by_target(v)
        mats = []
        for a in range(q.n_arrows):
            s, t = q.arrow_source[a], q.arrow_target[a]
            m = np.zeros((len(by_target[t]), len(by_target[s])), dtype=np.int64)
            for col, b in enumerate(by_target[s]):
                for w, c in alg.reduce_path((b[0], b[1] + (a,))).items():
                    m[by_target[t].index(w), col] = c
            mats.append(m)
        return Representation(alg, [len(paths) for paths in by_target], mats)

    q = algebra.quiver
    out = []
    for v in range(q.n_vertices):
        dims = [int(u == v) for u in range(q.n_vertices)]
        simple = Representation(algebra, dims, [np.zeros((dims[t], dims[s]), dtype=np.int64)
                                                for s, t in zip(q.arrow_source, q.arrow_target)])
        p_op = projective(algebra.opposite(), v)
        injective = Representation(algebra, p_op.dims, [as_array(m).T for m in p_op.matrices])
        out.append((projective(algebra, v), simple, injective))
    return out


def map_from_projectives_by_path_matrices(m: Representation, gens) -> tuple[Representation, ModuleMap]:
    """(P, f) with one P_v per (vertex v, column gen of m_v) pair, in order,
    and f sending the basis path q of that summand to path_matrix(q) @ gen."""
    alg = m.algebra
    total = direct_sum([projective_module(alg, alg.quiver.vertex_ids[v]) for v, _ in gens])
    cols = [[] for _ in m.dims]
    for v, gen in gens:
        for w, paths in enumerate(alg.basis_by_target(v)):
            cols[w] += [linalg.matmul(m.path_matrix(q), gen, alg.p) for q in paths]
    blocks = [linalg.hstack(c) if c else linalg.zeros(d, 0) for c, d in zip(cols, m.dims)]
    return total, ModuleMap(total, m, blocks)


def direct_sum_by_entries(reps):
    """(total, inclusions, projections), the maps set entry by entry."""
    alg = reps[0].algebra
    q = alg.quiver
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(q.n_vertices))
    mats = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        m = np.zeros((dims[t], dims[s]), dtype=np.int64)
        ro = co = 0
        for r in reps:
            m[ro : ro + r.dims[t], co : co + r.dims[s]] = as_array(r.matrices[a])
            ro += r.dims[t]
            co += r.dims[s]
        mats.append(m)
    total = Representation(alg, dims, mats)
    inclusions = []
    projections = []
    offsets = [0] * q.n_vertices
    for r in reps:
        inc_blocks = []
        prj_blocks = []
        for v in range(q.n_vertices):
            inc = np.zeros((dims[v], r.dims[v]), dtype=np.int64)
            prj = np.zeros((r.dims[v], dims[v]), dtype=np.int64)
            for k in range(r.dims[v]):
                inc[offsets[v] + k, k] = 1
                prj[k, offsets[v] + k] = 1
            inc_blocks.append(inc)
            prj_blocks.append(prj)
        inclusions.append(ModuleMap(r, total, inc_blocks))
        projections.append(ModuleMap(total, r, prj_blocks))
        for v in range(q.n_vertices):
            offsets[v] += r.dims[v]
    return total, inclusions, projections


def approximation_by_adds(members, c: Representation, dual: bool = False, extra=None):
    """The right (with `dual`, left) approximation of c by add(members),
    with `extra` as one more summand, summed one map at a time."""
    summands = [(x, f) for x in members for f in (hom_basis(c, x) if dual else hom_basis(x, c))]
    if extra is not None:
        summands.append((extra.target if dual else extra.source, extra))
    if not summands:
        z = zero_representation(c.algebra)
        return zero_map(c, z) if dual else zero_map(z, c)
    reps = [x for x, _ in summands]
    total = direct_sum(reps)
    incls, projs = summand_maps(total, reps), summand_maps(total, reps, dual=True)
    h = zero_map(c, total) if dual else zero_map(total, c)
    for (_, f), incl, proj in zip(summands, incls, projs):
        h = linear_combination([h, incl.compose(f) if dual else f.compose(proj)], (1, 1))
    return h


def integer_inverse_by_fractions(h: list[list[int]]) -> tuple[list[list[int]], int]:
    """(K, D) with K / D the inverse of h, by Gauss-Jordan elimination over
    the rationals; raises ContextError if h is singular."""
    n = len(h)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(n)]
            for i, row in enumerate(h)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            raise ContextError("singular matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    inverse = [row[n:] for row in rows]
    denominator = math.lcm(1, *(x.denominator for row in inverse for x in row))
    return [[int(x * denominator) for x in row] for row in inverse], denominator


def hom_matrix_by_systems(reps: list[Representation]) -> list[list[int]]:
    """H[j][i] = dim Hom(X_j, X_i), one intertwining system per pair."""
    return [[hom_dim(x, y) for y in reps] for x in reps]


def ext_table_by_pairs(reps: list[Representation]) -> list[list[int]]:
    """dim Ext^1(C, A) by `homology.ext_dim` for every pair."""
    return [[ext_dim(1, c, a) for a in reps] for c in reps]


def strip_by_splitting(m: Representation, seed: int = 0) -> Representation:
    """The sum of the summands of m that are not projective, by splitting."""
    if m.total_dim == 0:
        return m
    kept = [piece for piece in summand_split(m, seed) if not is_end(piece)]
    return direct_sum(kept) if kept else zero_representation(m.algebra)


def labels_by_search(ctx) -> list[tuple[str, tuple[str, ...]]]:
    """(label, aliases) per object: P<v>, I<v> and S<v> for every vertex v in
    order whose module is isomorphic to the object, else label m<k>."""
    algebra = ctx.algebra
    named = []
    for v in algebra.quiver.vertex_ids:
        named.append((f"P{v}", projective_module(algebra, v)))
        named.append((f"I{v}", injective_module(algebra, v)))
        named.append((f"S{v}", simple_module(algebra, v)))
    out = []
    for o in ctx.objects:
        aliases = tuple(name for name, rep in named
                        if rep.dims == o.rep.dims and indecomposable_isomorphic(o.rep, rep))
        out.append((aliases[0] if aliases else f"m{o.index}", aliases))
    return out


def middle_terms_by_splitting(reps: list[Representation], config) -> dict[int, Counter]:
    """E_Z by index into reps, every indecomposable once, for each
    non-projective Z: the middle term of the realized almost split sequence
    0 -> tau Z -> E_Z -> Z -> 0, split, each piece matched by isomorphism."""
    def identify(piece):
        matches = [j for j, x in enumerate(reps) if indecomposable_isomorphic(x, piece)]
        if len(matches) != 1:
            raise AssertionError(f"summand {piece.dims} matches modules {matches}")
        return matches[0]

    out = {}
    for z, rep in enumerate(reps):
        if not is_end_by_search(rep):
            middle = _almost_split_middle(rep, ar_translate(rep))
            out[z] = Counter(identify(piece) for piece in summand_split(middle, config.seed))
    return out


def twist_images_by_fingerprint(algebra, reps: list[Representation], sigma) -> list[int | None]:
    """Where twisting along the vertex automorphism sigma sends each of the
    indecomposables reps: the index of the one with the twist's fingerprint,
    or None."""
    arrows = induced_arrows(algebra.quiver, sigma)
    by_fp = {fingerprint(r): i for i, r in enumerate(reps)}
    return [by_fp.get(fingerprint(twist(r, sigma, arrows))) for r in reps]


def automorphism_images_by_fingerprint(algebra, reps: list[Representation]) -> list[list[int | None]]:
    """`twist_images_by_fingerprint` for each vertex automorphism, the
    identity first.  Twisting along tau and then rho is twisting along
    rho o tau, so an automorphism that is such a composite of two already
    placed gets the composite of their images; only the others are looked
    up."""
    autos = [tuple(sigma) for sigma in vertex_automorphisms(algebra)]
    placed = {autos[0]: list(range(len(reps)))}
    for sigma in autos[1:]:
        images = None
        for tau, tau_images in placed.items():
            rho = tuple(sigma[u] for u in sorted(range(len(tau)), key=tau.__getitem__))
            if rho in placed:
                images = [placed[rho][i] for i in tau_images]
                break
        if images is None:
            images = twist_images_by_fingerprint(algebra, reps, sigma)
        placed[sigma] = images
    return list(placed.values())


def is_isomorphic(m: Representation, n: Representation, seed: int = 0) -> bool:
    if m.algebra is not n.algebra:
        raise ValueError("representations live over different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    p = m.algebra.p
    maps = hom_basis(m, n)
    back = hom_basis(n, m)
    if len(maps) != len(back) or not maps:
        return False
    rng = linalg.stable_rng(seed, 3, m.dims)
    if _random_invertible_combo(maps, rng, p, 24) is not None:
        return True
    left = summand_split(m, seed)
    right = summand_split(n, seed)
    if len(left) != len(right):
        return False
    used = [False] * len(right)
    for piece in left:
        for j, other in enumerate(right):
            if not used[j] and indecomposable_isomorphic(piece, other):
                used[j] = True
                break
        else:
            return False
    return True


def decompose(m: Representation, seed: int = 0) -> list[tuple[Representation, int]]:
    """Non-isomorphic indecomposable summands with multiplicities."""
    groups: list[tuple[Representation, int]] = []
    for piece in summand_split(m, seed):
        for i, (rep, mult) in enumerate(groups):
            if indecomposable_isomorphic(rep, piece):
                groups[i] = (rep, mult + 1)
                break
        else:
            groups.append((piece, 1))
    groups.sort(key=lambda t: (t[0].dims, fingerprint(t[0])))
    return groups


class StableHomSpace(HomQuotient):
    """Hom(m, n) modulo maps factoring through projectives, with coordinates;
    over a self-injective algebra these are the maps factoring through the
    injective hull of m."""

    def __init__(self, m: Representation, n: Representation):
        require_self_injective(m.algebra)
        super().__init__(injective_hull(m)[1], n)


def stable_hom_dim(m: Representation, n: Representation) -> int:
    return StableHomSpace(m, n).dim


def class_of(space: HomQuotient, f: ModuleMap) -> tuple:
    """Coordinates of the class of f: space.m -> space.n."""
    if not space.basis:
        return ()
    return space.quot.to_coords(space._basis_coords(f))


def image(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Image as a subrepresentation of the target; returns (im, inclusion)."""
    p = f.p
    bases = [linalg.column_space_basis(b, p) for b in f.blocks]
    return _subspace_with_induced_action(f.target, bases)


@dataclass
class Conflation:
    """A -> B -> C with the class coordinates.  The maps x: A -> B and
    y: B -> C are formed on first use, from the projection of P0 + A onto B
    that realized the class."""

    ctx: Context
    a_idx: int
    c_idx: int
    delta: tuple[int, ...]
    a_rep: Representation
    b_rep: Representation
    c_rep: Representation
    b_ids: Counter
    space: ExactExtSpace = field(repr=False)
    onto_b: ModuleMap = field(repr=False)

    @cached_property
    def maps(self) -> tuple[ModuleMap, ModuleMap]:
        """(x, y), formed on first use."""
        return ext_space_maps(self.space, self.onto_b)

    x = property(lambda self: self.maps[0])
    y = property(lambda self: self.maps[1])

    def describe(self) -> str:
        names = self.ctx.object_names
        mid = "+".join(
            names[i] if m == 1 else f"{m}*{names[i]}"
            for i, m in sorted(self.b_ids.items())
        ) or "0"
        return (
            f"{names[self.a_idx]} -> {mid} -> {names[self.c_idx]} "
            f"(delta={list(self.delta)})"
        )


def conflation(ctx: Context, c_idx: int, a_idx: int, coords) -> Conflation:
    """The conflation realizing the class of E(c, a) with the given
    coordinates, with the middle term's ids that `Context.realize` names."""
    space = ctx.ext_space(c_idx, a_idx)
    b, onto_b = space.realize(coords)
    delta = tuple(int(v) for v in coords)
    return Conflation(ctx, a_idx, c_idx, delta, ctx.objects[a_idx].rep, b, ctx.objects[c_idx].rep,
                      ctx.realize(c_idx, a_idx, delta), space, onto_b)


def ext_space_maps(space: ExactExtSpace, onto_b: ModuleMap) -> tuple[ModuleMap, ModuleMap]:
    """x: A -> B and y: B -> C of the conflation `ExactExtSpace.realize`
    returned with the projection onto_b: P0 + A -> B."""
    cover = minimal_resolution(space.c).diffs[0]
    pair = [space.p0, space.a]
    total = direct_sum(pair)
    (_, incl_a), (proj_p0, _) = summand_maps(total, pair), summand_maps(total, pair, dual=True)
    return onto_b.compose(incl_a), _factor_through_projection(onto_b, cover.compose(proj_p0))


def _factor_through_projection(proj: ModuleMap, through: ModuleMap) -> ModuleMap:
    """g with g o proj = through (proj a vertex-wise surjection)."""
    p = proj.p
    blocks = []
    for v in range(len(proj.blocks)):
        sol = linalg.solve(proj.blocks[v].T, through.blocks[v].T, p)
        if sol is None:
            raise ContextError("map does not factor through the projection")
        blocks.append(sol.T)
    return ModuleMap(proj.target, through.target, blocks, validate=False)


def _subspaces(d: int, p: int, min_dim: int):
    """Every subspace of F_p^d of dimension at least min_dim, once each, as
    the columns of its reduced echelon basis."""
    for k in range(min_dim, d + 1):
        for pivots in itertools.combinations(range(d), k):
            free = [(i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, d) if c not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = np.zeros((k, d), dtype=np.int64)
                rows[range(k), pivots] = 1
                for (i, c), v in zip(free, values):
                    rows[i, c] = v
                yield linalg.normalize(rows.T, p)


def is_subquotient_by_submodules(m: Representation, n: Representation) -> bool:
    """Whether m is a quotient of a submodule of n: some arrow-invariant
    tuple of vertex subspaces of n, at least as large as m at each vertex,
    has a nonzero map onto m."""
    p = n.algebra.p
    for bases in itertools.product(*(_subspaces(d, p, e) for d, e in zip(n.dims, m.dims))):
        try:
            sub, _ = _subspace_with_induced_action(n, list(bases))
        except ValueError:  # not arrow-invariant
            continue
        if any(f.is_epi() for f in nonzero_combinations(hom_basis(sub, m))):
            return True
    return False


def cluster_tilting_by_combinations(ctx, size: int, n: int) -> list[list[str]]:
    """The n-cluster-tilting sets of the given size, as sorted names, in
    lexicographic order of their ids outside the projectives and
    injectives."""
    forced = ctx.projective_ids | ctx.injective_ids
    free = [i for i in range(ctx.n_objects) if i not in forced]
    return [sorted(ctx.object_names[i] for i in forced | set(extra))
            for extra in itertools.combinations(free, size - len(forced))
            if checkers.check_cluster_tilting(ctx, forced | set(extra), n).passed]
