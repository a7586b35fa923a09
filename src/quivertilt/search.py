"""Exploratory search for cluster-tilting subcategories of extension-closed
subcategories of a stable Nakayama context.

Candidate subcategories come from two sources: complements of subquotient
cones of single objects (a structured family that captures wedge-shaped
deletions from the AR quiver), and seeded random generator sets closed under
extensions and optionally syzygy/cosyzygy.  Subquotients are read off each
module's top vertex and length, since every indecomposable over a Nakayama
algebra is uniserial.  Every candidate is checked for extension closure;
inside each surviving sub-context `checkers.enumerate_cluster_tilting` lists
the cluster-tilting subcategories, within `subset_budget`, and those of the
requested size are the hits, in the order of their sorted object ids.  Every
hit is cross-checked with the full theorem verifier.
"""

from __future__ import annotations

from . import linalg
from .algebra import nakayama_cyclic
from .checkers import check_cluster_tilting, check_n_cotorsion, enumerate_cluster_tilting, verify_theorem
from .contexts import (
    Context,
    ContextError,
    RunConfig,
    build_stable_context,
    build_sub_context,
    is_extension_closed,
)
from .modules import Representation, top_dims


def is_subquotient(m: Representation, n: Representation) -> bool:
    """True iff the indecomposable m is a quotient of a submodule of the
    indecomposable n, over a cyclic Nakayama algebra.  There every
    indecomposable is uniserial, fixed by its top vertex t and its length l,
    and the subquotients of n are the rad^a n / rad^(a+l) n, whose top is a
    steps along the arrows from t_n.  So m is one iff l_m <= l_n and
    (t_m - t_n) mod |Q_0| <= l_n - l_m."""
    t_m, t_n = top_dims(m).index(1), top_dims(n).index(1)
    l_m, l_n = m.total_dim, n.total_dim
    return l_m <= l_n and (t_m - t_n) % len(n.dims) <= l_n - l_m


def _structured_candidates(ctx: Context) -> list[frozenset[int]]:
    """Complements of subquotient cones {M : M sub of Z} and co-cones
    {M : Z sub of M}, for each object Z."""
    out = []
    n = ctx.n_objects
    table = [[is_subquotient(a.rep, b.rep) for b in ctx.objects] for a in ctx.objects]
    for z in range(n):
        cone = frozenset(i for i in range(n) if table[i][z])
        cocone = frozenset(i for i in range(n) if table[z][i])
        for cut in (cone, cocone):
            comp = frozenset(range(n)) - cut
            if comp and comp != frozenset(range(n)):
                out.append(comp)
    return out


def close_under_operations(ctx: Context, seed_ids, close_loops: bool = True) -> frozenset[int]:
    """Closure of a generator set under extensions (and loop/suspension when
    requested).  Each pass adds an object or returns, so there are at most
    as many passes as objects."""
    current = set(int(i) for i in seed_ids)
    while True:
        added = False
        if close_loops:
            for i in list(current):
                for j in set(ctx.shift(1, i)) | set(ctx.shift(1, i, dual=True)):
                    if j not in current:
                        current.add(j)
                        added = True
        for c in sorted(current):
            for a in sorted(current):
                for coords in ctx.class_lines(c, a):
                    for j in ctx.realize(c, a, coords):
                        if j not in current:
                            current.add(j)
                            added = True
        if not added:
            return frozenset(current)
        if len(current) >= ctx.n_objects:
            return frozenset(range(ctx.n_objects))


def search_nakayama_stable(
    n_vertices: int,
    nilpotency: int,
    ct_size: int,
    ct_degree: int,
    config: RunConfig | None = None,
    generator_samples: int = 20,
    close_loops: bool = True,
    max_candidates: int = 64,
    verify_hits: bool = True,
) -> dict:
    """Search extension-closed sub-contexts of the stable Nakayama context for
    cluster-tilting subcategories of the requested size and degree."""
    if ct_degree < 2:
        raise ContextError("cluster-tilting degree must be >= 2")
    if ct_size < 1:
        raise ContextError("cluster-tilting size must be >= 1")
    if generator_samples < 0:
        raise ContextError("generator samples must be >= 0")
    if max_candidates < 0:
        raise ContextError("max candidates must be >= 0")
    config = config or RunConfig()
    algebra = nakayama_cyclic(n_vertices, nilpotency, config.field_char)
    parent = build_stable_context(algebra, config)
    report: dict = {
        "parent_objects": parent.n_objects,
        "ct_size": ct_size,
        "ct_degree": ct_degree,
        "candidates_examined": 0,
        "candidates_skipped": [],
        "hits": [],
    }
    candidates: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()

    def push(subset):
        subset = frozenset(subset)
        if subset and subset not in seen:
            seen.add(subset)
            candidates.append(subset)

    for comp in _structured_candidates(parent):
        ok, _ = is_extension_closed(parent, comp)
        if ok:
            push(comp)
    rng = linalg.stable_rng(config.seed, 7, n_vertices, nilpotency)
    for _ in range(generator_samples):
        size = rng.randrange(2, max(3, parent.n_objects // 3))
        gens = rng.sample(range(parent.n_objects), min(size, parent.n_objects))
        push(close_under_operations(parent, gens, close_loops=close_loops))
    push(frozenset(range(parent.n_objects)))

    for subset in candidates[:max_candidates]:
        report["candidates_examined"] += 1
        try:
            sub = (
                build_sub_context(parent, sorted(subset), config)
                if subset != frozenset(range(parent.n_objects))
                else parent
            )
            enough = sub.enough()[0] and sub.enough(dual=True)[0]
        except ContextError as exc:
            report["candidates_skipped"].append(
                {"subset_size": len(subset), "reason": str(exc)}
            )
            continue
        if not enough:
            report["candidates_skipped"].append(
                {"subset_size": len(subset), "reason": "not enough projectives/injectives"}
            )
            continue
        n_forced = len(sub.projective_ids | sub.injective_ids)
        if n_forced > ct_size:
            report["candidates_skipped"].append({
                "subset_size": len(subset),
                "reason": f"{n_forced} projectives and injectives, more than --ct-size {ct_size}",
            })
            continue
        try:
            tilting = [s.ids for s in enumerate_cluster_tilting(sub, ct_degree) if len(s.ids) == ct_size]
            # one verify_theorem report per sub-context with hits, shared by them
            theorem = verify_theorem(sub, ct_degree - 1) if verify_hits and tilting else None
        except ContextError as exc:
            report["candidates_skipped"].append({"subset_size": len(subset), "reason": str(exc)})
            continue
        for x_ids in sorted(tilting, key=sorted):
            verdict = check_cluster_tilting(sub, x_ids, ct_degree)
            cot = check_n_cotorsion(sub, x_ids, x_ids, ct_degree - 1)
            hit = {
                "context_objects": sorted(parent.object_names[i] for i in subset),
                "context_size": len(subset),
                "tilting_objects": sorted(sub.object_names[i] for i in x_ids),
                "cluster_tilting_verdict": verdict.to_dict(),
                "diagonal_cotorsion_verdict": cot.to_dict(),
            }
            if verify_hits:
                hit["theorem_report"] = theorem
                hit["theorem_concurs"] = bool(
                    theorem["sets_equal"]
                    and sorted(sub.object_names[i] for i in x_ids)
                    in theorem["cluster_tilting"]
                )
            report["hits"].append(hit)
    report["hit_count"] = len(report["hits"])
    return report
