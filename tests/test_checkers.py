import inspect
import itertools
import re
from collections import Counter

import pytest

from quivertilt import checkers, cli, linalg
from quivertilt.algebra import nakayama_cyclic, parse_algebra
from quivertilt.checkers import (
    EXCEEDS,
    _greedy_step,
    check_cluster_tilting,
    check_n_cotorsion,
    check_n_cotorsion_side,
    enumerate_cluster_tilting,
    enumerate_cotorsion_diagonal,
    _approximation_clause,
    orthogonal,
    resdim,
    verify_theorem,
    within,
)
from quivertilt.contexts import (
    ContextError,
    build_exact_context,
    build_stable_context,
    build_sub_context,
    is_extension_closed,
)
from quivertilt.homology import injective_hull, projective_cover
import oracle
from oracle import (
    cluster_tilting_by_subset_walk,
    cotorsion_by_search,
    cotorsion_diagonal_by_subset_walk,
    greedy_step_by_full_approximation,
    resdim_by_search,
)


# The paper's auxiliary statements, checked here against the main checkers.


def wedge(ctx, y_ids, m: int, dual: bool = False) -> frozenset[int]:
    """Objects of resolution dimension <= m with respect to add(Y); with
    `dual`, of coresolution dimension <= m (the vee class)."""
    y_ids = frozenset(int(i) for i in y_ids)
    return frozenset(
        i for i in range(ctx.n_objects) if within(resdim(ctx, y_ids, i, m, dual), m)
    )


def verify_orthogonal_containment(ctx, x_ids, n: int) -> tuple[bool, dict]:
    """The intersection of the first n left orthogonals of X is contained in
    the first left orthogonal of the class of objects of X-resolution
    dimension <= n-1."""
    x_ids = frozenset(int(i) for i in x_ids)
    lhs = orthogonal(ctx, x_ids, n, dual=True)
    wedge_set = wedge(ctx, x_ids, n - 1)
    rhs = orthogonal(ctx, wedge_set, 1, dual=True) if wedge_set else frozenset(range(ctx.n_objects))
    ok = lhs <= rhs
    detail = {
        "lhs": sorted(ctx.object_names[i] for i in lhs),
        "rhs": sorted(ctx.object_names[i] for i in rhs),
        "wedge": sorted(ctx.object_names[i] for i in wedge_set),
    }
    if not ok:
        detail["witness"] = sorted(ctx.object_names[i] for i in lhs - rhs)
    return ok, detail


def verify_left_pair_characterization(ctx, x_ids, y_ids, n: int) -> tuple[bool, dict]:
    """The left cotorsion checker agrees with the reformulation: X equals the
    intersection of the first n left orthogonals of Y, together with the
    approximation-conflation clause."""
    x_ids = frozenset(int(i) for i in x_ids)
    y_ids = frozenset(int(i) for i in y_ids)
    checker = check_n_cotorsion_side(ctx, x_ids, y_ids, n).passed
    orth = orthogonal(ctx, y_ids, n, dual=True)
    clause3 = _approximation_clause(ctx, x_ids, y_ids, n, dual=False)[0]
    reformulated = (x_ids == orth) and clause3
    return checker == reformulated, {
        "checker": checker,
        "orthogonal_equality": x_ids == orth,
        "clause3": clause3,
    }


def test_orthogonal_examples(exact_contexts):
    ctx = exact_contexts["a2"]
    s1 = ctx.resolve_name("S1")
    s2 = ctx.resolve_name("S2")
    assert orthogonal(ctx, [], 1) == frozenset(range(3))
    right = orthogonal(ctx, [s1], 1)
    assert right == frozenset(range(3)) - {s2}
    assert orthogonal(ctx, ctx.projective_ids, 3) == frozenset(range(3))


def test_resdim_examples(exact_contexts):
    ctx = exact_contexts["a2"]
    projs = sorted(ctx.projective_ids)
    s1 = ctx.resolve_name("S1")
    assert resdim(ctx, projs, s1, 3) == 1
    assert resdim(ctx, projs, projs[0], 3) == 0
    ctx3 = exact_contexts["a3_rad2"]
    assert resdim(ctx3, sorted(ctx3.projective_ids), ctx3.resolve_name("I1"), 4) == 2
    ctxd = exact_contexts["dual_numbers"]
    lam = ctxd.resolve_name("P1")
    s = ctxd.resolve_name("S1")
    assert resdim(ctxd, [lam], s, 5) is EXCEEDS
    assert resdim_by_search(ctxd, [lam], s, 5) is EXCEEDS


def test_coresdim_dual_examples(exact_contexts):
    ctx = exact_contexts["a2"]
    injs = sorted(ctx.injective_ids)
    s2 = ctx.resolve_name("S2")
    assert resdim(ctx, injs, s2, 3, dual=True) == 1
    assert wedge(ctx, injs, 1, dual=True) == frozenset(range(3))


def test_wedge_examples(exact_contexts):
    ctx = exact_contexts["a2"]
    projs = sorted(ctx.projective_ids)
    assert wedge(ctx, projs, 0) == frozenset(projs)
    assert wedge(ctx, projs, 1) == frozenset(range(3))
    ctxd = exact_contexts["dual_numbers"]
    lam = ctxd.resolve_name("P1")
    for m in range(4):
        assert wedge(ctxd, [lam], m) == frozenset({lam})


def test_wedge_monotone(exact_contexts):
    for ctx in exact_contexts.values():
        ids = sorted(ctx.projective_ids)
        for m in range(3):
            assert wedge(ctx, ids, m) <= wedge(ctx, ids, m + 1)


def test_greedy_equals_exhaustive_resdim(exact_contexts):
    """The greedy chain against the bounded conflation search of the oracle
    (multiplicity bound 2, depth bound 4), over every X."""
    for name in ("a2", "dual_numbers", "nak22"):
        ctx = exact_contexts[name]
        n = ctx.n_objects
        for r in range(1, n + 1):
            for members in itertools.combinations(range(n), r):
                for target in range(n):
                    greedy = resdim(ctx, members, target, 4)
                    brute = resdim_by_search(ctx, members, target, 4)
                    assert greedy == brute, (name, members, target, greedy, brute)


def test_exhaustive_resdim_in_triangulated_contexts(stable_contexts):
    """The exhaustive search contains the greedy chains, zero middles included."""
    for name in ("dual_numbers", "nak22", "nak32"):
        ctx = stable_contexts[name]
        n = ctx.n_objects
        for size in range(3):
            for members in itertools.combinations(range(n), size):
                for target in range(n):
                    for dual in (False, True):
                        greedy = resdim(ctx, members, target, 2, dual=dual)
                        brute = resdim_by_search(ctx, members, target, 2, dual=dual)
                        key = (name, dual, members, target, greedy, brute)
                        if isinstance(greedy, int):
                            assert isinstance(brute, int), key
                            assert brute <= greedy, key


def _rigid_subsets(ctx, n):
    """Every set X of objects with E^k(X, X) = 0 for k in 1..n."""
    for size in range(ctx.n_objects + 1):
        for combo in itertools.combinations(range(ctx.n_objects), size):
            if not any(ctx.e_k_dim(k, a, b) for a in combo for b in combo for k in range(1, n + 1)):
                yield frozenset(combo)


def test_greedy_steps_keyed_by_hom_support_match_full_approximations(exact_contexts, stable_contexts):
    """Steps served from one cache per context, filled over every rigid X of
    degrees 1 and 2, equal the step computed from the whole of X: the key may
    drop no member with maps to (from) the object."""
    for name, ctx in [*exact_contexts.items(), *stable_contexts.items()]:
        ctx.__dict__.pop("_greedy_step_cache", None)
        for n in (1, 2):
            for x_ids in _rigid_subsets(ctx, n):
                for dual in (False, True):
                    for idx in range(ctx.n_objects):
                        want = greedy_step_by_full_approximation(ctx, x_ids, idx, dual)
                        got = _greedy_step(ctx, x_ids, idx, dual)
                        assert got == want, (name, ctx.kind, sorted(x_ids), idx, dual)


def _augmented_cases():
    """(name, context, side) over mod nak(2,3), nak(3,2), nak(3,3) and the
    extension-closed sub-contexts of mod nak(2,3) with enough projectives
    (with `dual`, injectives)."""
    roots = {f"mod nak{n}{r}": build_exact_context(nakayama_cyclic(n, r)) for n, r in ((2, 3), (3, 2), (3, 3))}
    for name, ctx in roots.items():
        yield name, ctx, False
        yield name, ctx, True
    parent = roots["mod nak23"]
    for size in range(1, parent.n_objects):
        for ids in itertools.combinations(range(parent.n_objects), size):
            if is_extension_closed(parent, ids)[0]:
                sub = build_sub_context(parent, ids)
                for dual in (False, True):
                    if sub.enough(dual)[0]:
                        yield f"sub {ids}", sub, dual


def test_a_plain_approximation_by_a_class_holding_the_projectives_is_a_deflation():
    """When X holds the context projectives (injectives), the canonical
    approximation h of every object C outside X is a deflation (inflation),
    and its cocone (cone) is that of h augmented by a deflation w from
    add(P) less the source of w: w factors through h, so (h, w) is (h, 0) up
    to an automorphism of its source (the argument in the `checkers`
    docstring)."""
    count = 0
    for name, ctx, dual in _augmented_cases():
        forced = ctx.injective_ids if dual else ctx.projective_ids
        free = [i for i in range(ctx.n_objects) if i not in forced]
        x_sets = [sorted(forced | set(extra)) for size in range(len(free) + 1)
                  for extra in itertools.combinations(free, size)]
        for idx in range(ctx.n_objects):
            # what an augmented approximation added: the projective cover
            # (injective hull) in a root, the approximation by the context
            # projectives (injectives) in a sub-context
            w = (ctx.approx(forced, idx, dual) if ctx.kind == "sub"
                 else (injective_hull if dual else projective_cover)(ctx.objects[idx].rep)[1])
            assert ctx.conflation_end(w, dual) is not None, (name, dual, idx)
            w_ids = ctx.identify_sum(w.target if dual else w.source)
            for x_ids in (x for x in x_sets if idx not in x):
                plain = ctx.conflation_end(ctx.approx(x_ids, idx, dual), dual)
                members = [ctx.objects[i].rep for i in x_ids]
                augmented = oracle.approximation_by_adds(members, ctx.objects[idx].rep, dual, w)
                end = ctx.conflation_end(augmented, dual)
                assert plain is not None and end is not None, (name, dual, x_ids, idx)
                assert not w_ids - end and plain == end - w_ids, (name, dual, x_ids, idx)
                count += 1
    assert count == 488


def test_trivial_pairs(exact_contexts):
    for name, ctx in exact_contexts.items():
        everything = range(ctx.n_objects)
        for n in (1, 2, 3):
            assert check_n_cotorsion(ctx, ctx.projective_ids, everything, n).passed, name
            assert check_n_cotorsion(ctx, everything, ctx.injective_ids, n).passed, name


def test_cotorsion_failure_witness(exact_contexts):
    ctx = exact_contexts["a2"]
    verdict = check_n_cotorsion(ctx, range(3), range(3), 1)
    assert not verdict.passed
    failure = next(c for c in verdict.clauses if not c.passed)
    assert failure.clause == "left.orthogonality"
    assert failure.witness["witness_object"] == "I1"
    assert failure.witness["against"] == "P2"
    assert failure.witness["degree"] == 1


def test_left_right_components(exact_contexts):
    ctx = exact_contexts["a2"]
    everything = range(ctx.n_objects)
    assert check_n_cotorsion_side(ctx, ctx.projective_ids, everything, 2).passed
    assert check_n_cotorsion_side(ctx, everything, ctx.injective_ids, 2, dual=True).passed


def test_cluster_tilting_examples(exact_contexts):
    ctx3 = exact_contexts["a3_rad2"]
    x = [ctx3.resolve_name(n) for n in ("P1", "P2", "P3", "I1")]
    assert check_cluster_tilting(ctx3, x, 2).passed
    ctx = exact_contexts["a2"]
    for r in range(0, 4):
        for members in itertools.combinations(range(3), r):
            assert not check_cluster_tilting(ctx, members, 2).passed
    # X = all objects fails with a witness naming the extension
    verdict = check_cluster_tilting(ctx, range(3), 2)
    assert not verdict.passed
    failure = next(c for c in verdict.clauses if not c.passed)
    assert failure.witness["extra"] or failure.witness["missing"]


def test_cluster_tilting_degree_bound(exact_contexts):
    with pytest.raises(ContextError):
        check_cluster_tilting(exact_contexts["a2"], [0], 1)


def test_enumerators(exact_contexts):
    ctx = exact_contexts["a2"]
    assert enumerate_cluster_tilting(ctx, 2) == []
    assert enumerate_cotorsion_diagonal(ctx, 1) == []
    ctx3 = exact_contexts["a3_rad2"]
    hits = enumerate_cluster_tilting(ctx3, 2)
    assert len(hits) == 1
    assert hits[0].names() == ["I1", "P1", "P2", "P3"]
    cot = enumerate_cotorsion_diagonal(ctx3, 1)
    assert [h.names() for h in cot] == [["I1", "P1", "P2", "P3"]]


def _stable_sub_context(*names):
    parent = build_stable_context(nakayama_cyclic(4, 3))
    return build_sub_context(parent, [parent.resolve_name(n) for n in names])


def _enumeration_contexts(exact_contexts, stable_contexts):
    """Every tier-1 root, three more roots, and two extension-closed
    sub-contexts of stable nak(4,3); the second has a rigid set at n = 1
    that monotonicity leaves unchecked."""
    return {**{f"mod {k}": c for k, c in exact_contexts.items()},
            **{f"stable {k}": c for k, c in stable_contexts.items()},
            "stable nak33": build_stable_context(nakayama_cyclic(3, 3)),
            "stable nak43": build_stable_context(nakayama_cyclic(4, 3)),
            "mod nak33": build_exact_context(nakayama_cyclic(3, 3)),
            "stable nak43 sub 6": _stable_sub_context("S4", "S3", "S2", "m4", "m5", "m7"),
            "stable nak43 sub 4": _stable_sub_context("S3", "S1", "m4", "m5")}


def test_enumerators_match_the_subset_walk(exact_contexts, stable_contexts, monkeypatch):
    """Backtracking and Bron-Kerbosch return the subset walk's lists.  The
    cotorsion side runs the full checker on exactly the sets that
    monotonicity leaves open, in its order, and every set it skips fails the
    full checker."""
    checked, skipped = [], 0
    check = checkers.check_n_cotorsion

    def recording(ctx, x_ids, y_ids, n):
        checked.append(frozenset(x_ids))
        return check(ctx, x_ids, y_ids, n)

    monkeypatch.setattr(checkers, "check_n_cotorsion", recording)
    for name, ctx in _enumeration_contexts(exact_contexts, stable_contexts).items():
        for n in (1, 2):
            checked.clear()
            got = enumerate_cotorsion_diagonal(ctx, n)
            seen = list(checked)
            open_sets, verdicts = oracle.open_cotorsion_sets_by_subset_walk(ctx, n)
            assert seen == open_sets, (name, n)
            assert not any(verdicts[s] for s in set(verdicts) - set(open_sets)), (name, n)
            skipped += len(verdicts) - len(open_sets)
            assert got == cotorsion_diagonal_by_subset_walk(ctx, n), (name, n)
            want = cluster_tilting_by_subset_walk(ctx, n + 1)
            assert enumerate_cluster_tilting(ctx, n + 1) == want, (name, n)
    assert skipped


def test_enumerators_do_not_call_each_other(exact_contexts, monkeypatch):
    """Each side runs with the other's private search broken."""
    ctx = exact_contexts["nak32"]

    def broken(*args):
        raise AssertionError("called the other side's search")

    with monkeypatch.context() as m:
        m.setattr(checkers, "_maximal_cliques", broken)
        assert enumerate_cotorsion_diagonal(ctx, 1) == cotorsion_diagonal_by_subset_walk(ctx, 1)
        with pytest.raises(AssertionError):
            enumerate_cluster_tilting(ctx, 2)
    with monkeypatch.context() as m:
        m.setattr(checkers, "_rigid_supersets", broken)
        assert enumerate_cluster_tilting(ctx, 2) == cluster_tilting_by_subset_walk(ctx, 2)
        with pytest.raises(AssertionError):
            enumerate_cotorsion_diagonal(ctx, 1)


def test_subset_budget_caps_candidates_visited(exact_contexts, monkeypatch):
    """Mod nak(3,2): the forced set plus at most one simple is rigid (4 sets);
    Bron-Kerbosch visits the root and one branch per simple (4 calls)."""
    ctx = exact_contexts["nak32"]
    for stage, run in (("cotorsion", lambda: enumerate_cotorsion_diagonal(ctx, 1)),
                       ("cluster-tilting", lambda: enumerate_cluster_tilting(ctx, 2))):
        monkeypatch.setattr(ctx.config, "subset_budget", 4)
        run()
        monkeypatch.setattr(ctx.config, "subset_budget", 3)
        with pytest.raises(ContextError) as err:
            run()
        assert str(err.value) == (f"{stage} enumeration visited 4 candidate subsets, more than "
                                  "the subset budget 3; raise --subset-budget")


def test_cluster_tilting_on_stable_nak104(stable_nak104):
    """The subset walk refused this context (2^30 supersets)."""
    hits = enumerate_cluster_tilting(stable_nak104, 3)
    assert len(hits) == 55
    assert len({h.ids for h in hits}) == 55


def test_checker_caches_are_keyed_by_steps_not_candidate_sets(stable_nak104):
    """After `verify_theorem` at n = 2 on stable nak(10,4), every cache the
    checkers hang on the context is keyed by an approximation step
    (members, object, side) with the members inside the Hom support of the
    object on that side, or, for the E^k bitmask rows, by a degree.  So no
    cache is keyed by a whole candidate set, and none grows with the number
    of sets checked."""
    ctx = stable_nak104
    assert verify_theorem(ctx, 2)["sets_equal"]
    names = set(re.findall(r'"(_\w+_cache)"', inspect.getsource(checkers)))
    caches = {name: ctx.__dict__[name] for name in names if name in ctx.__dict__}
    assert all(isinstance(k, int) for k in caches.pop("_orth_bitmasks_cache"))
    assert caches.get("_greedy_step_cache")
    for name, cache in caches.items():
        for key in cache:
            assert isinstance(key, tuple) and len(key) == 3, (name, key)
            members, idx, dual = key
            assert isinstance(members, frozenset) and isinstance(dual, bool), (name, key)
            assert members <= ctx.hom_support(idx, dual), (name, key)


def test_enumeration_on_semisimple_context():
    alg = parse_algebra("field 2\nvertices 1 2\n")
    ctx = build_exact_context(alg)
    for n in (1, 2, 3):
        report = verify_theorem(ctx, n)
        assert report["sets_equal"]
        assert report["cluster_tilting"] == [sorted(ctx.object_names)]


def test_verify_theorem_small(exact_contexts, stable_contexts):
    for name, ctx in {**exact_contexts, **stable_contexts}.items():
        for n in (1, 2, 3):
            report = verify_theorem(ctx, n)
            assert report["sets_equal"], (name, n, report)


def test_verify_theorem_expected_sets(exact_contexts, stable_contexts):
    assert verify_theorem(exact_contexts["a2"], 1)["cotorsion_diagonal"] == []
    t3 = verify_theorem(exact_contexts["a3_rad2"], 1)
    assert t3["cotorsion_diagonal"] == [["I1", "P1", "P2", "P3"]]
    n22 = verify_theorem(exact_contexts["nak22"], 1)
    assert len(n22["cotorsion_diagonal"]) == 2
    stable22 = verify_theorem(stable_contexts["nak22"], 1)
    assert stable22["cotorsion_diagonal"] == [["S1"], ["S2"]]


def test_theorem_on_every_extension_closed_subcategory(exact_contexts):
    """Extension-closed subcategories of an exact or triangulated category
    are extriangulated, and the theorem is stated for those too: at n = 1 it
    holds on each nonempty one of these three parents, each of which has
    enough projectives and injectives."""
    parents = {"stable nak43": (build_stable_context(nakayama_cyclic(4, 3)), 89, 20),
               "stable nak33": (build_stable_context(nakayama_cyclic(3, 3)), 28, 15),
               "mod nak32": (exact_contexts["nak32"], 44, 31)}
    for name, (parent, closed_count, with_sets) in parents.items():
        closed = [ids for size in range(1, parent.n_objects + 1)
                  for ids in itertools.combinations(range(parent.n_objects), size)
                  if is_extension_closed(parent, ids)[0]]
        assert len(closed) == closed_count, name
        found = 0
        for ids in closed:
            sub = build_sub_context(parent, ids)
            assert sub.enough()[0] and sub.enough(dual=True)[0], (name, ids)
            report = verify_theorem(sub, 1)
            assert report["sets_equal"], (name, ids, report)
            found += bool(report["cluster_tilting"])
        assert found == with_sets, name


def test_exhaustive_clause3_only_adds_passes(exact_contexts, monkeypatch):
    """Every superset of the forced set through the cotorsion checker and
    through the oracle's bounded conflation search: on the diagonal the
    canonical chain is exact (the lemma in the `checkers` docstring), so the
    search, which is entered, passes exactly the pairs the checker passes."""
    entered = []
    search = oracle.clause3_by_search

    def counting(*args):
        entered.append(args)
        return search(*args)

    monkeypatch.setattr(oracle, "clause3_by_search", counting)
    contexts = {"mod nak32": exact_contexts["nak32"],
                "stable nak33": build_stable_context(nakayama_cyclic(3, 3))}
    for name, ctx in contexts.items():
        forced = ctx.projective_ids | ctx.injective_ids
        free = sorted(set(range(ctx.n_objects)) - forced)
        for n in (1, 2):
            for size in range(len(free) + 1):
                for extra in itertools.combinations(free, size):
                    x = sorted(forced | set(extra))
                    checked = check_n_cotorsion(ctx, x, x, n).passed
                    assert cotorsion_by_search(ctx, x, x, n) == checked, (name, n, x)
    assert entered


def test_orthogonal_containment_statement(exact_contexts):
    ctx = exact_contexts["a2"]
    s1 = ctx.resolve_name("S1")
    ok, detail = verify_orthogonal_containment(ctx, [s1], 1)
    assert ok
    ok, _ = verify_orthogonal_containment(ctx, sorted(ctx.projective_ids), 2)
    assert ok


def test_orthogonal_containment_fuzz(exact_contexts):
    rng = linalg.stable_rng(41)
    for name, ctx in exact_contexts.items():
        for _ in range(40):
            r = rng.randrange(0, ctx.n_objects + 1)
            x = rng.sample(range(ctx.n_objects), r)
            n = rng.randrange(1, 4)
            ok, detail = verify_orthogonal_containment(ctx, x, n)
            assert ok, (name, x, n, detail)


def test_left_pair_characterization_exhaustive_small(exact_contexts):
    ctx = exact_contexts["a2"]
    n_obj = ctx.n_objects
    for x_bits in range(2**n_obj):
        for y_bits in range(2**n_obj):
            x = [i for i in range(n_obj) if x_bits >> i & 1]
            y = [i for i in range(n_obj) if y_bits >> i & 1]
            for n in (1, 2):
                ok, detail = verify_left_pair_characterization(ctx, x, y, n)
                assert ok, (x, y, n, detail)


def test_within_helper():
    assert within(2, 3) and within(3, 3)
    assert not within(4, 3) and not within(EXCEEDS, 3)


def _orthogonal_pairs(ctx, n):
    """Every (X, Y) with E^k(X, Y) = 0 for k in 1..n."""
    subsets = [frozenset(c) for r in range(ctx.n_objects + 1)
               for c in itertools.combinations(range(ctx.n_objects), r)]
    for x in subsets:
        for y in subsets:
            if not any(ctx.e_k_dim(k, a, b) for a in x for b in y for k in range(1, n + 1)):
                yield x, y


def _verdict(ctx, x, y, n):
    """The checker's verdict, or the resolving class of the side it calls
    undecided."""
    try:
        return check_n_cotorsion(ctx, x, y, n).passed
    except ContextError as exc:
        side = re.match(r"cotorsion verdict undecided: (left|right)\.", str(exc))
        assert side, exc
        return y if side[1] == "left" else x


def test_off_diagonal_verdicts_agree_with_the_conflation_search():
    """Every orthogonal pair of stable nak(3,3) at n = 1, 2 and mod nak(2,3)
    at n = 1, against the oracle's bounded conflation search: a pass is a
    pass of the search, a failure is a failure of it, and an undecided pair
    has n >= 2 and a resolving class (Y on the left, X on the right) that
    is not (n-1)-rigid."""
    counts = Counter()
    for ctx, degrees in ((build_stable_context(nakayama_cyclic(3, 3)), (1, 2)),
                         (build_exact_context(nakayama_cyclic(2, 3)), (1,))):
        for n in degrees:
            for x, y in _orthogonal_pairs(ctx, n):
                got = _verdict(ctx, x, y, n)
                key = (ctx.kind, sorted(x), sorted(y), n)
                if isinstance(got, bool):
                    counts[got] += 1
                    assert got == cotorsion_by_search(ctx, x, y, n), key
                else:
                    counts["undecided"] += 1
                    assert n >= 2 and any(ctx.e_k_dim(k, a, b) for a in got for b in got
                                          for k in range(1, n)), key
    assert counts == {True: 44, False: 1172, "undecided": 12}


def test_the_sweep_catches_a_canonical_first_step(monkeypatch):
    """With the surplus left in the first step's cocone, two 1-cotorsion
    pairs fail."""
    monkeypatch.setattr(checkers, "_minimal_step", checkers._greedy_step)
    for argv in (["--nakayama", "2,3", "--x", "S2,P2,P1", "--y", "S2,m3,P2,P1"],
                 ["--nakayama", "3,3", "--context", "stable", "--x", "S3", "--y", "S3,S2,m3,m4"]):
        assert cli.main(["check", *argv, "-n", "1", "--mode", "cotorsion"]) == 1
