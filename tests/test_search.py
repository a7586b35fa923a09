import itertools

import pytest

from quivertilt import cli, search
from quivertilt.algebra import nakayama_cyclic
from quivertilt.contexts import (
    RunConfig,
    build_exact_context,
    build_stable_context,
    is_extension_closed,
)
from quivertilt.checkers import enumerate_cluster_tilting
from quivertilt.search import close_under_operations, is_subquotient, search_nakayama_stable
from oracle import cluster_tilting_by_combinations, is_subquotient_by_submodules


@pytest.fixture(scope="module")
def stable_nak43():
    return build_stable_context(nakayama_cyclic(4, 3))


def test_closure_is_extension_closed_and_idempotent(stable_nak43):
    ctx = stable_nak43
    for seeds in ([0], [1, 2], [0, 3], [4, 6]):
        closed = close_under_operations(ctx, seeds, close_loops=False)
        assert set(seeds) <= closed
        assert is_extension_closed(ctx, closed)[0], seeds
        assert close_under_operations(ctx, closed, close_loops=False) == closed
    assert close_under_operations(ctx, [0], close_loops=False) == {0}


def test_closure_under_loops_holds_shifts(stable_nak43):
    ctx = stable_nak43
    for seeds in ([0], [1, 2], [5]):
        closed = close_under_operations(ctx, seeds)
        assert is_extension_closed(ctx, closed)[0]
        for i in closed:
            assert set(ctx.shift(1, i)) | set(ctx.shift(1, i, dual=True)) <= closed


def test_subquotients_of_uniserial_modules():
    """Over nak(3,3) every module has length at most 3: S_v is a subquotient
    of N iff it is a composition factor, a module of N's length only N itself
    is, and a length-3 module has two length-2 subquotients, rad N and
    N/soc N."""
    mods = [o.rep for o in build_exact_context(nakayama_cyclic(3, 3)).objects]
    for n in mods:
        found = [m for m in mods if is_subquotient(m, n)]
        assert n in found
        for m in mods:
            if m.total_dim == 1:
                v = m.dims.index(1)
                assert is_subquotient(m, n) == (n.dims[v] > 0)
            elif m.total_dim >= n.total_dim and m is not n:
                assert m not in found
        if n.total_dim == 3:
            assert sum(m.total_dim == 2 for m in found) == 2


@pytest.mark.parametrize("n, r, p", [(1, 3, 2), (2, 3, 2), (3, 3, 2), (4, 3, 2), (3, 4, 2), (2, 4, 3),
                                     (5, 3, 2), (1, 5, 2), (2, 5, 2), (3, 2, 3), (4, 6, 2)])
def test_subquotients_match_the_submodule_search(n, r, p):
    """The top-and-length rule agrees with a search over every submodule
    and every map onto m, on each pair of objects of total dimension at
    most 6 in mod and stable nak(n, r) over F_p."""
    for build in (build_exact_context, build_stable_context):
        reps = [o.rep for o in build(nakayama_cyclic(n, r, p), RunConfig(field_char=p)).objects
                if o.rep.total_dim <= 6]
        for m, big in itertools.product(reps, repeat=2):
            assert is_subquotient(m, big) == is_subquotient_by_submodules(m, big), (m.dims, big.dims)


def test_search_reaches_modules_of_any_length():
    """nak(3,8) has modules of length 7; the subquotient rule takes them."""
    assert cli.main(["search-nakayama", "3", "8", "--ct-size", "1", "--ct-degree", "2",
                     "--generator-samples", "2"]) == 0


def test_seeded_search_hits_concur_with_the_theorem():
    report = search_nakayama_stable(3, 3, ct_size=1, ct_degree=2, config=RunConfig(seed=5),
                                    generator_samples=5)
    assert report["hit_count"] == len(report["hits"]) == 2
    for hit in report["hits"]:
        assert hit["theorem_concurs"] is True
        assert hit["cluster_tilting_verdict"]["pass"] is True
        assert hit["tilting_objects"] in hit["theorem_report"]["cluster_tilting"]


@pytest.mark.parametrize("n, ct_size, ct_degree, seed, want", [(4, 2, 3, 0, 12), (3, 1, 2, 5, 4)])
def test_search_hits_match_every_combination(monkeypatch, n, ct_size, ct_degree, seed, want):
    """In each sub-context the search examines, its hits are the sets of the
    requested size that `check_cluster_tilting` passes among all sets of
    that size through the projectives and injectives, in the same order."""
    examined = []

    def recording(ctx, degree):
        examined.append(ctx)
        return enumerate_cluster_tilting(ctx, degree)

    monkeypatch.setattr(search, "enumerate_cluster_tilting", recording)
    report = search_nakayama_stable(n, 3, ct_size, ct_degree, config=RunConfig(seed=seed))
    assert report["hit_count"] == want
    hits = {}
    for hit in report["hits"]:
        hits.setdefault(tuple(hit["context_objects"]), []).append(hit["tilting_objects"])
    names = [tuple(sorted(ctx.object_names)) for ctx in examined]
    assert set(hits) <= set(names)
    for ctx, key in zip(examined, names):
        assert hits.get(key, []) == cluster_tilting_by_combinations(ctx, ct_size, ct_degree), key


def test_sub_contexts_with_too_many_forced_objects_are_recorded():
    """A sub-context whose projectives and injectives outnumber --ct-size has
    no hit of that size; it is listed as skipped, naming the flag, rather
    than dropped without a trace."""
    report = search_nakayama_stable(4, 3, ct_size=2, ct_degree=3, config=RunConfig(seed=0))
    skipped = [s for s in report["candidates_skipped"] if "--ct-size" in s["reason"]]
    assert skipped == [{"subset_size": 5, "reason": "4 projectives and injectives, more than --ct-size 2"}] * 8
    assert report["candidates_examined"] == 9 and report["hit_count"] == 12
