import pytest

from quivertilt.algebra import nakayama_cyclic
from quivertilt.contexts import (
    ContextError,
    RunConfig,
    build_exact_context,
    build_stable_context,
    is_extension_closed,
)
from quivertilt.search import close_under_operations, is_subquotient, search_nakayama_stable


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


def test_closure_without_budget_gives_up(stable_nak43):
    assert close_under_operations(stable_nak43, [0, 1], budget=0) is None


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


def test_subquotient_test_refuses_large_modules():
    mods = [o.rep for o in build_exact_context(nakayama_cyclic(3, 3)).objects]
    big = max(mods, key=lambda r: r.total_dim)
    with pytest.raises(ContextError):
        is_subquotient(big, big, dim_budget=big.total_dim - 1)


def test_seeded_search_hits_concur_with_the_theorem():
    report = search_nakayama_stable(3, 3, ct_size=1, ct_degree=2, config=RunConfig(seed=5),
                                    generator_samples=5)
    assert report["hit_count"] == len(report["hits"]) == 2
    for hit in report["hits"]:
        assert hit["theorem_concurs"] is True
        assert hit["cluster_tilting_verdict"]["pass"] is True
        assert hit["tilting_objects"] in hit["theorem_report"]["cluster_tilting"]
