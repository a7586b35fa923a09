import itertools

import pytest

from quivertilt import linalg
from quivertilt.algebra import projective_module, simple_module
from quivertilt.decompose import is_isomorphic, summand_split
from quivertilt.homology import ext_dim
from quivertilt.modules import identity_map, zero_map
from quivertilt.stable import (
    NotSelfInjectiveError,
    cone,
    loop,
    loop_raw,
    stable_hom_dim,
    strip_projectives,
    suspension,
    suspension_raw,
)
from oracle import cocone_by_cone_and_loop, is_end_by_search


def test_requires_self_injective(a2):
    s1 = simple_module(a2, 1)
    with pytest.raises(NotSelfInjectiveError):
        stable_hom_dim(s1, s1)
    with pytest.raises(NotSelfInjectiveError):
        suspension(s1)


def test_stable_hom_examples(dual_numbers, nak104):
    s = simple_module(dual_numbers, 1)
    lam = projective_module(dual_numbers, 1)
    assert stable_hom_dim(s, s) == 1
    assert stable_hom_dim(lam, s) == 0
    assert stable_hom_dim(lam, lam) == 0
    assert stable_hom_dim(s, lam) == 0


def test_stable_endo_of_uniserials_is_one_dimensional(stable_nak104):
    """Every non-projective uniserial of the big Nakayama algebra has stable
    endomorphism ring k."""
    for o in stable_nak104.objects:
        assert stable_hom_dim(o.rep, o.rep) == 1


def test_suspension_loop_inverse(dual_numbers, nak22):
    s = simple_module(dual_numbers, 1)
    assert is_isomorphic(suspension(s), s)
    assert is_isomorphic(loop(s), s)
    s1 = simple_module(nak22, 1)
    s2 = simple_module(nak22, 2)
    assert is_isomorphic(suspension(s1), s2)
    assert is_isomorphic(loop(suspension(s1)), s1)
    assert is_isomorphic(suspension(loop(s1)), s1)


def test_loop_and_suspension_have_no_projective_summand(stable_contexts, stable_nak104):
    """Heller's lemma, on which loop, suspension and the stable extension
    spaces rely instead of a strip: over a self-injective algebra the loop
    and the suspension of an indecomposable non-projective are again
    indecomposable and non-projective."""
    for ctx in [*stable_contexts.values(), stable_nak104]:
        for o in ctx.objects:
            for shifted in (loop_raw(o.rep)[0], suspension_raw(o.rep)[0]):
                pieces = summand_split(shifted)
                assert len(pieces) == 1 and not is_end_by_search(pieces[0][0]), o.label


def test_suspension_of_zero(dual_numbers):
    from quivertilt.modules import zero_representation

    z = zero_representation(dual_numbers)
    assert suspension(z).total_dim == 0


def test_cone_of_identity_is_stably_zero(dual_numbers, nak22):
    for alg, v in ((dual_numbers, 1), (nak22, 1)):
        s = simple_module(alg, v)
        raw, _, _ = cone(identity_map(s))
        core = strip_projectives(raw)
        assert core.total_dim == 0


def test_cone_of_zero_map_splits(nak22):
    s1 = simple_module(nak22, 1)
    s2 = simple_module(nak22, 2)
    raw, _, _ = cone(zero_map(s1, s2))
    core = strip_projectives(raw)
    # N + Sigma(M) = S2 + S2
    assert core.total_dim == 2
    assert core.dims == (0, 2)


def test_cone_of_nonzero_stable_self_map(dual_numbers):
    """The nonzero stable class S -> S cones to a projective (stably zero)."""
    s = simple_module(dual_numbers, 1)
    raw, _, _ = cone(identity_map(s))
    assert raw.total_dim == 2  # the regular module
    core = strip_projectives(raw)
    assert core.total_dim == 0


def test_stable_hom_against_first_ext(stable_contexts):
    """stable Hom(M, Sigma N) agrees with module Ext^1(M, N)."""
    for name, ctx in stable_contexts.items():
        for m in ctx.objects:
            for n in ctx.objects:
                sigma_n = suspension(n.rep)
                assert stable_hom_dim(m.rep, sigma_n) == ext_dim(1, m.rep, n.rep), name


def test_suspension_preserves_stable_homs(stable_nak104):
    rng = linalg.stable_rng(31)
    objs = stable_nak104.objects
    for _ in range(20):
        m = objs[rng.randrange(len(objs))].rep
        n = objs[rng.randrange(len(objs))].rep
        assert stable_hom_dim(m, n) == stable_hom_dim(suspension(m), suspension(n))
        assert stable_hom_dim(m, n) == stable_hom_dim(loop(m), loop(n))


def test_kernel_cocone_matches_loop_of_cone(stable_contexts, stable_nak104):
    """The cocone of an approximation deflation, taken as the kernel of the
    deflation plus the projective cover, names the same objects as the loop
    of its mapping cone: every X on the small contexts; on nak(10,4) the
    empty set, all objects, and every single object with maps to C."""
    cases = []
    for ctx in stable_contexts.values():
        subsets = [x for size in range(ctx.n_objects + 1)
                   for x in itertools.combinations(range(ctx.n_objects), size)]
        cases += [(ctx, x, idx) for x in subsets for idx in range(ctx.n_objects)]
    ctx = stable_nak104
    for idx in range(ctx.n_objects):
        x_sets = [(), tuple(range(ctx.n_objects))] + [(i,) for i in sorted(ctx.hom_support(idx))]
        cases += [(ctx, x, idx) for x in x_sets]
    for ctx, x_ids, idx in cases:
        y = ctx.approx(x_ids, idx, augment=True)
        assert ctx.is_deflation(y)
        assert ctx.cocone_ids(y) == cocone_by_cone_and_loop(ctx, y), (x_ids, idx)
