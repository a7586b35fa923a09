import importlib
import itertools
import pkgutil

import pytest

import quivertilt
from quivertilt import linalg, stable
from quivertilt.algebra import nakayama_cyclic, parse_algebra, projective_module, simple_module
from quivertilt.contexts import ExactExtSpace, build_stable_context
from quivertilt.decompose import summand_split
from quivertilt.homology import ext_dim, minimal_resolution, syzygy
from quivertilt.modules import direct_sum, hom_basis, identity_map, is_end, zero_map
from quivertilt.stable import NotSelfInjectiveError, cone, strip_projectives
from conftest import DUAL_SPEC, DYNKIN
from oracle import (
    StableHomSpace,
    all_class_coords,
    class_of,
    cocone_by_cone_and_loop,
    is_end_by_search,
    is_isomorphic,
    loop,
    stable_hom_dim,
    stable_realize_by_cone,
    strip_by_splitting,
    suspension,
)
from test_decompose import _twist


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
            for shifted in (loop(o.rep), suspension(o.rep)):
                pieces = summand_split(shifted)
                assert len(pieces) == 1 and not is_end_by_search(pieces[0]), o.label


def test_one_loop_per_module(stable_contexts):
    """The loop, the syzygy and the first syzygy of the minimal resolution of
    a module are one object, built once."""
    for ctx in stable_contexts.values():
        for o in ctx.objects:
            assert loop(o.rep) is syzygy(o.rep) is minimal_resolution(o.rep).syzygy_module(1)


def test_suspension_of_zero(dual_numbers):
    from quivertilt.modules import zero_representation

    z = zero_representation(dual_numbers)
    assert suspension(z).total_dim == 0


def test_cone_of_identity_is_stably_zero(dual_numbers, nak22):
    for alg, v in ((dual_numbers, 1), (nak22, 1)):
        s = simple_module(alg, v)
        raw = cone(identity_map(s))
        core = strip_projectives(raw)
        assert core.total_dim == 0


def test_cone_of_zero_map_splits(nak22):
    s1 = simple_module(nak22, 1)
    s2 = simple_module(nak22, 2)
    raw = cone(zero_map(s1, s2))
    core = strip_projectives(raw)
    # N + Sigma(M) = S2 + S2
    assert core.total_dim == 2
    assert core.dims == (0, 2)


def test_cone_of_nonzero_stable_self_map(dual_numbers):
    """The nonzero stable class S -> S cones to a projective (stably zero)."""
    s = simple_module(dual_numbers, 1)
    raw = cone(identity_map(s))
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
        y = ctx.approx(x_ids, idx)
        assert ctx.conflation_end(y) is not None
        assert ctx.conflation_end(y) == cocone_by_cone_and_loop(ctx, y), (x_ids, idx)


@pytest.fixture(scope="module")
def stable_roots_by_prime(stable_contexts, stable_nak104):
    """The tier-1 stable roots and stable nak(10,4), over F_2, F_3 and F_5."""
    roots = {(name, 2): ctx for name, ctx in stable_contexts.items()}
    roots[("nak104", 2)] = stable_nak104
    for p in (3, 5):
        algebras = {"dual_numbers": parse_algebra(DUAL_SPEC.replace("field 2", f"field {p}")),
                    "nak22": nakayama_cyclic(2, 2, p), "nak32": nakayama_cyclic(3, 2, p),
                    "nak104": nakayama_cyclic(10, 4, p)}
        roots.update({(name, p): build_stable_context(alg) for name, alg in algebras.items()})
    return roots


@pytest.fixture
def embeddings(monkeypatch):
    """Records the maps `stable` takes cokernels of."""
    seen = []
    real = stable.cokernel
    monkeypatch.setattr(stable, "cokernel", lambda f: seen.append(f) or real(f))
    return seen


def _assert_core_matches_splitting(ctx, m, embeddings, where):
    embeddings.clear()
    core, expected = strip_projectives(m), strip_by_splitting(m)
    assert all(f.is_mono() for f in embeddings), where
    assert core.dims == expected.dims, where
    assert ctx.identify_sum(core) == ctx.identify_sum(expected), where
    assert not any(is_end(piece) for piece in summand_split(core)), where


def test_strip_of_cones_matches_splitting(stable_roots_by_prime, embeddings):
    """The core read off socle ranks is the cokernel of a mono, and has the
    dimension vector and the name of the core found by splitting, and no
    projective summand, on the raw cone of every Hom basis map between
    objects."""
    for (name, p), ctx in stable_roots_by_prime.items():
        for x, y in itertools.product(ctx.objects, repeat=2):
            for f in hom_basis(x.rep, y.rep):
                _assert_core_matches_splitting(ctx, cone(f), embeddings, (name, p, x.label, y.label))


def test_strip_of_twisted_projective_sums_matches_splitting(stable_roots_by_prime, embeddings):
    """X + P_v^k under a random change of basis loses exactly P_v^k, for
    k = 1, 2, every object X and the vertices v taken in turn (every root
    here has at least as many objects as vertices, so every v is met)."""
    rng = linalg.stable_rng(47)
    for (name, p), ctx in stable_roots_by_prime.items():
        projs = ctx.dropped_projectives
        assert len(ctx.objects) >= len(projs), name
        for (i, x), k in itertools.product(enumerate(ctx.objects), (1, 2)):
            pv = projs[i % len(projs)]
            m = _twist(direct_sum([x.rep] + [pv] * k), rng)
            _assert_core_matches_splitting(ctx, m, embeddings, (name, p, x.label, pv.dims, k))
            assert strip_projectives(m).dims == x.rep.dims


def test_strip_requires_self_injective():
    a3 = parse_algebra(DYNKIN["A3 1->2->3"][0])
    with pytest.raises(NotSelfInjectiveError):
        strip_projectives(simple_module(a3, 2))


def test_strip_reaches_no_split(stable_nak104, monkeypatch):
    """strip_projectives reads multiplicities off ranks: stripping cones
    with projective summands reaches no summand_split."""
    calls = []
    for info in pkgutil.iter_modules(quivertilt.__path__):
        module = importlib.import_module(f"quivertilt.{info.name}")
        real = getattr(module, "summand_split", None)
        if real is not None:
            monkeypatch.setattr(module, "summand_split",
                                lambda *args, _real=real: calls.append(args) or _real(*args))
    stripped = 0
    for x, y in itertools.product(stable_nak104.objects[:10], repeat=2):
        for f in hom_basis(x.rep, y.rep):
            raw = cone(f)
            stripped += strip_projectives(raw).total_dim < raw.total_dim
    assert stripped and not calls


@pytest.fixture(scope="module")
def stable_roots_for_realization(stable_contexts):
    """The tier-1 stable roots, stable nak(4,3) and nak(5,3), and the stable
    categories of k[x]/x^4 and k[x]/x^5 (nak(1,4) and nak(1,5)), over F_2 and
    F_3.  Between indecomposables of the cyclic Nakayama algebras with more
    vertices than the Loewy length every Hom space has dimension at most 1;
    over k[x]/x^r they reach r - 1, so the stable quotient of Hom(Omega C, A)
    has pivot and free columns to tell apart."""
    roots = {(name, 2): ctx for name, ctx in stable_contexts.items()}
    roots.update({(name, 3): build_stable_context(alg) for name, alg in (
        ("dual_numbers", parse_algebra(DUAL_SPEC.replace("field 2", "field 3"))),
        ("nak22", nakayama_cyclic(2, 2, 3)), ("nak32", nakayama_cyclic(3, 2, 3)))})
    for p in (2, 3):
        roots.update({(f"nak{n}{r}", p): build_stable_context(nakayama_cyclic(n, r, p))
                      for n, r in ((4, 3), (5, 3), (1, 4), (1, 5))})
    return roots


def test_stable_ext_coordinates_are_stable_hom_coordinates(stable_roots_for_realization):
    """A stable root's extension space is module Ext^1(C, A) on Hom(Omega C, A)
    modulo the maps through Omega C -> P0, and stable Hom(Omega C, A) is the
    same space modulo the maps through the injective hull of Omega C.  Maps
    into the projective-injective P0 extend along either inclusion, so the
    two quotients agree: the same representative for every class, and that
    representative has the class it was lifted from."""
    for (name, p), ctx in stable_roots_for_realization.items():
        for c, a in itertools.product(range(ctx.n_objects), repeat=2):
            space = ctx.ext_space(c, a)
            assert isinstance(space, ExactExtSpace), name
            hom = StableHomSpace(loop(ctx.objects[c].rep), ctx.objects[a].rep)
            assert space.dim == hom.dim == ctx.e_dim(c, a), (name, p, c, a)
            for coords in all_class_coords(ctx, c, a, include_zero=True):
                t, u = space.representative(coords), hom.representative(coords)
                assert t.blocks == u.blocks, (name, p, c, a, coords)
                assert list(class_of(hom, t)) == list(coords), (name, p, c, a, coords)


def test_stable_realization_names_the_cone_of_the_representative(stable_roots_for_realization):
    """The short exact sequence a stable root realizes a class by has the
    middle term of the triangle built from the mapping cone of the class
    representative, zero class included."""
    for (name, p), ctx in stable_roots_for_realization.items():
        for c, a in itertools.product(range(ctx.n_objects), repeat=2):
            for coords in all_class_coords(ctx, c, a, include_zero=True):
                b = stable_realize_by_cone(ctx.objects[c].rep, ctx.objects[a].rep, coords)[0]
                assert ctx.realize(c, a, coords) == ctx.identify_sum(b), (name, p, c, a, coords)
