import ast
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from pathlib import Path

from quivertilt import contexts, linalg
from quivertilt.algebra import nakayama_cyclic, parse_algebra, simple_module
from quivertilt.contexts import (
    Context,
    ContextError,
    ContextObject,
    HomVectors,
    RunConfig,
    _integer_inverse,
    _knitted,
    _Pool,
    build_exact_context,
    build_stable_context,
    build_sub_context,
    is_extension_closed,
)
from quivertilt.decompose import fingerprint, indecomposable_isomorphic
from quivertilt.homology import cosyzygy, injective_hull, projective_cover, syzygy
from quivertilt.modules import cokernel, hom_basis, kernel, zero_map
from quivertilt.stable import cone
from conftest import DYNKIN, EXCEPTIONAL, linear_quiver_radical_square
from oracle import (
    all_class_coords,
    conflation,
    conflation_candidates,
    enumerate_by_ext_closure,
    ext_table_by_pairs,
    extension_closed_by_all_classes,
    hom_matrix_by_systems,
    identify_by_splitting,
    integer_inverse_by_fractions,
    labels_by_search,
    middle_terms_by_splitting,
    sigma_by_cosyzygy,
    sum_rep,
)
from test_symmetries import ORBIT_KNIT_ALGEBRAS

ROOT = Path(__file__).resolve().parents[1]


def test_exact_context_object_counts(exact_contexts):
    expected = {"a2": 3, "dual_numbers": 2, "a3_rad2": 5, "nak22": 4, "nak32": 6}
    for name, ctx in exact_contexts.items():
        assert ctx.n_objects == expected[name], name


def test_stable_context_object_counts(stable_contexts, stable_nak104):
    assert stable_contexts["dual_numbers"].n_objects == 1
    assert stable_contexts["nak22"].n_objects == 2
    assert stable_nak104.n_objects == 30


def test_exact_projective_injective_detection(exact_contexts):
    ctx = exact_contexts["a2"]
    projs = sorted(ctx.object_names[i] for i in ctx.projective_ids)
    injs = sorted(ctx.object_names[i] for i in ctx.injective_ids)
    assert projs == ["P1", "P2"]
    assert injs == ["I1", "P1"]


def test_stable_context_has_no_projectives(stable_contexts):
    for ctx in stable_contexts.values():
        assert not ctx.projective_ids
        assert not ctx.injective_ids


def test_enough_projectives_witnesses(exact_contexts, stable_contexts):
    for ctx in list(exact_contexts.values()) + list(stable_contexts.values()):
        ok, witnesses = ctx.enough()
        assert ok
        assert set(witnesses) == set(range(ctx.n_objects))
        ok, witnesses = ctx.enough(dual=True)
        assert ok


def test_e_dim_additivity(exact_contexts):
    ctx = exact_contexts["a3_rad2"]
    s1 = ctx.resolve_name("I1")  # = S1
    s2 = ctx.resolve_name("S2")
    p3 = ctx.resolve_name("P3")  # = S3
    pair = Counter({s2: 1, p3: 1})
    assert ctx.e_dim(s1, pair) == ctx.e_dim(s1, s2) + ctx.e_dim(s1, p3)
    assert ctx.e_dim(Counter({s1: 2}), s2) == 2 * ctx.e_dim(s1, s2)


def test_split_conflation(exact_contexts):
    ctx = exact_contexts["a2"]
    s1 = ctx.resolve_name("S1")
    s2 = ctx.resolve_name("S2")
    assert ctx.realize(s1, s2, (0,)) == Counter({s1: 1, s2: 1})


def test_nonsplit_conflation_has_no_retraction(exact_contexts, stable_contexts):
    """For delta != 0 the inflation admits no retraction; a stable class is
    realized by a short exact sequence, so there too."""
    for name, ctx in [*exact_contexts.items(), *((f"stable {k}", c) for k, c in stable_contexts.items())]:
        for c in range(ctx.n_objects):
            for a in range(ctx.n_objects):
                for coords in all_class_coords(ctx, c, a):
                    conf = conflation(ctx, c, a, coords)
                    # solve r o x = id_A over Hom(B, A)
                    basis = hom_basis(conf.b_rep, conf.a_rep)
                    from quivertilt.modules import identity_map

                    ident = identity_map(conf.a_rep).flatten()
                    if not basis:
                        assert conf.a_rep.total_dim > 0
                        continue
                    mat = linalg.from_columns([g.compose(conf.x).flatten() for g in basis], len(ident))
                    assert (
                        linalg.solve(mat, ident, ctx.algebra.p) is None
                    ), (name, conf.describe())


def test_conflation_middle_dims_add_up(exact_contexts, stable_contexts):
    for ctx in [*exact_contexts.values(), *stable_contexts.values()]:
        for c in range(ctx.n_objects):
            for a in range(ctx.n_objects):
                for coords in all_class_coords(ctx, c, a, include_zero=True):
                    conf = conflation(ctx, c, a, coords)
                    assert conf.b_rep.total_dim == (
                        conf.a_rep.total_dim + conf.c_rep.total_dim
                    )
                    assert conf.x.is_mono() and conf.y.is_epi()


def test_conflation_maps_are_formed_on_first_use(exact_contexts, stable_contexts):
    """`realize` names the middle term only, by the object ids it caches per
    class, and forms no map; x and y of the same class, formed by the
    oracle, compose to zero."""
    for ctx in [*exact_contexts.values(), *stable_contexts.values()]:
        for c, a in itertools.product(range(ctx.n_objects), repeat=2):
            for coords in all_class_coords(ctx, c, a, include_zero=True):
                conf = conflation(ctx, c, a, coords)
                assert conf.y.compose(conf.x).is_zero()
    ctx = build_exact_context(nakayama_cyclic(3, 2))
    coords = (0,) * ctx.e_dim(0, 1)
    ids = ctx.realize(0, 1, coords)
    assert type(ids) is Counter
    assert ctx.realize(0, 1, coords) is ids


def test_extension_closure_examples(exact_contexts):
    ctx = exact_contexts["a2"]
    s1, s2 = ctx.resolve_name("S1"), ctx.resolve_name("S2")
    p1, p2 = ctx.resolve_name("P1"), ctx.resolve_name("P2")
    ok, witness = is_extension_closed(ctx, [s1, s2])
    assert not ok
    assert witness["middle"] == ["P1"]
    assert is_extension_closed(ctx, [p1, p2])[0]
    assert is_extension_closed(ctx, range(ctx.n_objects))[0]


def _nonempty_subsets(n: int):
    return [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]


def test_closure_by_lines_matches_all_classes_at_p3():
    """Over F_3, delta and 2 delta are two classes on one line.  Walking one
    class per line gives the verdict and witness of the walk over every
    class, on every subset of small contexts whose Ext spaces reach
    dimension 2 (nak(1, 4)), and on the pairs of E6 objects whose Ext space
    has dimension 2 or 3."""
    e6_spec = (ROOT / "perfbench" / "data" / "e6.alg").read_text().replace("field 2", "field 3")
    e6 = build_exact_context(parse_algebra(e6_spec))
    cases = [
        (ctx, _nonempty_subsets(ctx.n_objects))
        for ctx in (build_exact_context(nakayama_cyclic(1, 4, 3)), build_stable_context(nakayama_cyclic(1, 4, 3)),
                    build_exact_context(nakayama_cyclic(3, 2, 3)), build_stable_context(nakayama_cyclic(3, 3, 3)))
    ]
    cases.append((e6, [(c, a) for c in range(e6.n_objects) for a in range(e6.n_objects)
                       if c < a and max(e6.e1[c][a], e6.e1[a][c]) >= 2]))
    long_witnesses = 0
    for ctx, subsets in cases:
        assert subsets
        for subset in subsets:
            got = is_extension_closed(ctx, subset)
            assert got == extension_closed_by_all_classes(ctx, subset), (ctx.object_names, subset)
            long_witnesses += not got[0] and len(got[1]["delta"]) >= 2
    assert long_witnesses


def test_closure_check_completes_over_f65521():
    """One class per line: over F_65521 the check realizes one class per
    one-dimensional E(C, A), where the walk over every class would exceed
    the exhaustion bound, and its verdicts are those over F_3."""
    big = build_exact_context(nakayama_cyclic(3, 2, 65521))
    small = build_exact_context(nakayama_cyclic(3, 2, 3))
    assert big.object_names == small.object_names
    subsets = _nonempty_subsets(big.n_objects)
    assert ([is_extension_closed(big, s)[0] for s in subsets]
            == [is_extension_closed(small, s)[0] for s in subsets])


def test_sub_context_rejects_open_subsets(exact_contexts):
    ctx = exact_contexts["a2"]
    s1, s2 = ctx.resolve_name("S1"), ctx.resolve_name("S2")
    with pytest.raises(ContextError, match="not extension closed"):
        build_sub_context(ctx, [s1, s2])


def test_sub_context_inherits_e_table(exact_contexts):
    ctx = exact_contexts["a3_rad2"]
    ids = sorted(ctx.projective_ids)
    sub = build_sub_context(ctx, ids)
    assert sub.n_objects == len(ids)
    for c in range(sub.n_objects):
        for a in range(sub.n_objects):
            assert sub.e1[c][a] == ctx.e1[ids[c]][ids[a]]
    # all objects of this sub-context are projective and injective in it
    assert sub.projective_ids == frozenset(range(sub.n_objects))


def test_full_subset_reproduces_parent(exact_contexts):
    ctx = exact_contexts["a2"]
    sub = build_sub_context(ctx, range(ctx.n_objects))
    assert sub.n_objects == ctx.n_objects
    assert sub.e1 == ctx.e1


def test_ctx_syzygy_strips_projectives(exact_contexts):
    ctx = exact_contexts["a2"]
    s1 = ctx.resolve_name("S1")
    # Omega(S1) = S2 = P2 is projective, so the context syzygy is empty
    assert ctx.shift(1, s1) == Counter()
    p1 = ctx.resolve_name("P1")
    assert ctx.shift(1, p1) == Counter()


def test_e_k_routes_agree_everywhere(exact_contexts, stable_contexts):
    for name, ctx in {**exact_contexts, **stable_contexts}.items():
        for k in (1, 2, 3, 4):
            ctx.e_k_table(k)  # raises on any route mismatch


def _stable_sub_context():
    parent = build_stable_context(nakayama_cyclic(4, 3))
    return build_sub_context(parent, [parent.resolve_name(n) for n in ("S4", "S3", "S2", "m4", "m5", "m7")])


def test_e_k_tables_match_the_per_entry_routes(exact_contexts, stable_contexts, stable_nak104):
    """The E^k table formed from row and column sums of E is the table of
    per-entry `e_k_dim` lookups, for k = 2, 3, on every tier-1 root, stable
    nak(10,4) and a stable sub-context."""
    for ctx in [*exact_contexts.values(), *stable_contexts.values(), stable_nak104, _stable_sub_context()]:
        objects = range(ctx.n_objects)
        for k in (2, 3):
            assert ctx.e_k_table(k) == tuple(tuple(ctx.e_k_dim(k, c, a) for a in objects) for c in objects)


def test_a_planted_e_entry_on_the_cosyzygy_route_raises():
    """One E entry E(C, J) one too high, with J in Sigma A, changes the
    cosyzygy route's E^2(C, A) and leaves its syzygy route alone (A is not J,
    or C is not in Omega C): the whole-table comparison raises, for every
    such entry of stable nak(3,2) and of a stable sub-context.  A root names
    Sigma A off its E table, so the witnesses are named before the entry is
    planted, and the comparison is what meets it."""
    planted = 0
    for build in (lambda: build_stable_context(nakayama_cyclic(3, 2)), _stable_sub_context):
        ctx = build()
        for c, a in itertools.product(range(ctx.n_objects), repeat=2):
            for j in ctx.shift(1, a, dual=True):
                if a == j and c in ctx.shift(1, c):
                    continue
                ctx = build()
                ctx.enough(dual=True)
                rows = [list(row) for row in ctx.e1]
                rows[c][j] += 1
                ctx.e1 = tuple(map(tuple, rows))
                with pytest.raises(ContextError, match="but cosyzygy route"):
                    ctx.e_k_table(2)
                planted += 1
    assert planted


def test_e_k_examples(exact_contexts, stable_contexts):
    mod = exact_contexts["a3_rad2"]
    s1 = mod.resolve_name("I1")
    p3 = mod.resolve_name("P3")
    assert mod.e_k_dim(2, s1, p3) == 1  # the length-2 extension chain
    st = stable_contexts["dual_numbers"]
    for k in (1, 2, 3, 4):
        assert st.e_k_dim(k, 0, 0) == 1
    for ctx in list(exact_contexts.values()):
        for pidx in ctx.projective_ids:
            for m in range(ctx.n_objects):
                for k in (1, 2, 3):
                    assert ctx.e_k_dim(k, pidx, m) == 0


def test_sub_context_e_agrees_with_parent_on_shared_objects(stable_contexts):
    ctx = stable_contexts["nak32"]
    ok, _ = is_extension_closed(ctx, range(ctx.n_objects))
    assert ok
    sub = build_sub_context(ctx, range(ctx.n_objects))
    assert sub.e1 == ctx.e1


def test_semisimple_context():
    alg = parse_algebra("field 2\nvertices 1 2\n")
    ctx = build_exact_context(alg)
    assert ctx.n_objects == 2
    assert not any(map(any, ctx.e1))
    assert ctx.projective_ids == frozenset({0, 1})
    assert ctx.injective_ids == frozenset({0, 1})


def test_object_labels_are_stable_across_builds(nak32):
    c1 = build_exact_context(nak32)
    c2 = build_exact_context(nak32)
    assert [o.label for o in c1.objects] == [o.label for o in c2.objects]
    assert [o.rep.dims for o in c1.objects] == [o.rep.dims for o in c2.objects]


def test_integer_inverse_matches_rational_elimination(exact_contexts, stable_contexts, stable_nak104):
    """Fraction-free elimination gives the (K, D) of Gauss-Jordan over the
    rationals on the Hom matrix of every root and on random nonsingular
    integer matrices, and both raise on singular ones."""
    roots = [*exact_contexts.values(), *stable_contexts.values(), stable_nak104]
    matrices = [hom_matrix_by_systems([o.rep for o in ctx.objects] + ctx.dropped_projectives) for ctx in roots]
    rng = linalg.stable_rng(41)
    while len(matrices) < len(roots) + 40:
        n = rng.randrange(1, 9)
        h = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        if round(np.linalg.det(np.array(h, dtype=float))):
            matrices.append(h)
    for h in matrices:
        k, d = _integer_inverse(h)
        assert (k, d) == integer_inverse_by_fractions(h)
        assert d > 0 and math.gcd(d, *(x for row in k for x in row)) == 1
        assert (np.array(h, dtype=object) @ np.array(k, dtype=object) == d * np.eye(len(h), dtype=int)).all()
    for singular in ([[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        for invert in (_integer_inverse, integer_inverse_by_fractions):
            with pytest.raises(ContextError):
                invert(singular)


def test_labels_match_isomorphism_search(exact_contexts, stable_contexts):
    """P/I/S aliases read off tops, socles and dimensions are the ones an
    isomorphism test against every P_v, I_v and S_v gives, in the same order."""
    e6 = parse_algebra((ROOT / "perfbench" / "data" / "e6.alg").read_text())
    roots = [*exact_contexts.values(), *stable_contexts.values(), build_exact_context(e6)]
    roots += [build_exact_context(parse_algebra(spec)) for spec, _ in DYNKIN.values()]
    for ctx in roots:
        assert [(o.label, o.aliases) for o in ctx.objects] == labels_by_search(ctx)


def test_hom_vector_identification_matches_splitting(exact_contexts, stable_contexts):
    """Hom vectors and splitting (dropping projective pieces in a stable
    context) name every conflation middle term, every enough-projectives
    cocone and enough-injectives cone, every stable cone of a Hom basis map
    between objects, and a sum with multiplicities, the same way."""
    contexts = [*exact_contexts.items(), *((f"stable {k}", c) for k, c in stable_contexts.items())]
    for name, ctx in contexts:
        stable = ctx.kind == "stable"
        for c in range(ctx.n_objects):
            for a in range(ctx.n_objects):
                for coords in all_class_coords(ctx, c, a, include_zero=True):
                    conf = conflation(ctx, c, a, coords)
                    assert conf.b_ids == identify_by_splitting(ctx, conf.b_rep), (name, conf.describe())
                if stable:
                    for f in hom_basis(ctx.objects[c].rep, ctx.objects[a].rep):
                        assert ctx.conflation_end(f, dual=True) == identify_by_splitting(ctx, cone(f)), name
        _assert_witnesses_match_splitting(name, ctx)
        ids = Counter({i: 1 + i % 3 for i in range(ctx.n_objects)})
        assert ctx.identify_sum(sum_rep(ctx, ids)) == ids, name


def _assert_witnesses_match_splitting(name, ctx):
    for dual in (False, True):
        _, witnesses = ctx.enough(dual)
        for idx, ends in witnesses.items():
            # Omega C (Sigma C): the cocone of the projective cover in an
            # exact root and of the zero map 0 -> C in a stable one
            rep = ctx.objects[idx].rep
            end = cokernel(injective_hull(rep)[1]) if dual else kernel(projective_cover(rep)[1])
            assert ends == identify_by_splitting(ctx, end[0]), (name, dual, ctx.object_names[idx])
            assert list(ends) == sorted(ends), (name, dual, ctx.object_names[idx])


def test_sigma_c_off_the_tables_is_the_cosyzygy_naming(exact_contexts, stable_contexts, stable_nak104):
    """A root's enough-injectives cones, read off its Hom and E tables, are
    Sigma C as `oracle.sigma_by_cosyzygy` names it from the module cosyzygy,
    in ascending id order, on every tier-1 root, E7, E8, stable nak(10,4)
    and stable nak(4,3).  On the last, E(S4, S2) one too high still gives a
    certified name, the wrong one."""
    roots = {**exact_contexts, **{f"stable {k}": c for k, c in stable_contexts.items()},
             "stable nak(10,4)": stable_nak104, "stable nak(4,3)": build_stable_context(nakayama_cyclic(4, 3))}
    roots.update((name, build_exact_context(parse_algebra(EXCEPTIONAL[name][0]))) for name in ("E7", "E8"))
    for name, ctx in roots.items():
        ok, witnesses = ctx.enough(dual=True)
        assert ok, name
        assert {c: list(ids.items()) for c, ids in witnesses.items()} == {
            c: sorted(ids.items()) for c, ids in sigma_by_cosyzygy(ctx).items()}, name


def test_witnesses_match_splitting_along_long_orbits(stable_nak104):
    """The witness half of the test above where the twist table moves the
    names of Omega C furthest: stable nak(10,4), whose rotations make orbits
    of 10 objects, and mod nak(4,3) over F_3, with orbits of 4."""
    _assert_witnesses_match_splitting("stable nak(10,4)", stable_nak104)
    _assert_witnesses_match_splitting("mod nak(4,3) over F_3", build_exact_context(nakayama_cyclic(4, 3, 3)))


def test_a_built_root_names_omega_only_in_its_e_table(monkeypatch):
    """A built root's enough-projectives witnesses are the Omega C rows of
    its E table: enough() calls neither `syzygy` nor `HomVectors.identify`.
    Its enough-injectives witnesses are read off its Hom and E tables:
    enough(dual=True) forms no cosyzygy, strips nothing and solves no Hom
    system, on both roots and on E8."""
    roots = [build_exact_context(nakayama_cyclic(4, 3, 3)), build_stable_context(nakayama_cyclic(5, 3))]

    def refuse(*args):
        raise AssertionError("Omega C named again")

    monkeypatch.setattr(contexts, "syzygy", refuse)
    monkeypatch.setattr(HomVectors, "identify", refuse)
    for ctx in roots:
        ok, witnesses = ctx.enough()
        assert ok and sorted(witnesses) == list(range(ctx.n_objects))
    monkeypatch.undo()
    roots.append(build_exact_context(parse_algebra(EXCEPTIONAL["E8"][0])))

    def refuse_sigma(*args):
        raise AssertionError("Sigma C named from a module")

    for name in ("cosyzygy", "strip_projectives", "hom_dim"):
        monkeypatch.setattr(contexts, name, refuse_sigma)
    monkeypatch.setattr(HomVectors, "identify", refuse_sigma)
    for ctx in roots:
        ok, witnesses = ctx.enough(dual=True)
        assert ok and sorted(witnesses) == list(range(ctx.n_objects))


def test_a_projective_in_omega_c_raises_in_a_stable_root(monkeypatch):
    """A stable root's Omega C has no projective summand (Heller's lemma);
    with one planted in the name of each Omega C that `HomVectors.identify`
    gives, the build raises."""
    identify = HomVectors.identify

    def planted(self, m):
        return identify(self, m) + Counter({len(self.reps) - 1: 1})

    monkeypatch.setattr(HomVectors, "identify", planted)
    with pytest.raises(ContextError, match="Omega C for C of dimension vector .* has a projective summand"):
        build_stable_context(nakayama_cyclic(4, 3))


def test_stable_sub_context_pulls_the_root_answer_back():
    """A sub-context of a stable root names a module by its root's answer:
    middle terms of its classes by the parent's ids, and a module with a
    summand outside it raises."""
    parent = build_stable_context(nakayama_cyclic(4, 3))
    members = [parent.resolve_name(n) for n in ("S3", "S2", "m4", "m5", "m7")]
    sub = build_sub_context(parent, members)
    for c, a in itertools.product(range(sub.n_objects), repeat=2):
        for coords in sub.class_lines(c, a):
            conf = conflation(parent, members[c], members[a], coords)
            want = Counter({members.index(i): m for i, m in conf.b_ids.items()})
            assert sub.identify_sum(conf.b_rep) == want
    with pytest.raises(ContextError, match="falls outside the subcategory"):
        sub.identify_sum(parent.objects[parent.resolve_name("S1")].rep)


def test_hom_vectors_refuse_an_incomplete_object_list(a2):
    """With P1 missing, the Hom vector of P1 solves to S2 = P2, whose
    dimension vector differs; the check must refuse rather than name it."""
    full = build_exact_context(a2)
    p1 = full.resolve_name("P1")
    kept = [o for o in full.objects if o.index != p1]
    ctx = Context("mod", a2, full.config)
    ctx.objects = [ContextObject(i, o.label, o.rep, o.aliases) for i, o in enumerate(kept)]
    keep = [o.index for o in kept]
    h = tuple(tuple(full._hom_vectors.h[i][j] for j in keep) for i in keep)
    r, d = _integer_inverse(h)
    assert d == 1
    ctx._hom_vectors = HomVectors([o.rep for o in kept], h, tuple(map(tuple, r)))
    s1 = ctx.resolve_name("S1")
    assert ctx.identify_sum(full.objects[full.resolve_name("S1")].rep) == Counter({s1: 1})
    with pytest.raises(ContextError, match="not a sum of context objects"):
        ctx.identify_sum(full.objects[p1].rep)


def test_e1_equals_a_fresh_ext_table(exact_contexts, stable_contexts):
    for ctx in [*exact_contexts.values(), *stable_contexts.values()]:
        assert [list(row) for row in ctx.e1] == ext_table_by_pairs([o.rep for o in ctx.objects])


@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_gabriel_counts(name):
    spec, count = DYNKIN[name]
    assert build_exact_context(parse_algebra(spec)).n_objects == count


def test_gabriel_counts_e6_and_radical_square():
    """The path algebras of E6, E7 and E8 have 36, 63 and 120
    indecomposables, one per positive root, and kA_m/rad^2 has 2m-1."""
    e6 = parse_algebra((ROOT / "perfbench" / "data" / "e6.alg").read_text())
    assert build_exact_context(e6).n_objects == 36
    for spec, count in EXCEPTIONAL.values():
        assert build_exact_context(parse_algebra(spec)).n_objects == count
    for m in (2, 4, 5):
        assert build_exact_context(linear_quiver_radical_square(m)).n_objects == 2 * m - 1


def _same_pool(ours, theirs):
    key = lambda r: (r.total_dim, r.dims, fingerprint(r))
    assert [key(r) for r in ours] == [key(r) for r in theirs]
    assert all(indecomposable_isomorphic(a, b) for a, b in zip(ours, theirs))


def test_knitted_pool_equals_the_all_pairs_closure(test_algebras):
    algebras = {**test_algebras, "nak43_f3": nakayama_cyclic(4, 3, 3)}
    for name, alg in algebras.items():
        _same_pool(_knitted(alg, RunConfig(field_char=alg.p))[0],
                   enumerate_by_ext_closure(alg))


def test_sort_keys_are_distinct(exact_contexts, stable_contexts, stable_nak104):
    """Ids come from the sort on (total_dim, dims, fingerprint), so they
    cannot depend on discovery order only while the key is distinct."""
    for ctx in [*exact_contexts.values(), *stable_contexts.values(), stable_nak104]:
        keys = [(o.rep.total_dim, o.rep.dims, fingerprint(o.rep)) for o in ctx.objects]
        assert len(set(keys)) == len(keys)


def test_mesh_tables_match_the_direct_tables(exact_contexts, stable_contexts, stable_nak104):
    """H read off the AR mesh is the Hom matrix of one intertwining system
    per pair of modules, and the E table read off H is `ext_dim` per pair
    of objects, on every tier-1 root, E6, mod nak(4,3) over F_3 and stable
    nak(10,4), and on k[x]/x^4 over F_3, where the knit picks the almost
    split line among several."""
    e6 = parse_algebra((ROOT / "perfbench" / "data" / "e6.alg").read_text())
    roots = [*exact_contexts.values(), *stable_contexts.values(), build_exact_context(e6),
             build_exact_context(nakayama_cyclic(4, 3, 3)), stable_nak104,
             build_exact_context(nakayama_cyclic(1, 4, 3)), build_stable_context(nakayama_cyclic(1, 4, 3))]
    for ctx in roots:
        reps = [o.rep for o in ctx.objects] + ctx.dropped_projectives
        assert [list(row) for row in ctx._hom_vectors.h] == hom_matrix_by_systems(reps)
        assert ctx.hom == tuple(row[:ctx.n_objects] for row in ctx._hom_vectors.h[:ctx.n_objects])
        assert [list(row) for row in ctx.e1] == ext_table_by_pairs(reps[:ctx.n_objects])


def test_a_planted_fault_in_the_mesh_raises(monkeypatch):
    """Two module ids swapped in one almost split middle term of R: the mesh
    no longer inverts to a certified Hom table, or the E table it gives
    fails the direct Ext check, for every such swap on mod nak(3,2) and
    stable nak(4,3)."""
    knit = contexts._knit
    for build, algebra in ((build_exact_context, nakayama_cyclic(3, 2)),
                           (build_stable_context, nakayama_cyclic(4, 3))):
        mesh = knit(_Pool(RunConfig()), algebra)
        swaps = [(z, a, b) for z in sorted(mesh.middle) for a in sorted(mesh.middle[z])
                 for b in range(len(mesh.twists)) if mesh.middle[z].get(b) != mesh.middle[z][a]]
        assert swaps
        for z, a, b in swaps:
            def planted(pool, algebra, z=z, swap={a: b, b: a}):
                mesh = knit(pool, algebra)
                mesh.middle[z] = Counter({swap.get(j, j): m for j, m in mesh.middle[z].items()})
                return mesh

            monkeypatch.setattr(contexts, "_knit", planted)
            with pytest.raises(ContextError):
                build(algebra)


def test_mesh_middle_terms_match_splitting(monkeypatch):
    """The middle terms the knit reads off the mesh, as each root reads
    them, are those of the almost split sequences realized and split, Counter
    for Counter: on E6, E7, D4 with its S3, the commutative square,
    A9/rad^2, mod nak(4,3) over F_3, mod and stable nak(1,4) over F_3 (where
    Ext^1(tau^- M, M) has several lines) and stable nak(10,4)."""
    read = contexts._read_mesh
    seen = []

    def recording(ctx, reps, mesh):
        seen.append((ctx, reps, mesh))
        read(ctx, reps, mesh)

    monkeypatch.setattr(contexts, "_read_mesh", recording)
    e6 = parse_algebra((ROOT / "perfbench" / "data" / "e6.alg").read_text())
    for algebra in (e6, parse_algebra(EXCEPTIONAL["E7"][0]), ORBIT_KNIT_ALGEBRAS["D4"](),
                    ORBIT_KNIT_ALGEBRAS["commutative square"](), linear_quiver_radical_square(9),
                    nakayama_cyclic(4, 3, 3), nakayama_cyclic(1, 4, 3)):
        build_exact_context(algebra)
    for algebra in (nakayama_cyclic(1, 4, 3), nakayama_cyclic(10, 4)):
        build_stable_context(algebra)
    assert len(seen) == 9
    for ctx, reps, mesh in seen:
        assert mesh.middle == middle_terms_by_splitting(reps, ctx.config), ctx.algebra


@pytest.mark.parametrize("name", ["E6", "A9/rad^2"])
def test_a_doubled_multiplicity_in_a_derived_middle_term_raises(name, monkeypatch):
    """With one summand's multiplicity doubled in any one middle term read
    off the mesh, the knit raises, naming Z and the dimension vector of the
    planted E_Z, which is that of Z plus tau Z plus the doubled summand."""
    if name == "E6":
        algebra = parse_algebra((ROOT / "perfbench" / "data" / "e6.alg").read_text())
    else:
        algebra = linear_quiver_radical_square(9)
    reps, mesh = contexts._knitted(algebra, RunConfig(field_char=algebra.p))
    at = {r.dims: i for i, r in enumerate(reps)}
    assert len(at) == len(reps)
    successors = contexts._Mesh.successors
    for k in range(len(mesh.middle)):
        calls = []

        def planted(self, m, tau_inv, k=k):
            ids = successors(self, m, tau_inv)
            calls.append(m)
            if len(calls) == k + 1:
                ids[min(ids)] *= 2
            return ids

        monkeypatch.setattr(contexts._Mesh, "successors", planted)
        with pytest.raises(ContextError, match="not that of Z plus tau Z") as err:
            build_exact_context(algebra)
        named = re.findall(r"dimension vector (\([\d, ]*\))", str(err.value))
        z, got = (ast.literal_eval(t) for t in named)
        want = np.add(z, reps[mesh.tau[at[z]]].dims)
        assert any(np.array_equal(got, want + reps[j].dims) for j in mesh.middle[at[z]]), (k, named)
    assert len(calls) == len(mesh.middle) == len(mesh.tau)


def test_e6_realizes_no_almost_split_sequence(monkeypatch):
    """E6 has no periodic tau-orbit, so its build realizes no almost split
    sequence and splits only the seeds rad P_v and I_v / soc I_v that are
    not zero."""
    split, realized = contexts.summand_split, []
    split_dims = []

    def counting_split(rep, seed=0):
        split_dims.append(rep.dims)
        return split(rep, seed)

    monkeypatch.setattr(contexts, "summand_split", counting_split)
    monkeypatch.setattr(contexts, "_almost_split_middle", lambda *args: realized.append(args))
    e6 = parse_algebra((ROOT / "perfbench" / "data" / "e6.alg").read_text())
    assert build_exact_context(e6).n_objects == 36
    assert realized == []
    seeds = [f(simple_module(e6, v)) for v in e6.quiver.vertex_ids for f in (syzygy, cosyzygy)]
    assert sorted(split_dims) == sorted(m.dims for m in seeds if m.total_dim)
    assert len(split_dims) == 9


def _witness_gaps(parent) -> list[tuple]:
    """(subset, object, dual) wherever, in the sub-context on an
    extension-closed subset of the parent, the oracle's bounded conflation
    search over the context projectives (with `dual`, injectives) finds an end and
    `SubContext._witness_for` finds no witness."""
    gaps = []
    for k in range(1, parent.n_objects + 1):
        for subset in itertools.combinations(range(parent.n_objects), k):
            if not is_extension_closed(parent, subset)[0]:
                continue
            sub = build_sub_context(parent, list(subset))
            for dual, o in itertools.product((False, True), sub.objects):
                forced = sub.injective_ids if dual else sub.projective_ids
                found = next(iter(conflation_candidates(sub, forced, o.rep, dual)), None)
                if found is not None and sub._witness_for(o.index, dual) is None:
                    gaps.append((subset, o.label, dual))
    return gaps


@pytest.mark.parametrize("build, n", [(build_exact_context, 3), (build_exact_context, 2),
                                      (build_stable_context, 5)])
def test_sub_context_witnesses_need_no_conflation_search(build, n):
    """A deflation from add(P), P the context projectives, with cocone in a
    sub-context is a right add(P)-approximation, so the canonical one is a
    deflation with cocone in it too (`SubContext._witness_for`), and dually.
    So the bounded search finds an end only where the canonical step
    found a witness, on every extension-closed subset of nak(n, 3)."""
    assert _witness_gaps(build(nakayama_cyclic(n, 3))) == []


def test_witness_check_catches_a_canonical_step_that_fails(monkeypatch):
    """With the canonical approximation replaced by a zero map, which is no
    deflation, the bounded search finds the ends the witness misses."""
    parent = build_exact_context(nakayama_cyclic(2, 3))

    def planted(self, member_ids, c_idx, dual=False):
        ends = sum_rep(self, Counter(member_ids)), self.objects[c_idx].rep
        return zero_map(*(ends[::-1] if dual else ends))

    monkeypatch.setattr(contexts.SubContext, "approx", planted)
    gaps = _witness_gaps(parent)
    assert gaps and {dual for _, _, dual in gaps} == {False, True}
