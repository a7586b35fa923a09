import random
from pathlib import Path

import numpy as np
import pytest
import sympy

from quivertilt import homology, linalg
from quivertilt.algebra import injective_module, nakayama_cyclic, parse_algebra, projective_module, simple_module
from quivertilt.contexts import RunConfig, _knitted
from quivertilt.decompose import indecomposable_isomorphic
from quivertilt.homology import (
    approximation,
    ar_translate,
    cosyzygy,
    ext_dim,
    injective_hull,
    projective_cover,
    syzygy,
    top_generator_lifts,
)
from quivertilt.modules import (
    Representation,
    cokernel,
    direct_sum,
    hom_basis,
    kernel,
    linear_combination,
    radical_subspaces,
)

from conftest import DYNKIN, linear_quiver_radical_square
from oracle import ext1_dim_oracle, is_isomorphic, map_from_projectives_by_path_matrices


def _indecomposables(alg):
    mods = {}
    for v in alg.quiver.vertex_ids:
        mods[f"P{v}"] = projective_module(alg, v)
        mods[f"I{v}"] = injective_module(alg, v)
        mods[f"S{v}"] = simple_module(alg, v)
    return mods


def test_cover_examples(a2, dual_numbers):
    s1 = simple_module(a2, 1)
    p, epi = projective_cover(s1)
    assert is_isomorphic(p, projective_module(a2, 1))
    assert epi.is_epi()
    p1 = projective_module(a2, 1)
    pc, cover = projective_cover(p1)
    assert cover.is_iso()
    lam = projective_module(dual_numbers, 1)
    pc2, cover2 = projective_cover(simple_module(dual_numbers, 1))
    assert is_isomorphic(pc2, lam)


def test_cover_kernel_lies_in_radical(test_algebras):
    for alg in test_algebras.values():
        for v in alg.quiver.vertex_ids:
            m = simple_module(alg, v)
            p, epi = projective_cover(m)
            k, incl = kernel(epi)
            rad = radical_subspaces(p)
            for vtx in range(alg.quiver.n_vertices):
                for col in range(incl.blocks[vtx].shape[1]):
                    assert linalg.solve(
                        rad[vtx], linalg.columns(incl.blocks[vtx], [col]), alg.p
                    ) is not None


def test_syzygy_examples(a2, dual_numbers):
    s1 = simple_module(a2, 1)
    assert is_isomorphic(syzygy(s1), simple_module(a2, 2))
    assert syzygy(projective_module(a2, 1)).total_dim == 0
    s = simple_module(dual_numbers, 1)
    m = s
    for _ in range(3):
        m = syzygy(m)
        assert is_isomorphic(m, s)


def test_cosyzygy_examples(a2):
    s2 = simple_module(a2, 2)
    assert is_isomorphic(cosyzygy(s2), simple_module(a2, 1))
    hull, mono = injective_hull(s2)
    assert mono.is_mono()
    assert is_isomorphic(hull, projective_module(a2, 1))  # I2 = P1 here


def test_ext_examples(a2, dual_numbers):
    s1, s2 = simple_module(a2, 1), simple_module(a2, 2)
    p1 = projective_module(a2, 1)
    assert ext_dim(1, s1, s2) == 1
    assert ext_dim(1, p1, s1) == 0 and ext_dim(1, p1, s2) == 0
    assert ext_dim(0, s1, s1) == 1
    s = simple_module(dual_numbers, 1)
    for k in range(6):
        assert ext_dim(k, s, s) == 1


def test_ext_vanishes_on_injective_targets(test_algebras):
    for alg in test_algebras.values():
        mods = _indecomposables(alg)
        for m in mods.values():
            for v in alg.quiver.vertex_ids:
                for k in (1, 2, 3):
                    assert ext_dim(k, m, injective_module(alg, v)) == 0


def test_dimension_shift(test_algebras):
    for alg in test_algebras.values():
        mods = _indecomposables(alg)
        for m in mods.values():
            om = syzygy(m)
            for n in mods.values():
                for k in (1, 2, 3):
                    assert ext_dim(k + 1, m, n) == ext_dim(k, om, n)


def test_ext_reads_each_top_once(a3_rad2, monkeypatch):
    """Filling an Ext table computes top(Omega^j m) once per module m and
    degree j, and the cached tops are those of the syzygies."""
    calls = []
    real = homology.top_dims
    monkeypatch.setattr(homology, "top_dims", lambda rep: calls.append(rep) or real(rep))
    mods = list(_indecomposables(a3_rad2).values())
    for k in (1, 2, 3):
        for m in mods:
            for n in mods:
                ext_dim(k, m, n)
    assert len(calls) == len({id(rep) for rep in calls})
    for m in mods:
        res = homology.minimal_resolution(m)
        assert res.top_dims(0) == real(m)
        for j in (1, 2):
            assert res.top_dims(j) == real(res.syzygy_module(j))


def test_ext_table_matches_independent_oracle(test_algebras):
    """Resolution-based Ext^1 equals the cocycle-coboundary count on every
    pair of canonical indecomposables, for every test algebra."""
    for name, alg in test_algebras.items():
        mods = list(_indecomposables(alg).values())
        for m in mods:
            for n in mods:
                assert ext_dim(1, m, n) == ext1_dim_oracle(m, n), name


def test_ext_additivity(a3_rad2):
    s1 = simple_module(a3_rad2, 1)
    s2 = simple_module(a3_rad2, 2)
    s3 = simple_module(a3_rad2, 3)
    both = direct_sum([s2, s3])
    assert ext_dim(1, s1, both) == ext_dim(1, s1, s2) + ext_dim(1, s1, s3)
    assert ext_dim(1, both, s3) == ext_dim(1, s2, s3) + ext_dim(1, s3, s3)


def test_right_approximation_examples(a2):
    p1 = projective_module(a2, 1)
    p2 = projective_module(a2, 2)
    s1 = simple_module(a2, 1)
    h = approximation([p1, p2], s1)
    assert h.is_epi()
    # Hom(S1, P1) = 0, so S1 adds no summand: the map is from 0
    h_zero_homs = approximation([s1], p1)
    assert h_zero_homs.source.total_dim == 0 and not h_zero_homs.is_epi()


def test_right_approximation_factorization_law(a3_rad2):
    """Every map from a member factors through the approximation."""
    p = a3_rad2.p
    mods = _indecomposables(a3_rad2)
    members = [mods["P1"], mods["S1"], mods["S3"]]
    for target in mods.values():
        h = approximation(members, target)
        for member in members:
            for f in hom_basis(member, target):
                lifts = hom_basis(member, h.source)
                if not lifts:
                    assert f.is_zero()
                    continue
                mat = linalg.from_columns([h.compose(g).flatten() for g in lifts], len(f.flatten()))
                assert linalg.solve(mat, f.flatten(), p) is not None


def test_left_approximation_examples(a2):
    s1 = simple_module(a2, 1)
    p1 = projective_module(a2, 1)
    g = approximation([s1], p1, dual=True)
    assert is_isomorphic(g.target, s1) and g.is_epi() and not g.is_mono()
    # members holding the injectives S1 = I1 and P1 = I2 give an inflation
    g_inj = approximation([s1, p1], simple_module(a2, 2), dual=True)
    assert g_inj.is_mono()


def _pool(alg):
    return _knitted(alg, RunConfig(field_char=alg.p))[0]


def test_inverse_translate_follows_the_inverse_coxeter_matrix(a2):
    """Over a hereditary algebra (here A2 and the Dynkin quivers of the
    Gabriel tests), dim tau^- M = Phi^-1 dim M for every
    indecomposable non-injective M (Auslander-Reiten-Smalo VIII.2).  The
    Cartan matrix C here has the dimension vectors of the projectives as
    columns, C[w][v] = dim (P_v)_w, so C^T has those of the injectives, and
    Phi = -C^T C^-1 sends dim P_v to -dim I_v; Phi^-1 = -C (C^T)^-1."""
    algebras = {"a2": a2, **{name: parse_algebra(spec) for name, (spec, _) in DYNKIN.items()}}
    for name, alg in algebras.items():
        ids = alg.quiver.vertex_ids
        cartan = sympy.Matrix([projective_module(alg, v).dims for v in ids]).T
        phi_inv = -cartan * cartan.T.inv()
        for m in _pool(alg):
            up = ar_translate(m, inverse=True)
            if up.total_dim == 0:
                assert any(is_isomorphic(m, injective_module(alg, v)) for v in ids), name
                continue
            assert list(up.dims) == list(phi_inv * sympy.Matrix(m.dims)), (name, m.dims)


def test_translates_are_mutually_inverse(test_algebras):
    """tau tau^- M = M for every non-injective and tau^- tau N = N for every
    non-projective indecomposable N of each pool; tau vanishes exactly on the
    projectives and tau^- on the injectives."""
    for name, alg in test_algebras.items():
        ends = {False: [projective_module(alg, v) for v in alg.quiver.vertex_ids],
                True: [injective_module(alg, v) for v in alg.quiver.vertex_ids]}
        for m in _pool(alg):
            for inverse in (False, True):
                there = ar_translate(m, inverse)
                at_end = any(is_isomorphic(m, e) for e in ends[inverse])
                assert (there.total_dim == 0) == at_end, (name, m.dims, inverse)
                if there.total_dim:
                    back = ar_translate(there, not inverse)
                    assert indecomposable_isomorphic(back, m), (name, m.dims, inverse)


def test_translate_fixes_each_homogeneous_kronecker_module():
    """Over the Kronecker algebra a1, a2: 1 -> 2, the modules k -> k with
    arrows (1, t) and (0, 1) lie in homogeneous tubes, so tau fixes each,
    and they are pairwise non-isomorphic.  Over F_5 their presentations
    carry coefficients other than 0 and 1, which the transpose must keep."""
    kronecker = parse_algebra("field 5\nvertices 1 2\narrow a1: 1 -> 2\narrow a2: 1 -> 2\n")
    params = [(1, t) for t in range(5)] + [(0, 1)]
    mods = [Representation(kronecker, (1, 1), [np.array([[x]]), np.array([[y]])]) for x, y in params]
    for m in mods:
        for inverse in (False, True):
            moved = ar_translate(m, inverse)
            assert [indecomposable_isomorphic(moved, n) for n in mods] == [n is m for n in mods]


def test_translates_take_no_second_syzygy():
    """tau and tau^- read P1 -> P0 -> M off the resolution but take no kernel
    of P1 -> Omega M; Ext^2 takes it when asked."""
    alg = parse_algebra("field 2\nvertices 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n")
    for m in _indecomposables(alg).values():
        ar_translate(m)
        res = homology.minimal_resolution(m)
        assert len(res.syzygies) <= 1 and len(res.terms) <= 2
        if res.syzygies:
            assert len(res.terms) == 2
            ext_dim(2, m, m)
            assert len(res.syzygies) == 2


def _random_modules(alg, rng: random.Random) -> list[Representation]:
    """Cokernels of seeded random maps between sums of projectives and, when
    the algebra has no relations, modules with random arrow matrices."""
    ids = alg.quiver.vertex_ids
    out = []
    for _ in range(6):
        src = direct_sum([projective_module(alg, v) for v in rng.choices(ids, k=rng.randint(1, 2))])
        tgt = direct_sum([projective_module(alg, v) for v in rng.choices(ids, k=rng.randint(1, 3))])
        basis = hom_basis(src, tgt)
        out.append(cokernel(linear_combination(basis, [rng.randrange(alg.p) for _ in basis]))[0]
                   if basis else tgt)
    if not alg.relations:
        q = alg.quiver
        for _ in range(4):
            dims = [rng.randint(0, 3) for _ in ids]
            out.append(Representation(alg, dims, [
                linalg.Matrix(tuple(tuple(rng.randrange(alg.p) for _ in range(dims[s])) for _ in range(dims[t])),
                              dims[s])
                for s, t in zip(q.arrow_source, q.arrow_target)]))
    return out


def _random_gens(m: Representation, rng: random.Random) -> list[tuple[int, linalg.Matrix]]:
    """Four (vertex, column) generators, the first and last at one vertex;
    zero columns are allowed."""
    vertices = rng.choices([v for v, d in enumerate(m.dims) if d], k=3)
    return [(v, linalg.column([rng.randrange(m.algebra.p) for _ in range(m.dims[v])]))
            for v in vertices + vertices[:1]]


@pytest.mark.parametrize("p", (2, 3, 5, 65521))
def test_map_from_projectives_matches_the_path_matrix_oracle(p):
    """Path images taken from prefixes equal the full path matrices times the
    generator, on algebras with relations (nak(3,3), the loop nak(1,4),
    A4/rad^2) and without (E6), for random generators and for the lifts of
    a top that a projective cover uses."""
    rng = random.Random(p)
    e6 = (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "e6.alg").read_text()
    algebras = [nakayama_cyclic(3, 3, p), nakayama_cyclic(1, 4, p), linear_quiver_radical_square(4, p),
                parse_algebra(e6.replace("field 2", f"field {p}"))]
    compared = 0
    for alg in algebras:
        for m in _random_modules(alg, rng):
            if not m.total_dim:
                continue
            for gens in (_random_gens(m, rng), top_generator_lifts(m)):
                total, f = homology._map_from_projectives(m, gens)
                want_total, want = map_from_projectives_by_path_matrices(m, gens)
                assert total.dims == want_total.dims and total.matrices == want_total.matrices
                assert f.blocks == want.blocks, (alg, m.dims, gens)
                compared += 1
    assert compared >= 40
