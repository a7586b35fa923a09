import importlib

import numpy as np
import pytest

import quivertilt
from quivertilt import linalg
from quivertilt.algebra import injective_module, nakayama_cyclic, projective_module, simple_module
from quivertilt.contexts import build_exact_context
from quivertilt.decompose import (
    DecompositionError,
    fingerprint,
    indecomposable_isomorphic,
    radical_basis,
    summand_split,
)
from quivertilt.decompose import _splitting_idempotent_from_minpoly as splitting_idempotent
from quivertilt.modules import Representation, direct_sum, hom_basis
from oracle import decompose, fingerprint_by_hom_probes, is_isomorphic, splitting_idempotent_by_sympy


def test_decompose_explicit_direct_sum(a2):
    p1 = projective_module(a2, 1)
    s2 = simple_module(a2, 2)
    total, _, _ = direct_sum([p1, p1, s2])
    parts = decompose(total, seed=3)
    assert [(r.dims, m) for r, m in parts] == [((0, 1), 1), ((1, 1), 2)]


def test_decompose_zero_arrow_splits_vertexwise(a2):
    rep = Representation(a2, (1, 1), [np.zeros((1, 1), dtype=np.int64)])
    parts = decompose(rep)
    assert sorted((r.dims, m) for r, m in parts) == [((0, 1), 1), ((1, 0), 1)]


def test_regular_module_of_local_algebra_is_indecomposable(dual_numbers):
    lam = projective_module(dual_numbers, 1)
    parts = decompose(lam)
    assert [(r.dims, m) for r, m in parts] == [((2,), 1)]
    assert len(hom_basis(lam, lam)) == 2


def test_krull_schmidt_seed_stability(a3_rad2):
    p1 = projective_module(a3_rad2, 1)
    s1 = simple_module(a3_rad2, 1)
    s3 = simple_module(a3_rad2, 3)
    total, _, _ = direct_sum([p1, s1, s3, p1, s1])
    outcomes = []
    for seed in (0, 1, 17, 123):
        parts = decompose(total, seed=seed)
        outcomes.append(sorted((r.dims, m) for r, m in parts))
    assert all(o == outcomes[0] for o in outcomes)
    assert outcomes[0] == [((0, 0, 1), 1), ((1, 0, 0), 2), ((1, 1, 0), 2)]


def test_reassembly(test_algebras):
    for name, alg in test_algebras.items():
        mods = [projective_module(alg, v) for v in alg.quiver.vertex_ids]
        mods += [simple_module(alg, v) for v in alg.quiver.vertex_ids]
        total, _, _ = direct_sum(mods)
        parts = decompose(total, seed=5)
        pieces = []
        for rep, mult in parts:
            pieces.extend([rep] * mult)
        rebuilt, _, _ = direct_sum(pieces)
        assert is_isomorphic(rebuilt, total, seed=5), name


def _twist(rep, rng):
    """rep under a random change of basis at every vertex."""
    p = rep.algebra.p
    blocks = []
    for d in rep.dims:
        while True:
            g = linalg.from_flat(tuple(rng.randrange(p) for _ in range(d * d)), d, d)
            if linalg.is_invertible(g, p):
                break
        blocks.append(g)
    q = rep.algebra.quiver
    mats = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        g_inv = linalg.solve(blocks[s], linalg.eye(rep.dims[s]), p)
        mats.append(linalg.matmul(blocks[t], linalg.matmul(rep.matrices[a], g_inv, p), p))
    return Representation(rep.algebra, rep.dims, mats)


def test_twisted_sum_decomposes_to_ground_truth(a3_rad2):
    """A random basis change must not change the decomposition multiset."""
    rng = linalg.stable_rng(23)
    p1 = projective_module(a3_rad2, 1)
    p2 = projective_module(a3_rad2, 2)
    s2 = simple_module(a3_rad2, 2)
    total, _, _ = direct_sum([p1, p2, s2])
    for trial in range(4):
        parts = decompose(_twist(total, rng), seed=trial)
        assert sorted((r.dims, m) for r, m in parts) == [
            ((0, 1, 0), 1),
            ((0, 1, 1), 1),
            ((1, 1, 0), 1),
        ]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n, r", [(1, 3), (2, 3), (2, 4)])
def test_split_of_twisted_sums_recovers_the_summands(n, r, p):
    """Random basis changes of sums of 2-3 indecomposables, repeats included,
    split into exactly the summands."""
    objects = [o.rep for o in build_exact_context(nakayama_cyclic(n, r, p)).objects]
    rng = linalg.stable_rng(29, n, r, p)
    for trial in range(8):
        summands = [rng.choice(objects) for _ in range(rng.choice((2, 3)))]
        if trial % 2 == 0:
            summands[1] = summands[0]
        twisted = _twist(direct_sum(summands)[0], rng)
        pieces = summand_split(twisted, seed=trial)
        assert len(pieces) == len(summands), (n, r, p, trial)
        unmatched = list(summands)
        for piece in pieces:
            match = next((i for i, m in enumerate(unmatched)
                          if indecomposable_isomorphic(piece, m)), None)
            assert match is not None, (n, r, p, trial, piece.dims)
            unmatched.pop(match)


def test_split_without_an_idempotent_raises_unless_certified_local(a2, dual_numbers, monkeypatch):
    """With the hunt finding nothing, S + S is not certified local, so the
    split must raise rather than report it as indecomposable; a local module
    still passes through its certificate."""
    monkeypatch.setattr(quivertilt.decompose, "_hunt_idempotent", lambda *args, **kwargs: None)
    s1 = simple_module(a2, 1)
    with pytest.raises(DecompositionError):
        summand_split(direct_sum([s1, s1])[0])
    lam = projective_module(dual_numbers, 1)
    assert [piece.dims for piece in summand_split(lam)] == [(2,)]


def test_is_isomorphic_examples(a2, nak104):
    p1 = projective_module(a2, 1)
    s1 = simple_module(a2, 1)
    s2 = simple_module(a2, 2)
    sum12, _, _ = direct_sum([s1, s2])
    assert is_isomorphic(p1, p1)
    assert not is_isomorphic(p1, sum12)
    # every projective of the self-injective Nakayama algebra is injective
    injectives = [injective_module(nak104, v) for v in nak104.quiver.vertex_ids]
    for v in nak104.quiver.vertex_ids:
        pv = projective_module(nak104, v)
        assert any(is_isomorphic(pv, iv) for iv in injectives)


def test_matrix_algebra_radical_is_zero(a2):
    """End(S + S) = M_2(F_2) has degenerate trace form when the simple has
    dimension divisible by p; the higher coefficient chain must still find
    the zero radical."""
    p1 = projective_module(a2, 1)  # dim 2 over F_2
    total, _, _ = direct_sum([p1, p1])
    endos = hom_basis(total, total)
    assert len(endos) == 4
    rad = radical_basis(endos, a2.p)
    assert rad == []


def test_local_algebra_radical(dual_numbers):
    lam = projective_module(dual_numbers, 1)
    endos = hom_basis(lam, lam)
    rad = radical_basis(endos, dual_numbers.p)
    assert len(rad) == 1


def test_fingerprint_is_iso_invariant(a3_rad2):
    p1 = projective_module(a3_rad2, 1)
    pieces = summand_split(direct_sum([p1, p1])[0], seed=2)
    for rep in pieces:
        assert fingerprint(rep) == fingerprint(p1)
        assert indecomposable_isomorphic(rep, p1)


def test_fingerprint_matches_hom_probes(exact_contexts, stable_contexts):
    """The profile read off dimensions equals the one solved probe by probe,
    on every object and on the sum of all objects of a context."""
    for ctx in [*exact_contexts.values(), *stable_contexts.values()]:
        reps = [o.rep for o in ctx.objects]
        for rep in reps + [direct_sum(reps)[0]]:
            assert fingerprint(rep) == fingerprint_by_hom_probes(rep), (ctx.kind, rep.dims)


def _random_monic(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [1]


def _power(f, e, p):
    out = [1]
    for _ in range(e):
        out = linalg.poly_mul(out, f, p)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_splitting_idempotent_matches_sympy(p):
    rng = linalg.stable_rng(17, p)
    cases = []
    for _ in range(40):
        f = [1]
        for _ in range(rng.randrange(1, 4)):
            g = _random_monic(rng, p, rng.randrange(1, 4))
            f = linalg.poly_mul(f, _power(g, rng.choice((1, 1, 2, 3)), p), p)
        cases.append(f)
        cases.append([0] * rng.randrange(1, 4) + f)  # times x^j
        cases.append([0] * rng.randrange(1, 4) + [1])  # x^j alone
    if p < 10:
        # p-th powers reach the p-th-root branch of the square-free decomposition
        for _ in range(15):
            g = _power(_random_monic(rng, p, rng.randrange(1, 3)), p, p)
            h = _random_monic(rng, p, rng.randrange(1, 3))
            cases += [g, linalg.poly_mul(g, h, p), linalg.poly_mul(_power(g, 2, p), h, p)]
    split = 0
    for f in cases:
        e = splitting_idempotent(f, p)
        assert e == splitting_idempotent_by_sympy(f, p), (f, p)
        if e is not None:
            split += 1
            assert linalg.poly_mod(linalg.poly_sub(linalg.poly_mul(e, e, p), e, p), f, p) == [0]
    assert 0 < split < len(cases)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_splitting_idempotent_of_one_irreducible_factor_is_none(p):
    import sympy

    x = sympy.symbols("x")
    rng = linalg.stable_rng(19, p)
    found = 0
    while found < 6:
        g = _random_monic(rng, p, rng.randrange(1, 5))
        if not sympy.Poly(list(reversed(g)), x, modulus=p).is_irreducible:
            continue
        found += 1
        for f in (g, _power(g, 3, p)):
            assert splitting_idempotent(f, p) is None
            assert splitting_idempotent_by_sympy(f, p) is None


def test_isomorphism_scan_alone_decides(exact_contexts, stable_contexts):
    """Scanning a basis of Hom(a, b) for an isomorphism decides isomorphism
    of indecomposables: X_i ~ X_j iff i == j, on every pair of objects with
    equal dimension vectors, mod nak(3,3)'s three projective injectives of
    dimension vector (1, 1, 1) among them."""
    contexts = [*exact_contexts.values(), *stable_contexts.values(),
                build_exact_context(nakayama_cyclic(3, 3)), build_exact_context(nakayama_cyclic(4, 3, 3))]
    distinct = 0
    for ctx in contexts:
        for i, x in enumerate(ctx.objects):
            for j, y in enumerate(ctx.objects):
                if x.rep.dims == y.rep.dims:
                    assert indecomposable_isomorphic(x.rep, y.rep) == (i == j), (x.label, y.label)
                    distinct += i != j
    assert distinct >= 6


def test_isomorphism_found_past_the_first_basis_map():
    """On mod k[x]/x^4 over F_3 (nak(1,4)), the basis of Hom from k[x]/x^d
    to itself, and to random basis changes of it, puts d - 1 maps that are
    not isomorphisms first: the scan must pass them to find the isomorphism,
    and must not ask every basis map to be one."""
    objects = build_exact_context(nakayama_cyclic(1, 4, 3)).objects
    rng = linalg.stable_rng(43)
    past_first = 0
    for x in objects:
        for other in [x.rep] + [_twist(x.rep, rng) for _ in range(3)]:
            isos = [f.is_iso() for f in hom_basis(x.rep, other)]
            assert indecomposable_isomorphic(x.rep, other), x.label
            assert indecomposable_isomorphic(other, x.rep), x.label
            past_first += not isos[0]
    assert [x.rep.dims for x in objects] == [(1,), (2,), (3,), (4,)]
    assert past_first == 12


def test_package_attribute_is_the_decompose_module():
    """The package does not re-export the function `decompose`, so the
    attribute `quivertilt.decompose` stays the submodule and can be patched."""
    assert importlib.import_module("quivertilt.decompose") is quivertilt.decompose


def test_isomorphism_builds_only_the_forward_basis(monkeypatch, exact_contexts, stable_contexts):
    """The test of a ~ b builds Hom(a, b) once and never Hom(b, a), whether
    the answer is yes or no."""
    module = quivertilt.decompose
    calls = []
    basis = module.hom_basis
    monkeypatch.setattr(module, "hom_basis", lambda m, n: calls.append((m, n)) or basis(m, n))
    answers = set()
    for ctx in [*exact_contexts.values(), *stable_contexts.values(), build_exact_context(nakayama_cyclic(3, 3))]:
        for x in ctx.objects:
            for y in ctx.objects:
                if x.rep.dims == y.rep.dims:
                    calls.clear()
                    answers.add(module.indecomposable_isomorphic(x.rep, y.rep))
                    assert calls == [(x.rep, y.rep)], (x.label, y.label)
    assert answers == {True, False}
