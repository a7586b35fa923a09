"""The lean F_p / module kernel: the trusted constructor path, the vectorized
cokernel and direct sum against their entry-by-entry forms, approximations
against their map-by-map sums, and the shared projective and injective
modules."""

import itertools

import numpy as np
import pytest

from quivertilt import linalg, modules
from quivertilt.algebra import (
    injective_module,
    nakayama_cyclic,
    parse_algebra,
    projective_module,
    simple_module,
)
from quivertilt.checkers import verify_theorem
from quivertilt.homology import approximation
from quivertilt.contexts import (
    build_exact_context,
    build_stable_context,
    build_sub_context,
    is_extension_closed,
)
from quivertilt.modules import (
    ModuleMap,
    Representation,
    cokernel,
    direct_sum,
    hom_basis,
    linear_combination,
    summand_maps,
    zero_map,
    zero_representation,
)
from conftest import A2_SPEC, DUAL_SPEC, linear_quiver_radical_square
from oracle import approximation_by_adds, as_array, cokernel_by_unit_vectors, direct_sum_by_entries

FIELDS = (2, 3, 5, 65521)


def _problem(arrays, shapes, p) -> str | None:
    """Why a trusted input breaks the contract, or None if it keeps it."""
    if len(arrays) != len(shapes):
        return f"{len(arrays)} arrays for {len(shapes)} shapes"
    for k, (a, want) in enumerate(zip(arrays, shapes)):
        if not isinstance(a, linalg.Matrix) or type(a.rows) is not tuple:
            return f"entry {k}: {type(a).__name__}, not a Matrix with a tuple of rows"
        if a.shape != want:
            return f"entry {k}: shape {a.shape}, declared {want}"
        if any(type(row) is not tuple or len(row) != a.ncols for row in a.rows):
            return f"entry {k}: a row that is not a tuple of {a.ncols} entries"
        if any(type(x) is not int or not 0 <= x < p for row in a.rows for x in row):
            return f"entry {k}: entries that are not ints in [0, {p})"
    return None


@pytest.fixture
def trusted_inputs(monkeypatch):
    """Wrap both constructors; collect every validate=False call and every
    violation of the trusted contract among them."""
    seen = {"calls": 0, "violations": []}
    rep_init, map_init = Representation.__init__, ModuleMap.__init__

    def checked_rep(self, algebra, dims, matrices, validate=True):
        if not validate:
            q = algebra.quiver
            shapes = [(dims[q.arrow_target[a]], dims[q.arrow_source[a]]) for a in range(q.n_arrows)]
            seen["calls"] += 1
            problem = _problem(matrices, shapes, algebra.p)
            if problem:
                seen["violations"].append(("Representation", problem))
        rep_init(self, algebra, dims, matrices, validate)

    def checked_map(self, source, target, blocks, validate=True):
        if not validate:
            shapes = list(zip(target.dims, source.dims))
            seen["calls"] += 1
            problem = _problem(blocks, shapes, source.algebra.p)
            if problem:
                seen["violations"].append(("ModuleMap", problem))
        map_init(self, source, target, blocks, validate)

    monkeypatch.setattr(Representation, "__init__", checked_rep)
    monkeypatch.setattr(ModuleMap, "__init__", checked_map)
    return seen


def _sub_contexts(parent, limit: int = 3):
    """Up to `limit` extension-closed proper subsets of two objects."""
    subs = []
    for pair in itertools.combinations(range(parent.n_objects), 2):
        if len(subs) < limit and is_extension_closed(parent, pair)[0]:
            subs.append(build_sub_context(parent, pair))
    return subs


def test_trusted_constructor_inputs_are_reduced(trusted_inputs):
    """Every validate=False input met while building the tier-1 exact, stable
    and sub contexts and verifying the theorem on them is a reduced Matrix
    of the declared shape.  The algebras are fresh, so that no cache
    built before the wrap hides a construction."""
    algebras = {
        "a2": parse_algebra(A2_SPEC),
        "dual_numbers": parse_algebra(DUAL_SPEC),
        "a3_rad2": linear_quiver_radical_square(3),
        "nak22": nakayama_cyclic(2, 2),
        "nak32": nakayama_cyclic(3, 2),
        "nak32_f5": nakayama_cyclic(3, 2, 5),
        "nak14_f5": nakayama_cyclic(1, 4, 5),
    }
    contexts = [build_exact_context(alg) for alg in algebras.values()]
    contexts += [build_stable_context(algebras[k])
                 for k in ("dual_numbers", "nak22", "nak32", "nak32_f5", "nak14_f5")]
    contexts += [sub for parent in list(contexts) for sub in _sub_contexts(parent)]
    for ctx in contexts:
        for n in (1, 2):
            verify_theorem(ctx, n)
    assert trusted_inputs["calls"] > 1000
    assert trusted_inputs["violations"] == []


def test_guard_sees_an_unreduced_block(trusted_inputs, a2):
    """The guard itself: a block that skips its reduction is reported."""
    p1 = projective_module(a2, 1)
    blocks = [linalg.Matrix(tuple(tuple(x + 1 for x in row) for row in b.rows), b.ncols)
              for b in modules.identity_map(p1).blocks]
    ModuleMap(p1, p1, blocks, validate=False)
    assert [kind for kind, _ in trusted_inputs["violations"]] == ["ModuleMap"]


def test_validating_constructors_reduce_their_input(nak32):
    p = nak32.p
    p1 = projective_module(nak32, 1)
    raw = [as_array(m) - p * 3 for m in p1.matrices]  # negative, congruent to p1's
    rep = Representation(nak32, p1.dims, raw)
    assert rep.matrices == p1.matrices
    blocks = [np.eye(d, dtype=np.int64) * (p + 1) - 2 * p for d in p1.dims]  # identity mod p
    f = ModuleMap(p1, rep, blocks)
    assert f.blocks == [linalg.eye(d) for d in p1.dims]
    # nested lists are taken as well, and reduced
    g = ModuleMap(p1, rep, [[[x + p for x in row] for row in b.rows] for b in f.blocks])
    assert g.blocks == f.blocks


def test_constructors_check_shapes_on_both_paths(nak32):
    p1 = projective_module(nak32, 1)
    wrong = [np.zeros((m.shape[0] + 1, m.shape[1]), dtype=np.int64) for m in p1.matrices]
    bad_blocks = [np.zeros((d, d + 1), dtype=np.int64) for d in p1.dims]
    for validate in (True, False):
        with pytest.raises(ValueError, match="matrix shape"):
            Representation(nak32, p1.dims, wrong, validate=validate)
        with pytest.raises(ValueError, match="block shape"):
            ModuleMap(p1, p1, bad_blocks, validate=validate)
        with pytest.raises(ValueError, match="2 blocks for 3 vertices"):
            ModuleMap(p1, p1, modules.identity_map(p1).blocks[:-1], validate=validate)


def _modules_over(p: int):
    """Projectives, injectives, simples, two sums of them and a zero module of
    nak(3, 2), nak(1, 3) and A3/rad^2 over F_p: zero-dimensional vertices,
    and vertices of dimension up to 3 where an image need not be spanned by
    basis vectors."""
    out = []
    for alg in (nakayama_cyclic(3, 2, p), nakayama_cyclic(1, 3, p), linear_quiver_radical_square(3, p)):
        ids = alg.quiver.vertex_ids
        base = ([projective_module(alg, v) for v in ids] + [injective_module(alg, v) for v in ids]
                + [simple_module(alg, v) for v in ids])
        sums = [direct_sum(base[:2]), direct_sum(base[-2:])]
        out.append(base + sums + [zero_representation(alg)])
    return out


def _maps(mods, p: int):
    """Zero maps, hom basis elements and one seeded combination per pair."""
    rng = np.random.default_rng(p)
    for m in mods:
        for n in mods:
            yield zero_map(m, n)
            basis = hom_basis(m, n)
            yield from basis
            if basis:
                yield linear_combination(basis, rng.integers(0, p, len(basis)))


def _same_rep(a: Representation, b: Representation) -> bool:
    return a.dims == b.dims and a.matrices == b.matrices


def _same_blocks(f: ModuleMap, g: ModuleMap) -> bool:
    return f.blocks == g.blocks


@pytest.mark.parametrize("p", FIELDS)
def test_cokernel_matches_the_unit_vector_oracle(p):
    count = 0
    for mods in _modules_over(p):
        for f in _maps(mods, p):
            coker, proj = cokernel(f)
            want_coker, want_proj = cokernel_by_unit_vectors(f)
            assert _same_rep(coker, want_coker) and _same_blocks(proj, want_proj), (p, f)
            count += 1
    assert count > 200


@pytest.mark.parametrize("p", FIELDS)
def test_direct_sum_matches_the_entrywise_oracle(p):
    for mods in _modules_over(p):
        for reps in ([mods[0]], mods[:3], [mods[-1], mods[1], mods[-1]], mods[::2], mods):
            total = direct_sum(reps)
            incls, projs = summand_maps(total, reps), summand_maps(total, reps, dual=True)
            want_total, want_incls, want_projs = direct_sum_by_entries(reps)
            assert _same_rep(total, want_total)
            assert all(_same_blocks(f, g) for f, g in zip(incls + projs, want_incls + want_projs))


def _read_only(m: linalg.Matrix):
    """No entry of m can be written, through m or through its rows."""
    with pytest.raises(TypeError):
        m[0, 0] = 5
    with pytest.raises(TypeError):
        m.rows[0][0] = 5


def test_direct_sum_maps_are_read_only(a2):
    reps = [projective_module(a2, 1), simple_module(a2, 2)]
    total = direct_sum(reps)
    incls, projs = summand_maps(total, reps), summand_maps(total, reps, dual=True)
    _read_only(incls[0].blocks[0])
    _read_only(projs[1].blocks[1])


def _shared_and_read_only(make, algebras):
    for alg in algebras:
        for v in alg.quiver.vertex_ids:
            pv = make(alg, v)
            assert make(alg, v) is pv
            for m in pv.matrices:
                if m.rows and m.ncols:
                    _read_only(m)


def test_projective_modules_are_shared_and_read_only(test_algebras):
    _shared_and_read_only(projective_module, test_algebras.values())


def test_injective_modules_are_shared_and_read_only(test_algebras):
    _shared_and_read_only(injective_module, test_algebras.values())


@pytest.mark.parametrize("p", FIELDS)
def test_approximation_matches_the_map_by_map_sum(p):
    """Blocks written once equal the old sum of one composite per Hom basis
    map, entry for entry, on both sides."""
    count = 0
    for mods in _modules_over(p):
        for members in ([], mods[:2], mods[::2], mods):
            for c in mods:
                for dual in (False, True):
                    h = approximation(members, c, dual)
                    want = approximation_by_adds(members, c, dual)
                    assert _same_rep(h.source, want.source) and _same_rep(h.target, want.target)
                    assert _same_blocks(h, want), (p, dual)
                    count += 1
    assert count > 100
