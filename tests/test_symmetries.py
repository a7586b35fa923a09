"""Automorphism orbits: the finder, the object permutations it induces, read
off the knit's twist table and compared with the fingerprint lookup, and the
checker caches keyed by orbit, compared with the identity-only group."""

import contextlib
import io
import itertools

import pytest

from quivertilt import checkers, cli, contexts
from quivertilt.algebra import (
    is_automorphism,
    nakayama_cyclic,
    parse_algebra,
    vertex_automorphisms,
)
from quivertilt.checkers import check_n_cotorsion, enumerate_cluster_tilting, enumerate_cotorsion_diagonal
from quivertilt.contexts import ContextError, build_exact_context, build_stable_context
from quivertilt.decompose import fingerprint, indecomposable_isomorphic
from conftest import DYNKIN, linear_quiver_radical_square
from oracle import automorphism_images_by_fingerprint

E6_SPEC = ("field 2\nvertices 1 2 3 4 5 6\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
           "arrow d: 4 -> 5\narrow e: 3 -> 6\n")

# A square 1 -> 2 -> 4, 1 -> 3 -> 4 with one of its two paths zero: swapping
# 2 and 3 moves a*c to b*d, which is not in the ideal.
SQUARE = "field 3\nvertices 1 2 3 4\narrow a: 1 -> 2\narrow b: 1 -> 3\narrow c: 2 -> 4\narrow d: 3 -> 4\n"


def _identity_only(algebra):
    return [tuple(range(algebra.quiver.n_vertices))]


@pytest.mark.parametrize("n,r", [(1, 3), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4)])
def test_finder_returns_the_rotations_of_a_cyclic_nakayama_algebra(n, r):
    got = vertex_automorphisms(nakayama_cyclic(n, r))
    assert got[0] == tuple(range(n))
    assert sorted(got) == sorted(tuple((v + k) % n for v in range(n)) for k in range(n))


def test_finder_returns_only_the_identity_without_symmetry():
    for m in range(1, 7):
        assert vertex_automorphisms(linear_quiver_radical_square(m)) == [tuple(range(m))]
    assert vertex_automorphisms(parse_algebra(E6_SPEC)) == [tuple(range(6))]


def test_a_vertex_permutation_that_breaks_a_relation_is_rejected():
    swap = (0, 2, 1, 3)
    lopsided = parse_algebra(SQUARE + "relation a*c\n")
    assert not is_automorphism(lopsided, swap)
    assert vertex_automorphisms(lopsided) == [(0, 1, 2, 3)]
    for relations in ("relation a*c\nrelation b*d\n", "relation a*c - b*d\n", ""):
        algebra = parse_algebra(SQUARE + relations)
        assert is_automorphism(algebra, swap)
        assert vertex_automorphisms(algebra) == [(0, 1, 2, 3), swap]
    # a permutation with no arrow map at all
    assert not is_automorphism(linear_quiver_radical_square(3), (1, 0, 2))


def _plant(monkeypatch, column):
    """Hand `_root_symmetries` a twist table whose columns past the identity
    are all the given column."""
    read = contexts._root_symmetries

    def planted(ctx, moves, autos):
        return read(ctx, moves[:1] + [tuple(column)] * (len(moves) - 1), autos)

    monkeypatch.setattr(contexts, "_root_symmetries", planted)


def test_a_planted_permutation_that_breaks_e1_raises(monkeypatch):
    ctx = build_stable_context(nakayama_cyclic(4, 3))
    total = ctx.n_objects + len(ctx.dropped_projectives)
    swap = next((i, j) for i, j in itertools.combinations(range(ctx.n_objects), 2)
                if ctx.e1[i] != ctx.e1[j])
    planted = list(range(total))
    planted[swap[0]], planted[swap[1]] = swap[1], swap[0]
    _plant(monkeypatch, planted)
    with pytest.raises(ContextError, match="does not keep the E table"):
        build_stable_context(nakayama_cyclic(4, 3))
    monkeypatch.undo()
    _plant(monkeypatch, [0] * total)
    with pytest.raises(ContextError, match="does not permute the context objects"):
        build_stable_context(nakayama_cyclic(4, 3))


def test_object_permutations_form_the_rotation_group():
    """Z/n acts on stable nak(n, r) freely; sub-contexts get the identity."""
    for n, r in ((4, 3), (5, 3)):
        for build in (build_stable_context, build_exact_context):
            ctx = build(nakayama_cyclic(n, r))
            perms = ctx.symmetries.perms
            assert len(perms) == n and perms[0] == tuple(range(ctx.n_objects))
            assert {tuple(g[h[i]] for i in range(ctx.n_objects)) for g in perms for h in perms} == set(perms)
    parent = build_stable_context(nakayama_cyclic(4, 3))
    sub = contexts.build_sub_context(parent, [parent.resolve_name(x) for x in ("S3", "S2", "m4", "m5", "m7")])
    assert sub.symmetries.perms == [tuple(range(sub.n_objects))]


def _rigid_sets(ctx, n):
    """Every set X with E^k(X, X) = 0 for k <= n, forced objects or not."""
    out = []
    for size in range(ctx.n_objects + 1):
        for combo in itertools.combinations(range(ctx.n_objects), size):
            if not any(ctx.e_k_dim(k, a, b) for a in combo for b in combo for k in range(1, n + 1)):
                out.append(frozenset(combo))
    return out


def _observations(ctx):
    """Everything the orbit caches feed, in a comparable form."""
    witnesses = {}
    for dual in (False, True):
        witnesses[dual] = ctx.enough(dual)
    return {
        "e1": ctx.e1,
        "witnesses": witnesses,
        "shift": {(k, i, dual): ctx.shift(k, i, dual)
                  for k in (1, 2, 3) for i in range(ctx.n_objects) for dual in (False, True)},
        "hom_support": {(i, dual): ctx.hom_support(i, dual)
                        for i in range(ctx.n_objects) for dual in (False, True)},
        "enumerations": {n: ([s.names() for s in enumerate_cotorsion_diagonal(ctx, n)],
                             [s.names() for s in enumerate_cluster_tilting(ctx, n + 1)])
                         for n in (1, 2)},
        "verdicts": {(n, x): check_n_cotorsion(ctx, x, x, n).to_dict()
                     for n in (1, 2) for x in _rigid_sets(ctx, n)},
    }


@pytest.mark.parametrize("build,n,r", [
    (build_stable_context, 3, 3), (build_stable_context, 4, 3), (build_stable_context, 5, 3),
    (build_exact_context, 3, 2), (build_exact_context, 4, 3)])
def test_orbit_caches_match_the_identity_only_group(build, n, r, monkeypatch):
    ctx = build(nakayama_cyclic(n, r))
    assert len(ctx.symmetries.perms) == n
    approximations = []
    approx = contexts.Context.approx

    def counting(self, *args, **kwargs):
        approximations.append(args)
        return approx(self, *args, **kwargs)

    monkeypatch.setattr(contexts.Context, "approx", counting)
    with_orbits = _observations(ctx)
    shared = len(approximations)
    approximations.clear()
    monkeypatch.setattr(contexts, "vertex_automorphisms", _identity_only)
    plain = build(nakayama_cyclic(n, r))
    assert len(plain.symmetries.perms) == 1
    without = _observations(plain)
    for key in with_orbits:
        assert with_orbits[key] == without[key], (build.__name__, n, r, key)
    assert shared < len(approximations)


def _search_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["search-nakayama", "4", "3", "--ct-size", "2", "--ct-degree", "3",
                           "--generator-samples", "5", "--seed", "0", "--format", "structured"])
    assert status == 0
    return out.getvalue()


def test_search_job_output_does_not_depend_on_the_orbits(monkeypatch):
    """The benchmark's search job has no reference digest, so its output with
    the rotation group is compared with its output under the identity."""
    normal = _search_stdout()
    assert '"theorem_concurs": true' in normal
    monkeypatch.setattr(contexts, "vertex_automorphisms", _identity_only)
    assert _search_stdout() == normal


def test_checker_caches_are_keyed_by_orbit():
    """On stable nak(5,3) every step under a rotated key is the rotated step
    under the original one, and the public `resdim` of a rotated object by
    the rotated set is that of the object by the set."""
    ctx = build_stable_context(nakayama_cyclic(5, 3))
    sym = ctx.symmetries
    x = frozenset(enumerate_cotorsion_diagonal(ctx, 1)[0].ids)
    for g in sym.perms:
        gx = frozenset(g[i] for i in x)
        for idx in range(ctx.n_objects):
            for dual in (False, True):
                step = checkers._greedy_step(ctx, x, idx, dual)
                moved = checkers._greedy_step(ctx, gx, g[idx], dual)
                assert (step is None) == (moved is None)
                if step is not None:
                    assert moved == {g[i]: m for i, m in step.items()}
                assert checkers.resdim(ctx, x, idx, 1, dual) == checkers.resdim(ctx, gx, g[idx], 1, dual)


def _orbit_count(algebra, reps) -> int:
    """Orbits of the automorphisms' twists on the modules, by the fingerprint
    lookup: the number of modules that are least in their orbit."""
    images = automorphism_images_by_fingerprint(algebra, reps)
    return sum(i == min(g[i] for g in images) for i in range(len(reps)))


ORBIT_KNIT_ALGEBRAS = {
    **{f"nak({n},{r}) F_{p}": (lambda n=n, r=r, p=p: nakayama_cyclic(n, r, p))
       for n, r, p in ((2, 2, 2), (3, 3, 2), (4, 3, 2), (5, 3, 3), (6, 4, 2), (2, 4, 3))},
    "D4": lambda: parse_algebra(DYNKIN["D4 subspace"][0]),
    "commutative square": lambda: parse_algebra(SQUARE + "relation a*c - b*d\n"),
}


@pytest.mark.parametrize("build,name", [
    *((build, name) for name in ORBIT_KNIT_ALGEBRAS if name.startswith("nak")
      for build in (build_exact_context, build_stable_context)),
    (build_exact_context, "D4"), (build_exact_context, "commutative square")])
def test_orbit_knit_matches_the_identity_only_knit(build, name, monkeypatch):
    """Knitting one leader per orbit finds the modules of the knit under the
    identity alone, sorted alike and pairwise isomorphic, with the same E
    and Hom tables, and translates at most twice per orbit: on mod and
    stable cyclic Nakayama algebras (nak(2,4) over F_3 has Ext^1(tau^- M, M)
    of more than one line), on D4 with its S3 and on the commutative
    square."""
    translate = contexts.ar_translate
    calls = []

    def counting(m, inverse=False):
        calls.append(inverse)
        return translate(m, inverse)

    monkeypatch.setattr(contexts, "ar_translate", counting)
    algebra = ORBIT_KNIT_ALGEBRAS[name]()
    assert len(vertex_automorphisms(algebra)) > 1
    ctx = build(algebra)
    reps = [o.rep for o in ctx.objects] + ctx.dropped_projectives
    assert len(calls) <= 2 * _orbit_count(algebra, reps)
    monkeypatch.setattr(contexts, "vertex_automorphisms", _identity_only)
    plain = build(algebra)
    plain_reps = [o.rep for o in plain.objects] + plain.dropped_projectives
    assert ([(r.dims, fingerprint(r)) for r in reps]
            == [(r.dims, fingerprint(r)) for r in plain_reps])
    assert all(indecomposable_isomorphic(a, b) for a, b in zip(reps, plain_reps))
    assert ctx.e1 == plain.e1
    assert ctx._hom_vectors.h == plain._hom_vectors.h


@pytest.mark.parametrize("build,name", [
    *((build, name) for name in ORBIT_KNIT_ALGEBRAS if name.startswith("nak")
      for build in (build_exact_context, build_stable_context)),
    (build_exact_context, "D4"), (build_exact_context, "commutative square"),
    (build_exact_context, "E6")])
def test_symmetries_match_the_fingerprint_lookup(build, name):
    """The permutations read off the twist table are those the fingerprint
    lookup finds, restricted to the objects and deduplicated, element for
    element and in order: `Symmetries.least` breaks ties by position.  E6
    has only the identity."""
    algebra = parse_algebra(E6_SPEC) if name == "E6" else ORBIT_KNIT_ALGEBRAS[name]()
    ctx = build(algebra)
    n = ctx.n_objects
    perms = [tuple(range(n))]
    reps = [o.rep for o in ctx.objects] + ctx.dropped_projectives
    for images in automorphism_images_by_fingerprint(algebra, reps):
        if tuple(images[:n]) not in perms:
            perms.append(tuple(images[:n]))
    assert ctx.symmetries.perms == perms
    assert len(perms) == (1 if name == "E6" else len(vertex_automorphisms(algebra)))


def test_no_single_almost_split_line_raises(monkeypatch):
    """Ext^1(tau^- M, M) has more than one line on k[x]/x^4.  With every Hom
    dimension one too large, no line reaches hom(Z, M) + hom(Z, Z) - 1,
    which is what a residue field End(Z)/rad larger than F_p would give."""
    hom_dim = contexts.hom_dim
    monkeypatch.setattr(contexts, "hom_dim", lambda m, n: hom_dim(m, n) + 1)
    with pytest.raises(ContextError, match=r"End\(tau\^- M\)/rad is larger than F_2"):
        build_exact_context(nakayama_cyclic(1, 4))
