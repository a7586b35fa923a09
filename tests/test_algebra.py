from pathlib import Path

import pytest

from quivertilt import linalg
from quivertilt.algebra import (
    AlgebraError,
    ParseError,
    injective_module,
    is_self_injective,
    nakayama_cyclic,
    parse_algebra,
    path_key,
    projective_module,
    simple_module,
)
from quivertilt.decompose import _probes
from conftest import DYNKIN, linear_quiver_radical_square
from oracle import canonical_modules_by_validation, probes_by_search, self_injective_by_search

ROOT = Path(__file__).resolve().parents[1]

# Algebras with and without relations and with oriented cycles, and the
# conftest quivers over a field larger than F_2.
CANONICAL = {
    "nak(3,3)": lambda: nakayama_cyclic(3, 3),
    "nak(10,4)": lambda: nakayama_cyclic(10, 4),
    "E6": lambda: parse_algebra((ROOT / "perfbench" / "data" / "e6.alg").read_text()),
    "A9/rad^2": lambda: linear_quiver_radical_square(9),
    **{name: lambda spec=spec: parse_algebra(spec) for name, (spec, _) in DYNKIN.items()
       if not spec.startswith("field 2")},
}


def test_parse_a2(a2):
    assert a2.dim == 3
    assert sorted(a2.format_path(b) for b in a2.basis) == ["a", "e1", "e2"]


def test_parse_dual_numbers(dual_numbers):
    assert dual_numbers.dim == 2
    assert dual_numbers.nilpotency == 2


def test_loop_without_relation_is_rejected():
    with pytest.raises(AlgebraError, match="non-admissible"):
        parse_algebra("field 2\nvertices 1\narrow x: 1->1", max_path_length=16)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError, match="line 2"):
        parse_algebra("field 2\nvortices 1 2")
    with pytest.raises(ParseError, match="unknown arrow"):
        parse_algebra("field 2\nvertices 1\narrow x: 1->1\nrelation y*y")
    with pytest.raises(ParseError, match="field line must precede"):
        parse_algebra("vertices 1\nrelation x*x")


def test_paths_containing_a_relation_are_not_normal():
    """A path is normal only when no subword of it reduces.  In the 3-cycle
    with the single relation a1*a2, every path of length 4 contains a1*a2,
    though the multiples of the relation at that length reduce to zero and
    add no rule of their own."""
    alg = parse_algebra("field 2\nvertices 1 2 3\narrow a1: 1 -> 2\narrow a2: 2 -> 3\n"
                        "arrow a3: 3 -> 1\nrelation a1*a2\n")
    assert alg.dim == 9
    assert [alg.format_path(b) for b in alg.basis] == [
        "e1", "e2", "e3", "a1", "a2", "a3", "a2*a3", "a3*a1", "a2*a3*a1"]


def test_relation_terms_must_be_in_rad_square():
    with pytest.raises(AlgebraError, match="rad"):
        parse_algebra("field 2\nvertices 1\narrow x: 1->1\nrelation x")


def test_commutativity_relation_two_term():
    spec = """
    field 2
    vertices 1 2 3
    arrow a: 1 -> 2
    arrow b: 2 -> 3
    arrow c: 1 -> 2
    arrow d: 2 -> 3
    relation a*b + c*d
    relation a*d
    relation c*b
    relation a*b + a*b + a*b   # collapses to a*b
    """
    alg = parse_algebra("\n".join(line.strip() for line in spec.strip().splitlines()))
    # basis: 3 trivial paths, 4 arrows; length-2 paths all reduce away or
    # coincide: of ab, ad, cb, cd only one class survives, killed by the last
    assert alg.dim == 3 + 4 + 0


def test_nakayama_dimensions():
    nak = nakayama_cyclic(10, 4)
    assert nak.dim == 40
    assert nak.nilpotency == 4
    for v in nak.quiver.vertex_ids:
        assert projective_module(nak, v).total_dim == 4
    assert nakayama_cyclic(1, 2).dim == 2
    n22 = nakayama_cyclic(2, 2)
    assert n22.dim == 4


def test_nakayama_basis_path_count():
    for n, r in ((2, 2), (3, 2), (4, 3)):
        assert nakayama_cyclic(n, r).dim == n * r


def test_projective_dims_sum_to_algebra_dim(test_algebras):
    for alg in test_algebras.values():
        total = sum(projective_module(alg, v).total_dim for v in alg.quiver.vertex_ids)
        assert total == alg.dim


def test_projective_injective_simple_examples(a2, dual_numbers):
    assert projective_module(a2, 1).dims == (1, 1)
    assert projective_module(a2, 2).dims == (0, 1)
    assert injective_module(a2, 1).dims == (1, 0)
    assert injective_module(a2, 2).dims == (1, 1)
    assert simple_module(a2, 1).dims == (1, 0)
    with pytest.raises(AlgebraError, match="unknown vertex"):
        projective_module(a2, 9)
    lam = projective_module(dual_numbers, 1)
    assert lam.total_dim == 2
    assert injective_module(dual_numbers, 1).total_dim == 2


def test_self_injectivity(a2, dual_numbers):
    assert not is_self_injective(a2)
    assert is_self_injective(dual_numbers)
    assert is_self_injective(nakayama_cyclic(10, 4))


def test_probes_and_self_injectivity_match_isomorphism_searches(test_algebras, nak104):
    """Reading P_v = I_w off the socle of an injective P_v, and
    self-injectivity off those probes, agrees with the isomorphism searches
    on every tier-1 algebra, self-injective or not."""
    algebras = [*test_algebras.values(), nak104, nakayama_cyclic(3, 3), nakayama_cyclic(4, 3, 3),
                linear_quiver_radical_square(5), *(parse_algebra(spec) for spec, _ in DYNKIN.values())]
    for alg in algebras:
        assert _probes(alg)[1] == probes_by_search(alg), alg
        assert is_self_injective(alg) == self_injective_by_search(alg), alg


def test_path_reduction_is_confluent(dual_numbers, nak32):
    """Reducing any path by rewriting rules in arbitrary order gives the
    canonical normal form."""
    for alg in (dual_numbers, nak32):
        rules = alg._rules
        rng = linalg.stable_rng(17, alg.dim)

        def random_reduce(combo, depth=0):
            assert depth < 200
            items = [(pth, c) for pth, c in combo.items() if c % alg.p]
            reducible = []
            for pth, c in items:
                arrows = pth[1]
                for start in range(len(arrows)):
                    v = pth[0]
                    for a in arrows[:start]:
                        v = alg.quiver.arrow_target[a]
                    for stop in range(start + 1, len(arrows) + 1):
                        sub = (v, arrows[start:stop])
                        if sub in rules:
                            reducible.append((pth, c, start, stop, sub))
            if not reducible:
                return {pth: c % alg.p for pth, c in items}
            pth, c, start, stop, sub = reducible[rng.randrange(len(reducible))]
            out = {q: cq for q, cq in items if q != pth}
            for repl, cr in rules[sub].items():
                joined = (pth[0], pth[1][:start] + repl[1] + pth[1][stop:])
                out[joined] = (out.get(joined, 0) + c * cr) % alg.p
            return random_reduce(out, depth + 1)

        # all raw paths up to the nilpotency bound
        raw = [(v, ()) for v in range(alg.quiver.n_vertices)]
        frontier = list(raw)
        for _ in range(alg.nilpotency):
            nxt = []
            for b in frontier:
                for a in range(alg.quiver.n_arrows):
                    if alg.quiver.arrow_source[a] == alg.path_target(b):
                        nxt.append((b[0], b[1] + (a,)))
            raw += nxt
            frontier = nxt
        for pth in raw:
            expected = alg.reduce_path(pth)
            for _ in range(3):
                got = random_reduce({pth: 1})
                assert got == expected, (pth, got, expected)


def test_opposite_round_trip(a3_rad2):
    op = a3_rad2.opposite()
    assert op.opposite() is a3_rad2
    assert op.dim == a3_rad2.dim


def test_path_key_orders_by_degree_then_lex():
    assert path_key((0, ())) < path_key((0, (1,)))
    assert path_key((0, (0, 1))) < path_key((0, (1, 0)))


def test_field_characteristic_must_leave_room_in_int64():
    assert linalg.MAX_FIELD_CHAR == 2965821
    # 2965819 is the largest prime at or below the limit, 2965847 the next one
    assert nakayama_cyclic(2, 2, 2965819).p == 2965819
    for p in (2965847, 3037000493, 4294967291):
        with pytest.raises(AlgebraError, match="exceeds 2965821"):
            nakayama_cyclic(2, 2, p)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_modules_match_validated_rebuilds(name):
    """`projective_module`, `simple_module` and `injective_module` build on
    the trusted path, which checks no relation.  Each P_v, S_v and I_v of
    the algebra and of its opposite equals, entry for entry, its rebuild
    from the normal forms through the validating constructor."""
    algebra = CANONICAL[name]()
    for alg in (algebra, algebra.opposite()):
        want = canonical_modules_by_validation(alg)
        got = [(projective_module(alg, v), simple_module(alg, v), injective_module(alg, v))
               for v in alg.quiver.vertex_ids]
        assert [[(m.dims, m.matrices) for m in ms] for ms in got] == \
            [[(m.dims, m.matrices) for m in ms] for ms in want], name
