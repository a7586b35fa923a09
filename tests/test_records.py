"""The package's record classes are plain slotted classes.  The exported
ones, and `Clause`, which `Verdict` compares, are equal when their
attributes are; `Quiver` and `Subcat` are hashed by them, so equal ones
hash equal; and `Quiver` checks its arrows as it is built."""

import pytest

from quivertilt import AlgebraError, Quiver, RunConfig, Subcat, Verdict
from quivertilt.checkers import Clause


def _quiver(vertex_ids=(1, 2), arrow_names=("a",), arrow_source=(0,), arrow_target=(1,)):
    return Quiver(vertex_ids, arrow_names, arrow_source, arrow_target)


def test_a_quiver_is_equal_and_hashed_by_its_tuples():
    assert _quiver() == _quiver() and hash(_quiver()) == hash(_quiver())
    assert len({_quiver(), _quiver()}) == 1
    for changed in ({"vertex_ids": (1, 3)}, {"arrow_names": ("b",)}, {"arrow_source": (1,), "arrow_target": (0,)}):
        assert _quiver() != _quiver(**changed)
    assert _quiver() != ((1, 2), ("a",), (0,), (1,))
    assert not hasattr(_quiver(), "__dict__")


@pytest.mark.parametrize("fields, message", [
    ({"vertex_ids": (1, 1), "arrow_target": (0,)}, "duplicate vertex ids"),
    ({"arrow_names": ("a", "a"), "arrow_source": (0, 0), "arrow_target": (1, 1)}, "duplicate arrow names"),
    ({"arrow_target": (2,)}, "arrow endpoint is not a declared vertex"),
    ({"arrow_source": (-1,)}, "arrow endpoint is not a declared vertex"),
])
def test_a_quiver_rejects_bad_arrows(fields, message):
    with pytest.raises(AlgebraError, match=message):
        _quiver(**fields)


def test_a_subcategory_is_equal_and_hashed_by_its_context_and_ids(exact_contexts):
    ctx, other = exact_contexts["a2"], exact_contexts["nak22"]
    assert Subcat.of(ctx, [1, 0]) == Subcat(ctx, frozenset({0, 1}))
    assert hash(Subcat.of(ctx, [1, 0])) == hash(Subcat(ctx, frozenset({0, 1})))
    assert Subcat.of(ctx, [0]) != Subcat.of(ctx, [1])
    assert Subcat.of(ctx, [0]) != Subcat.of(other, [0])
    assert not hasattr(Subcat.of(ctx, [0]), "__dict__")


def test_a_verdict_is_equal_when_its_flag_and_clauses_are():
    def verdict(witness=None, note=""):
        return Verdict(False, [Clause("orthogonality", False, "tested", witness, note)])

    assert verdict({"k": 1}) == verdict({"k": 1})
    assert verdict({"k": 1}) != verdict({"k": 2})
    assert verdict(note="x") != verdict()
    assert verdict() != Verdict(True, verdict().clauses)
    assert Verdict(True) == Verdict(True, []) and Verdict(True).clauses == []
    assert Verdict(True).clauses is not Verdict(True).clauses
    with pytest.raises(TypeError):
        hash(verdict())


def test_a_run_config_is_equal_when_every_knob_is():
    assert RunConfig() == RunConfig(2, 0, 10000, 1 << 20)
    assert RunConfig(seed=1) != RunConfig() and RunConfig(field_char=3) != RunConfig()
    assert RunConfig(3, 1, 5, 7).to_dict() == {"field_char": 3, "seed": 1, "enumeration_budget": 5,
                                               "subset_budget": 7}
