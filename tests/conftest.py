import pytest

from quivertilt.algebra import (
    AlgebraError,
    BoundQuiverAlgebra,
    Quiver,
    nakayama_cyclic,
    parse_algebra,
)
from quivertilt.contexts import build_exact_context, build_stable_context

A2_SPEC = """\
field 2
vertices 1 2
arrow a: 1 -> 2
"""

DUAL_SPEC = """\
field 2
vertices 1
arrow x: 1 -> 1
relation x*x
"""

# Path algebras of Dynkin quivers with Gabriel's count of indecomposables:
# n(n+1)/2 for A_n and n(n-1) for D_n, whatever the orientation.
DYNKIN = {
    "A3 1->2->3": ("field 2\nvertices 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n", 6),
    "A4 1->2<-3->4": (
        "field 3\nvertices 1 2 3 4\narrow a: 1 -> 2\narrow b: 3 -> 2\narrow c: 3 -> 4\n", 10),
    "D4 subspace": (
        "field 2\nvertices 1 2 3 4\narrow a: 1 -> 2\narrow b: 3 -> 2\narrow c: 4 -> 2\n", 12),
    "D5": ("field 2\nvertices 1 2 3 4 5\narrow a: 1 -> 3\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
           "arrow d: 4 -> 5\n", 20),
}

# The path algebras of E7 and E8, with Gabriel's count (one indecomposable
# per positive root): a chain of 6 (7) vertices with one arrow 3 -> 7 (8).
EXCEPTIONAL = {
    "E7": ("field 2\nvertices 1 2 3 4 5 6 7\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
           "arrow d: 4 -> 5\narrow e: 5 -> 6\narrow f: 3 -> 7\n", 63),
    "E8": ("field 2\nvertices 1 2 3 4 5 6 7 8\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
           "arrow d: 4 -> 5\narrow e: 5 -> 6\narrow f: 6 -> 7\narrow g: 3 -> 8\n", 120),
}


def linear_quiver_radical_square(n: int, field_char: int = 2) -> BoundQuiverAlgebra:
    """A_n with linear orientation 1 -> 2 -> ... -> n and rad^2 = 0."""
    if n < 1:
        raise AlgebraError("need at least one vertex")
    vertex_ids = tuple(range(1, n + 1))
    names = tuple(f"a{i + 1}" for i in range(n - 1))
    quiver = Quiver(vertex_ids, names, tuple(range(n - 1)), tuple(range(1, n)))
    relations = [{(i, (i, i + 1)): 1} for i in range(n - 2)]
    return BoundQuiverAlgebra(quiver, field_char, relations)


@pytest.fixture(scope="session")
def a2():
    return parse_algebra(A2_SPEC)


@pytest.fixture(scope="session")
def dual_numbers():
    return parse_algebra(DUAL_SPEC)


@pytest.fixture(scope="session")
def a3_rad2():
    return linear_quiver_radical_square(3)


@pytest.fixture(scope="session")
def nak22():
    return nakayama_cyclic(2, 2)


@pytest.fixture(scope="session")
def nak32():
    return nakayama_cyclic(3, 2)


@pytest.fixture(scope="session")
def nak104():
    return nakayama_cyclic(10, 4)


@pytest.fixture(scope="session")
def test_algebras(a2, dual_numbers, a3_rad2, nak22, nak32):
    return {
        "a2": a2,
        "dual_numbers": dual_numbers,
        "a3_rad2": a3_rad2,
        "nak22": nak22,
        "nak32": nak32,
    }


@pytest.fixture(scope="session")
def exact_contexts(test_algebras):
    return {name: build_exact_context(alg) for name, alg in test_algebras.items()}


@pytest.fixture(scope="session")
def stable_contexts(dual_numbers, nak22, nak32):
    return {
        "dual_numbers": build_stable_context(dual_numbers),
        "nak22": build_stable_context(nak22),
        "nak32": build_stable_context(nak32),
    }


@pytest.fixture(scope="session")
def stable_nak104(nak104):
    return build_stable_context(nak104)
