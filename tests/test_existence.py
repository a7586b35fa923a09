"""A third witness for `verify_theorem` on stable Nakayama categories: the
existence criterion of Darpo and Iyama (Adv. Math. 2020) for d-cluster
tilting subcategories of the stable category of a self-injective Nakayama
algebra.

The criterion is recalled here, not read from the text.  Take N simples,
Loewy length l, d = n + 1, m = l(d - 1) + 2 and t = gcd(d + 1, 2(l - 1)).
Then a d-cluster tilting subcategory exists iff m divides 2N or m divides
tN.  It shares no code with either side of the theorem check, so each side
is compared with it on its own; a disagreement is a finding about the
program or the recollection, never a reason to edit either."""

import math

import pytest

from quivertilt import build_stable_context, nakayama_cyclic, verify_theorem

# Stable nak(N, l) with N <= 10, l in {3, 4, 5} and n in {1, 2, 3}.  At n = 1
# only categories of at most 24 objects, N(l - 1), are taken: the larger ones
# take most of the 90 cases' time, and this subset runs in about 5 s.
CASES = [(n_simples, loewy, n) for loewy in (3, 4, 5) for n_simples in range(1, 11) for n in (1, 2, 3)
         if n > 1 or n_simples * (loewy - 1) <= 24]


def darpo_iyama(n_simples: int, loewy: int, d: int) -> bool:
    m = loewy * (d - 1) + 2
    t = math.gcd(d + 1, 2 * (loewy - 1))
    return 2 * n_simples % m == 0 or t * n_simples % m == 0


@pytest.fixture(scope="module")
def sides():
    """(N, l, n) -> whether verify_theorem finds a diagonal n-cotorsion
    pair, and whether it finds an (n+1)-cluster tilting subcategory."""
    out = {}
    for n_simples, loewy in sorted({case[:2] for case in CASES}):
        ctx = build_stable_context(nakayama_cyclic(n_simples, loewy, 2))
        for n in sorted(case[2] for case in CASES if case[:2] == (n_simples, loewy)):
            report = verify_theorem(ctx, n)
            out[n_simples, loewy, n] = bool(report["cotorsion_diagonal"]), bool(report["cluster_tilting"])
    return out


def _disagreements(criterion, sides: dict) -> list:
    """The cases where either side of the theorem check differs from
    `criterion`, with both sides' answers."""
    return [(case, found) for case, found in sides.items()
            if found != (criterion(case[0], case[1], case[2] + 1),) * 2]


def test_both_sides_of_the_theorem_check_agree_with_the_existence_criterion(sides):
    assert len(sides) == len(CASES) == 84
    assert sum(found[1] for found in sides.values()) == 18
    assert _disagreements(darpo_iyama, sides) == []


def test_the_comparison_catches_a_criterion_without_its_tn_disjunct(sides):
    def planted(n_simples: int, loewy: int, d: int) -> bool:
        return 2 * n_simples % (loewy * (d - 1) + 2) == 0

    assert [case for case, _ in _disagreements(planted, sides)] == [
        (2, 3, 2), (2, 4, 1), (3, 5, 2), (4, 4, 1), (6, 3, 2), (8, 4, 1), (9, 5, 2), (10, 3, 2)]
