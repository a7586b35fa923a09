"""Automorphism orbits of a context's objects.

An automorphism of L that permutes the vertices
(`algebra.vertex_automorphisms`; the rotations of a cyclic Nakayama algebra)
twists every module (`modules.twist`), and twisting is an exact
autoequivalence of mod L that keeps projectives: it carries Hom bases,
covers, kernels, cones, approximations and Hom-vector names to their
counterparts.  So it permutes the indecomposables, and with them a root
context's objects.  The knit (`contexts._knit`) records where: its twist
table, one row per module and one column per automorphism, is the one
source of the action, and a root reads each permutation of its objects off
a column, certified against its E table.  `Symmetries` holds the
permutations and names the orbit-least key of a per-object computation,
which is then done once per orbit and moved to the rest of it.  In
`checkers` that computation is the approximation step, the cocone (cone)
of the canonical approximation of an object by a set of members.
"""

from __future__ import annotations

from collections import Counter


class Symmetries:
    """Permutations of a context's object ids, the identity first, each
    induced by an automorphism of the algebra.

    A per-object computation keyed by (object, set of objects) is done once
    per orbit: at the orbit-least key, the one whose object id is least and,
    among those, whose set has the least bitmask."""

    def __init__(self, perms: list[tuple[int, ...]]):
        self.perms = perms
        self.inverses = [tuple(sorted(range(len(g)), key=g.__getitem__)) for g in perms]
        n = len(perms[0])
        lows = [min(g[i] for g in perms) for i in range(n)]
        # the permutations sending each object to the least of its orbit
        self._lowering = [[k for k, g in enumerate(perms) if g[i] == lows[i]] for i in range(n)]

    def least(self, idx: int, members: frozenset[int]) -> tuple[int, int, frozenset[int]]:
        """(k, g idx, g members) for the k-th permutation g making the key
        (idx, members) orbit-least."""
        ks = self._lowering[idx]
        k = ks[0]
        if len(ks) > 1:
            k = min(ks, key=lambda k: sum(1 << self.perms[k][i] for i in members))
        g = self.perms[k]
        return k, g[idx], frozenset(g[i] for i in members) if k else members

    def pull(self, k: int, ids: Counter) -> Counter:
        """The inverse of the k-th permutation on a multiset of ids, in
        ascending id order."""
        if not k:
            return ids
        inv = self.inverses[k]
        return Counter(dict(sorted((inv[i], m) for i, m in ids.items())))
