"""Automorphism orbits of a context's objects.

An automorphism of L that permutes the vertices
(`algebra.vertex_automorphisms`; the rotations of a cyclic Nakayama algebra)
twists every module (`modules.twist`), and twisting is an exact
autoequivalence of mod L that keeps projectives: it carries Hom bases,
covers, kernels, cones, approximations and Hom-vector names to their
counterparts.  So it permutes the indecomposables, and with them a root
context's objects.  `automorphism_images` finds where, by looking up the
fingerprint of each twisted object; the context certifies each permutation
against its E table.  `Symmetries` holds the permutations and names the
orbit-least key of a per-object computation, which is then done once per
orbit and moved to the rest of it.  The knit (`contexts._knit`) reads the
automorphisms through `vertex_automorphisms` here and handles one module
per orbit the same way.
"""

from __future__ import annotations

from collections import Counter

from .algebra import BoundQuiverAlgebra, induced_arrows, vertex_automorphisms
from .decompose import fingerprint
from .modules import Representation, twist


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

    def least(self, idx: int, members=frozenset()) -> tuple[int, int, frozenset[int]]:
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

    def by_orbit(self, compute) -> list:
        """compute(idx), a multiset of object ids, for every object: computed
        at the least member of each orbit and moved to the others."""
        out: list = []
        for idx in range(len(self.perms[0])):
            k, low, _ = self.least(idx)
            out.append(compute(idx) if low == idx else self.pull(k, out[low]))
        return out


def twist_images(algebra: BoundQuiverAlgebra, reps: list[Representation], sigma) -> list[int | None]:
    """Where twisting along the vertex automorphism sigma sends each of the
    indecomposables reps: the index of the one with the twist's fingerprint,
    or None.  The fingerprint is an isomorphism invariant and distinct on the
    indecomposables (`contexts._Pool` raises otherwise), so the lookup names
    the twist exactly."""
    arrows = induced_arrows(algebra.quiver, sigma)
    by_fp = {fingerprint(r): i for i, r in enumerate(reps)}
    return [by_fp.get(fingerprint(twist(r, sigma, arrows))) for r in reps]


def automorphism_images(algebra: BoundQuiverAlgebra, reps: list[Representation]):
    """(sigma, `twist_images(algebra, reps, sigma)`) for each automorphism
    sigma but the identity.  Twisting along tau and then rho is twisting
    along rho o tau, so an automorphism that is such a composite of two
    already placed gets the composite of their images; only the others are
    looked up.  The caller stops at the first images that are not a
    permutation."""
    autos = [tuple(sigma) for sigma in vertex_automorphisms(algebra)]
    placed = {autos[0]: list(range(len(reps)))}
    for sigma in autos[1:]:
        images = None
        for tau, tau_images in placed.items():
            rho = tuple(sigma[u] for u in sorted(range(len(tau)), key=tau.__getitem__))
            if rho in placed:
                images = [placed[rho][i] for i in tau_images]
                break
        if images is None:
            images = twist_images(algebra, reps, sigma)
        placed[sigma] = images
        yield sigma, images
