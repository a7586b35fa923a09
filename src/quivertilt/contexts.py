"""Finite extriangulated contexts over a bound quiver algebra.

Three concrete models share one interface: the exact model (all of mod L for
a finite-representation-type algebra L), the triangulated model (the stable
category of a self-injective L), and extension-closed subcategories of either.
Both roots are the class `Context`, told apart by `kind` ("mod", "stable");
a sub-context is a `SubContext`.  A Context owns a finite list of
indecomposable objects, an E-dimension table, lazily built extension-class
coordinate spaces, detected projectives/injectives, enough-projectives
witnesses kept as the object ids of their cocones (Omega C in a root; the
witnesses' maps are never read), and context-relative syzygies.  Higher
E-dimensions are always computed along both the syzygy and the cosyzygy
route and must agree; a mismatch raises.  A class of E(C, A) is realized as
a conflation A -> B -> C only as far as its callers read it:
`Context.realize` returns the object ids of the middle term B, cached per
class, and forms neither map of the conflation.

The object list is knitted from the Auslander-Reiten quiver of mod L, one
orbit of the algebra's vertex automorphisms at a time (`_knit`).  Every
module the knit meets brings in its twists (`modules.twist`), and the first
module of each orbit leads it: it alone gets tau M = D Tr M, tau^- M =
Tr D M and the middle term of the almost split sequence starting at M,
read off the middle term before it (or rad M) by the knitting rule, and
realized only to seed a periodic tau-orbit.  Twisting is an exact
autoequivalence that keeps projectives and commutes with tau, tau^- and
almost split sequences, so the rest of the orbit gets the leader's answers
moved along the twists.  The finished list holds every
projective and is closed under AR neighbours, so it contains the AR
component of every block; a finite component of a connected algebra is its
whole AR quiver (Auslander's theorem), so the list is every indecomposable.
Objects are numbered by sorting on (total_dim, dims, fingerprint), which is
distinct on the list, so ids do not depend on the order of discovery.

The knit also records the AR mesh: tau Z and the almost split middle term
E_Z of each non-projective Z, and rad P of each projective P.  A root
writes it as the mesh matrix R over all its modules, the projectives a
stable root leaves out included: column Z is e_Z + e_{tau Z} - [E_Z] and
column P is e_P - [rad P].  Applying Hom(X, -) to the almost split sequence
ending at Z and to rad P -> P shows that the Hom matrix H[X][Y] =
dim Hom(X, Y) satisfies H R = I (Auslander-Reiten-Smalo IV.2.14 and VI.5;
the Auslander algebra has global dimension at most 2), so H is R^-1.  It
is inverted once, exactly, and certified: R H = I over the integers, H >= 0,
and the Yoneda row H[P_v][X] and column H[X][I_v] are dim X_v.  The E table
is read off H for every pair: with P(C) the projective cover of C,
dim E(C, A) = dim Hom(Omega C, A) - dim Hom(P(C), A) + dim Hom(C, A), and
Omega C is named by the top of Omega C when it is projective, else by its
Hom vector; one entry per object, E(C, tau C), is checked against
`homology.ext_dim`.

Objects are identified (middle terms, kernels, cokernels, cones named as
multisets of object ids) one way in every root.  A module M is named by its
Hom vector v (dim Hom(X, M)) over every indecomposable module X: by
Auslander (1982) that vector determines a module over a
representation-finite algebra, so M holds R v copies of each X.  An exact
root's modules are its objects; a triangulated root keeps the
indecomposable projectives its object list leaves out as extra columns.  An
answer that is not a non-negative integer vector reproducing v under H and
the dimension vector of M raises.  A triangulated root first takes the
projective-free core of M (a cone may have projective summands;
`stable.strip_projectives` reads their multiplicities off socle ranks) and
raises if a projective is still named.  A sub-context pulls its root's
answer back, and reads its Hom and E tables off its parent's.  A stable
root's Omega C, read off its E table, raises on a projective summand, and
its Sigma C passes through the strip, which finds none (Heller's lemma).

Stable conflations are short exact sequences.  Every short exact sequence
of modules is a triangle in the stable category (Happel 1988), and E(C, A)
there is module Ext^1(C, A), so a triangulated root realizes its classes
with the pushouts of `ExactExtSpace`, as an exact root does.  For the same
reason the cocone of y: X0 -> C is the kernel of (y, pi): X0 + P(C) -> C,
with pi the projective cover of C; P(C) is zero in the stable category.
Cones are the modules of `stable.cone`.  Both ends come from one method,
`Context.conflation_end`, with a `dual` switch; the kind of a context's root
(`Context.root_kind`) is fixed when the context is built.

Work is shared across automorphism orbits (`orbits`).  The knit handles
one module per orbit and files every module's twists in its twist table,
the one source of where each automorphism of L sends a root's modules.  The
E table takes Omega C once per orbit and moves it along the table, and
`Context.symmetries` holds the table's columns on the objects, each
certified to permute the modules and the objects and to keep the E table,
which is therefore filled for every pair.  Its Omega C are the cocones of
the enough-projectives witnesses; the enough-injectives ones are named once
per orbit, and the checkers key their per-object caches by orbit;
`hom_support` reads the Hom table.  A sub-context has only the identity.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import mul

from .algebra import (
    BoundQuiverAlgebra,
    induced_arrows,
    injective_module,
    projective_module,
    simple_module,
    vertex_automorphisms,
)
from . import linalg
from .decompose import fingerprint, indecomposable_isomorphic, radical_basis, summand_split
from .homology import (
    approximation,
    ar_translate,
    cosyzygy,
    ext_dim,
    injective_hull,
    minimal_resolution,
    projective_cover,
    syzygy,
)
from .modules import (
    HomQuotient,
    ModuleMap,
    Representation,
    cokernel,
    direct_sum,
    end_vertex,
    hom_basis,
    hom_dim,
    is_end,
    kernel,
    linear_combination,
    summand_maps,
    twist,
)
from .orbits import Symmetries
from .stable import cone, require_self_injective, strip_projectives


class ContextError(Exception):
    pass


# The most classes up to scalars that a walk over the lines of one E(C, A)
# (or Ext^1(tau^- M, M) in the knit) takes.
EXHAUSTION_BOUND = 4096


class RunConfig:
    """Budgets and reproducibility knobs shared by builders, checkers and CLI.
    Equal when every attribute is; no attribute is rebound."""

    __slots__ = ("field_char", "seed", "enumeration_budget", "subset_budget")

    def __init__(self, field_char: int = 2, seed: int = 0, enumeration_budget: int = 10000,
                 subset_budget: int = 1 << 20):
        self.field_char, self.seed = field_char, seed
        self.enumeration_budget, self.subset_budget = enumeration_budget, subset_budget

    def __eq__(self, other) -> bool:
        return isinstance(other, RunConfig) and self.to_dict() == other.to_dict()

    def validate(self):
        for flag, value in (("--budget", self.enumeration_budget), ("--subset-budget", self.subset_budget)):
            if value < 1:
                raise ContextError(f"{flag} must be >= 1")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class ContextObject:
    """Object `index` of a context: its label, module and aliases.  Equal
    only to itself; no attribute is rebound."""

    __slots__ = ("index", "label", "rep", "aliases")

    def __init__(self, index: int, label: str, rep: Representation, aliases: tuple[str, ...] = ()):
        self.index, self.label, self.rep, self.aliases = index, label, rep, aliases


# -- extension-class coordinate spaces --------------------------------------


class ExactExtSpace(HomQuotient):
    """Ext^1(C, A) with Yoneda coordinates on Hom(Omega C, A) modulo the
    restrictions of Hom(P(C), A); realizes classes as pushouts of the
    presentation conflation."""

    def __init__(self, c_rep: Representation, a_rep: Representation):
        self.c = c_rep
        self.a = a_rep
        res = minimal_resolution(c_rep)
        res.extend(0)
        self.p0 = res.terms[0]
        self.j = res.syzygy_incls[0]
        super().__init__(self.j, a_rep)

    def realize(self, coords) -> tuple[Representation, ModuleMap]:
        """Middle term B of the class, the pushout of P0 <- Omega C -> A
        along the representative t, with its projection from P0 + A."""
        t = self.representative(coords)
        pair = [self.p0, self.a]
        incl_p0, incl_a = summand_maps(direct_sum(pair), pair)
        glue = linear_combination([incl_p0.compose(self.j), incl_a.compose(t)], (1, -1))
        return cokernel(glue)


class StableExtSpace(ExactExtSpace):
    """E(C, A) in the stable category of a self-injective algebra: module
    Ext^1(C, A), realized by the same short exact sequences, since each of
    them is a triangle there (Happel 1988).  Its coordinates are those of
    stable Hom(Omega C, A): a map into the projective-injective P0 extends
    along Omega C -> P0, so factoring through a projective and through that
    inclusion pick out the same maps."""

    # bound in the class itself: perfbench traces the stable realizations
    # apart from the exact ones, reading the method from the class __dict__
    realize = ExactExtSpace.realize


# -- identification by Hom vectors ------------------------------------------


class HomVectors:
    """Multiplicities of indecomposables in a module, from Hom dimensions.

    Over a representation-finite algebra a module M is determined by the
    vector v_j = dim Hom(X_j, M) as X_j runs over the indecomposables
    (Auslander 1982).  So for a complete list X_1..X_n, M is the sum of m_i
    copies of X_i where H m = v and H[j][i] = dim Hom(X_j, X_i).  H and its
    inverse R come from the root's AR mesh (`_mesh_hom_vectors`), so
    m = R v and no Hom matrix is solved here.  Every answer is checked to be
    a non-negative integer vector with H m = v and the dimension vector of M,
    so an incomplete list raises instead of naming a wrong module.  H and R
    are tuples of rows."""

    def __init__(self, reps: list[Representation], h: tuple, r: tuple):
        self.reps = reps
        self.h = h
        self._h_cols = list(zip(*h))
        # R is sparse, a few mesh terms per row: each row as its nonzero (j, entry)
        self.r = [[(j, x) for j, x in enumerate(row) if x] for row in r]
        # Hom(P_v, M) = M_v (Yoneda): projective probes are read off dims
        self.probe_vertex = [end_vertex(x) for x in reps]
        self.dims = [x.dims for x in reps]

    def identify(self, m: Representation) -> Counter:
        """Object ids of m with multiplicities, in ascending id order."""
        v = [m.dims[u] if u is not None else hom_dim(x, m) for x, u in zip(self.reps, self.probe_vertex)]
        mult = [sum(x * v[j] for j, x in row) for row in self.r]
        if (min(mult) < 0 or _row_combination(mult, self._h_cols, len(v)) != v
                or _row_combination(mult, self.dims, len(m.dims)) != list(m.dims)):
            raise ContextError(f"module of dimension vector {m.dims} is not a sum of context objects")
        return Counter({i: k for i, k in enumerate(mult) if k})


def _row_combination(coeffs, rows, width: int) -> list[int]:
    """sum c_j rows[j] over the nonzero integers c_j, cut to its first width
    entries."""
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return out


def _submatrix(table: tuple, ids) -> tuple:
    """The rows and columns ids of a square table, in that order."""
    return tuple(tuple(table[i][j] for j in ids) for i in ids)


def _integer_inverse(h: list[list[int]]) -> tuple[list[list[int]], int]:
    """(K, D) with K / D the inverse of the integer matrix h in lowest terms
    (D > 0), by fraction-free Gauss-Jordan elimination (Bareiss) over the
    integers; raises if h is singular.

    Each step replaces every other row by (pivot * row - entry * pivot row)
    divided by the previous pivot, a division that is exact by Sylvester's
    identity.  It ends with det h (up to the sign of the row swaps) on the
    whole diagonal and adj h times the same sign on the right."""
    n = len(h)
    rows = [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(h)]
    prev = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            raise ContextError("the AR mesh matrix of the modules is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        for i in range(n):
            f = rows[i][col]
            # with f = 0 and lead = prev the step leaves the row as it is
            if i != col and (f or lead != prev):
                rows[i] = [(lead * x - f * y) // prev for x, y in zip(rows[i], rows[col])]
        prev = lead
    det = prev
    adj = [row[n:] for row in rows]
    g = math.gcd(det, *(x for row in adj for x in row))
    sign = 1 if det > 0 else -1
    return [[sign * x // g for x in row] for row in adj], abs(det) // g


def _as_counter(target) -> Counter:
    """A multiset of object ids; a bare id counts once."""
    return target if isinstance(target, Counter) else Counter({int(target): 1})


def _bilinear(dim, c, a) -> int:
    """dim extended to multisets of object ids: the sum of m * n * dim(i, j)
    over the ids i of c and j of a, with multiplicities m and n."""
    return sum(m * n * dim(i, j) for i, m in _as_counter(c).items() for j, n in _as_counter(a).items())


# -- symmetries ----------------------------------------------------------------


def _root_symmetries(ctx: "Context", moves: list[tuple[int, ...]], autos) -> Symmetries:
    """The permutations of a root's objects induced by the algebra's
    automorphisms autos, the identity first, read off the columns of the
    knit's twist table: moves[k] names the twist of each module (the
    objects, then the dropped projectives) along autos[k].  A twist is an
    exact autoequivalence, so each column must permute the modules and the
    objects and keep the E table; one that does not raises."""
    n = ctx.n_objects
    perms = [tuple(range(n))]
    for sigma, images in zip(autos[1:], moves[1:]):
        pi = images[:n]
        if sorted(images) != list(range(len(images))) or sorted(pi) != list(perms[0]):
            raise ContextError(f"the automorphism {sigma} of the algebra does not permute the context objects")
        if _submatrix(ctx.e1, pi) != ctx.e1:
            raise ContextError(f"the automorphism {sigma} of the algebra does not keep the E table")
        if pi not in perms:
            perms.append(pi)
    return Symmetries(perms)


# -- the context itself ------------------------------------------------------


class Context:
    def __init__(self, kind: str, algebra: BoundQuiverAlgebra, config: RunConfig,
                 parent: Context | None = None):
        self.kind = kind  # "mod" | "stable" | "sub"
        self.algebra = algebra
        self.config = config
        self.objects: list[ContextObject] = []
        self.parent = parent
        # the kind of the root context: "mod" | "stable"
        self.root_kind = kind if parent is None else parent.root_kind
        self.parent_ids: list[int] = []  # sub only: parent index per object
        # Integer tables over the objects are tuples of rows.
        self.e1: tuple | None = None
        self.hom: tuple | None = None  # dim Hom(X, Y) over the objects, as modules
        self._ext_spaces: dict[tuple[int, int], object] = {}
        self._conflation_cache: dict[tuple[int, int, tuple[int, ...]], Counter] = {}  # middle-term ids
        self._shift_cache: dict[tuple[bool, int, int], Counter] = {}
        self._ek_cache: dict[tuple[int, int, int], int] = {}
        self._witnesses: dict[bool, dict[int, Counter]] = {}
        self._omega: dict[int, Counter] = {}  # roots: Omega C by object id, kept from the E table
        self._hom_support: dict[tuple[int, bool], frozenset[int]] = {}
        self._hom_vectors: HomVectors | None = None  # roots: read off the AR mesh
        self.symmetries: Symmetries | None = None  # object permutations by automorphisms of L
        self._ek_tables: dict[int, tuple] = {}
        self.dropped_projectives: list[Representation] = []  # stable roots: every P_v
        self.projective_ids: frozenset[int] = frozenset()
        self.injective_ids: frozenset[int] = frozenset()

    # -- object bookkeeping ---------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def object_names(self) -> list[str]:
        return [o.label for o in self.objects]

    def resolve_name(self, name: str) -> int:
        for o in self.objects:
            if name == o.label or name in o.aliases:
                return o.index
        raise ContextError(f"unknown object id {name!r}")

    def identify_sum(self, rep: Representation) -> Counter:
        """Decompose a rep into context object ids, in ascending id order.
        A root solves for the multiplicities by Hom vectors over every
        indecomposable module; a triangulated one first takes the
        projective-free core (`stable.strip_projectives`), and the projectives
        stay columns of the solve, so one left in the core still raises.  A
        sub-context pulls its root's answer back.  A summand that is not a
        context object raises."""
        if rep.total_dim == 0:
            return Counter()
        if self.parent is not None:
            return self._pull_ids(self.parent.identify_sum(rep))
        if self.kind == "stable":
            rep = strip_projectives(rep)
        ids = self._hom_vectors.identify(rep)
        if any(i >= self.n_objects for i in ids):
            raise ContextError(f"module of dimension vector {rep.dims} has a projective summand")
        return ids

    # -- E-dimensions ------------------------------------------------------

    def e_dim(self, c, a) -> int:
        """dim E(c, a); arguments are object ids or Counters over ids."""
        if isinstance(c, Counter) or isinstance(a, Counter):
            return _bilinear(self.e_dim, c, a)
        return self.e1[c][a]

    def ext_space(self, c_idx: int, a_idx: int):
        key = (c_idx, a_idx)
        space = self._ext_spaces.get(key)
        if space is None:
            space = self._build_ext_space(c_idx, a_idx)
            self._ext_spaces[key] = space
        return space

    def _build_ext_space(self, c_idx: int, a_idx: int):
        space_class = StableExtSpace if self.kind == "stable" else ExactExtSpace
        space = space_class(self.objects[c_idx].rep, self.objects[a_idx].rep)
        if space.dim != self.e1[c_idx][a_idx]:
            raise ContextError("extension coordinates disagree with the E table")
        return space

    def realize(self, c_idx: int, a_idx: int, coords) -> Counter:
        """Object ids of the middle term of the class of E(c, a) with the
        given coordinates (cached); no map of the conflation is formed."""
        key = (c_idx, a_idx, tuple(int(v) for v in coords))
        hit = self._conflation_cache.get(key)
        if hit is None:
            b = self.ext_space(c_idx, a_idx).realize(coords)[0]
            hit = self._conflation_cache[key] = self.identify_sum(b)
        return hit

    def class_lines(self, c_idx: int, a_idx: int):
        """One class per line of E(c, a), in lexicographic order: the nonzero
        classes up to scalars, since lambda delta and delta have isomorphic
        middle terms.  Respects the exhaustion bound."""
        d = self.e_dim(c_idx, a_idx)
        p = self.algebra.p
        lines = (p**d - 1) // (p - 1)
        if lines > EXHAUSTION_BOUND:
            raise ContextError(
                f"E({self.object_names[c_idx]}, {self.object_names[a_idx]}) has "
                f"{lines} classes up to scalars, above the exhaustion bound "
                f"{EXHAUSTION_BOUND}; lower p or the context size"
            )
        return _class_lines(p, d)

    # -- deflations, cocones, cones ----------------------------------------

    def conflation_end(self, f: ModuleMap, dual: bool = False) -> Counter | None:
        """Object ids of the cocone of f when f is a deflation (with `dual`,
        of the cone of f when it is an inflation), else None.

        In an exact root a deflation is an epi with its kernel as cocone (an
        inflation a mono with its cokernel as cone).  A triangulated root
        takes every map.  Its cone is `stable.cone`, and the cocone of
        y: X0 -> C is the kernel K of (y, pi): X0 + P -> C, with pi: P -> C
        the projective cover held by C's minimal resolution: the map is onto,
        so 0 -> K -> X0 + P -> C -> 0 is exact, hence a triangle
        K -> X0 -> C -> Sigma K in the stable category, where P is zero.  A
        sub-context also needs the cocone (cone) inside it."""
        if self.root_kind == "mod":
            if not (f.is_mono() if dual else f.is_epi()):
                return None
            end = (cokernel if dual else kernel)(f)[0]
        elif dual:
            end = cone(f)
        else:
            res = minimal_resolution(f.target)
            res.extend(0, syzygy=False)
            pair = [f.source, res.terms[0]]
            to_x0, to_cover = summand_maps(direct_sum(pair), pair, dual=True)
            end = kernel(linear_combination([f.compose(to_x0), res.diffs[0].compose(to_cover)], (1, 1)))[0]
        try:
            return self.identify_sum(end)
        except ContextError:
            if self.kind != "sub":
                raise
            return None

    def hom_support(self, idx: int, dual: bool = False) -> frozenset[int]:
        """The objects x with Hom(x, C) != 0 (with `dual`, Hom(C, x) != 0)
        for the object C, as module maps, read off the Hom table."""
        key = (idx, dual)
        hit = self._hom_support.get(key)
        if hit is None:
            row = self.hom[idx] if dual else [r[idx] for r in self.hom]
            hit = self._hom_support[key] = frozenset(i for i, x in enumerate(row) if x)
        return hit

    def _pull_ids(self, parent_ids: Counter) -> Counter:
        """Parent object ids as ids of this sub-context; raises for an
        object outside it."""
        back = {pid: i for i, pid in enumerate(self.parent_ids)}
        out = Counter()
        for pid, m in parent_ids.items():
            if pid not in back:
                raise ContextError(
                    f"object {self.parent.object_names[pid]} falls outside the subcategory"
                )
            out[back[pid]] += m
        return out

    # -- projectives, injectives, witnesses ---------------------------------

    def detect_projectives(self):
        self.projective_ids = frozenset(i for i, row in enumerate(self.e1) if not any(row))
        self.injective_ids = frozenset(j for j, col in enumerate(zip(*self.e1)) if not any(col))

    def enough(self, dual: bool = False) -> tuple[bool, dict[int, Counter]]:
        """Whether every object has a deflation from a projective (with `dual`,
        an inflation into an injective) of the context, and their cocones
        (cones) by object id: a root's Omega C off its E table (Sigma C)."""
        if dual not in self._witnesses:
            self._witnesses[dual] = self._find_enough_witnesses(dual)
        witnesses = self._witnesses[dual]
        return all(idx in witnesses for idx in range(self.n_objects)), witnesses

    def _find_enough_witnesses(self, dual: bool) -> dict[int, Counter]:
        """A root's witness for C is the projective cover (injective hull)
        in an exact root and the zero map 0 -> C (C -> 0) in a triangulated
        one.  Either way its cocone is Omega C, as `_e1_table` named it, and
        its cone Sigma C, named from the cached `homology.cosyzygy` once per
        orbit, through the strip in a stable root (Heller's lemma: a no-op)."""
        if not dual:
            return self._omega
        ends = self.symmetries.by_orbit(lambda i: self.identify_sum(cosyzygy(self.objects[i].rep)))
        return dict(enumerate(ends))

    # -- context-relative syzygies ------------------------------------------

    def shift(self, k: int, idx: int, dual: bool = False) -> Counter:
        """Omega^k (with `dual`, Sigma^k) within the context, as a multiset of
        object ids: k steps of taking cocones of the enough-projectives
        witnesses (cones of the enough-injectives ones), dropping context
        projectives (injectives)."""
        if k == 0:
            return Counter({idx: 1})
        hit = self._shift_cache.get((dual, k, idx))
        if hit is not None:
            return hit
        if k == 1:
            ok, witnesses = self.enough(dual)
            if idx not in witnesses:
                raise ContextError(
                    f"object {self.object_names[idx]} has no "
                    + ("inflation into an injective" if dual else "deflation from a projective")
                )
            forced = self.injective_ids if dual else self.projective_ids
            hit = Counter({i: m for i, m in witnesses[idx].items() if i not in forced})
        else:
            hit = Counter()
            for i, m in self.shift(k - 1, idx, dual).items():
                for j, mj in self.shift(1, i, dual).items():
                    hit[j] += m * mj
        self._shift_cache[(dual, k, idx)] = hit
        return hit

    def e_k_dim(self, k: int, c, a) -> int:
        """dim E^k; computes the syzygy route and checks the cosyzygy route."""
        if k < 1:
            raise ContextError("extension degree must be >= 1")
        if isinstance(c, Counter) or isinstance(a, Counter):
            return _bilinear(lambda i, j: self.e_k_dim(k, i, j), c, a)
        if k == 1:
            return self.e_dim(c, a)
        hit = self._ek_cache.get((k, c, a))
        if hit is not None:
            return hit
        omega_route = self.e_dim(self.shift(k - 1, c), a)
        sigma_route = self.e_dim(c, self.shift(k - 1, a, dual=True))
        if omega_route != sigma_route:
            raise ContextError(
                f"syzygy route E^{k}({self.object_names[c]},{self.object_names[a]}) = "
                f"{omega_route} but cosyzygy route = {sigma_route}; "
                "context construction is inconsistent"
            )
        self._ek_cache[(k, c, a)] = omega_route
        return omega_route

    def e_k_table(self, k: int) -> tuple:
        """The table of dim E^k over every pair of objects, built once per
        context and degree."""
        out = self._ek_tables.get(k)
        if out is None:
            n = self.n_objects
            out = self._ek_tables[k] = tuple(tuple(self.e_k_dim(k, c, a) for a in range(n)) for c in range(n))
        return out

    # -- approximations within the context ------------------------------------

    def approx(self, member_ids, c_idx: int, dual: bool = False) -> ModuleMap:
        """Canonical right (with `dual`, left) approximation of the object by
        add(members)."""
        c_rep = self.objects[c_idx].rep
        members = [self.objects[i].rep for i in sorted(set(member_ids))]
        return approximation(members, c_rep, dual)

    def approximation_surplus(self, member_ids, c_idx: int, dual: bool = False) -> Counter:
        """The summands by which the source of `approx` (with `dual`, its
        target) exceeds that of the minimal approximation of the object C.

        `approx` takes dim Hom(x, C) copies of each member x, and the minimal
        right approximation dim Hom(x, C) - dim rad_X(x, C), where rad_X(x, C)
        is spanned by the composites x -> y -> C with y a member and x -> y
        radical: any map when y != x, rad End(x) when y = x (End(x)/rad = F_p,
        as the knit requires).  In a stable root the maps through a
        projective, through x -> I(x), are radical too.  Dually for left
        approximations."""
        c, p = self.objects[c_idx].rep, self.algebra.p
        reps = {i: self.objects[i].rep for i in member_ids}

        def maps(a, b):  # a basis of the maps a -> b, read against the approximation
            return hom_basis(b, a) if dual else hom_basis(a, b)

        out = Counter()
        for x, rep in reps.items():
            endos = hom_basis(rep, rep)
            links = [(y, maps(rep, y)) for i, y in reps.items() if i != x]
            links.append((rep, [linear_combination(endos, v) for v in radical_basis(endos, p)]))
            if self.root_kind == "stable":
                end, f = (projective_cover if dual else injective_hull)(rep)
                links.append((end, [f]))
            flat = [(r.compose(g) if dual else g.compose(r)).flatten()
                    for y, rs in links for r in rs for g in maps(y, c)]
            out[x] = linalg.rank(linalg.Matrix(tuple(flat), len(flat[0])), p) if flat else 0
        return +out

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "algebra": repr(self.algebra),
            "objects": [
                {
                    "label": o.label,
                    "dims": list(o.rep.dims),
                    "projective": o.index in self.projective_ids,
                    "injective": o.index in self.injective_ids,
                    "aliases": list(o.aliases),
                }
                for o in self.objects
            ],
        }


class SubContext(Context):
    def __init__(self, parent: Context, parent_ids: list[int], config):
        super().__init__("sub", parent.algebra, config, parent)
        self.parent_ids = list(parent_ids)

    def _build_ext_space(self, c_idx, a_idx):
        return self.parent.ext_space(self.parent_ids[c_idx], self.parent_ids[a_idx])

    def _find_enough_witnesses(self, dual: bool) -> dict[int, Counter]:
        found = {o.index: self._witness_for(o.index, dual) for o in self.objects}
        return {i: ends for i, ends in found.items() if ends is not None}

    def _witness_for(self, idx: int, dual: bool) -> Counter | None:
        """The cocone ids of a deflation from add(P), P the context
        projectives, onto the object with cocone in the sub-context (with
        `dual`, the cone ids of an inflation into add(I) with cone in it),
        or None.  The canonical approximation h is the only map from add(P)
        to try: a deflation f from add(P) with cocone K in the sub-context
        is a right add(P)-approximation, as E(P, K) = 0, so f and h are each
        the minimal approximation plus a zero map from add(P), and h has
        cocone K_min + P'', in the sub-context with K (dually for
        inflations into add(I))."""
        forced = sorted(self.injective_ids if dual else self.projective_ids)
        # objects that are themselves projective/injective: identity works
        if idx in forced:
            return Counter()
        # the zero map: cocone Omega C (cone Sigma C) computed in the parent
        if self.root_kind == "stable":
            try:
                return self._pull_ids(self.parent.shift(1, self.parent_ids[idx], dual))
            except ContextError:
                pass
        # canonical: approximation by the context projectives/injectives
        return self.conflation_end(self.approx(forced, idx, dual), dual) if forced else None


# -- object enumeration and builders ----------------------------------------


class _Pool:
    """Indecomposables by isomorphism class, keyed by fingerprint.

    Two non-isomorphic modules with one fingerprint would share the sort key
    (total_dim, dims, fingerprint) that numbers the objects, so their ids
    would depend on the order they were found in: that raises."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.reps: list[Representation] = []
        self._by_fp: dict[tuple, int] = {}

    def index(self, rep: Representation) -> int:
        """Pool index of the indecomposable rep, added when new."""
        fp = fingerprint(rep)
        hit = self._by_fp.get(fp)
        if hit is not None:
            if indecomposable_isomorphic(self.reps[hit], rep):
                return hit
            raise ContextError(
                f"two indecomposables of dimension vector {rep.dims} share a "
                "fingerprint, so object ids would depend on discovery order"
            )
        if len(self.reps) >= self.config.enumeration_budget:
            raise ContextError(
                f"enumeration budget exceeded: {len(self.reps)} objects found and "
                f"more remain; raise --budget (the algebra may be of infinite "
                "representation type)"
            )
        self._by_fp[fp] = len(self.reps)
        self.reps.append(rep)
        return len(self.reps) - 1

    def add_summands(self, rep: Representation) -> Counter:
        """Pool indices of the summands of rep, with multiplicities."""
        if not rep.total_dim:
            return Counter()
        return Counter(self.index(piece) for piece in summand_split(rep, self.config.seed))


def _class_lines(p: int, d: int):
    """One vector per line of F_p^d: those whose first nonzero entry is 1,
    in lexicographic order."""
    for lead in reversed(range(d)):
        for tail in itertools.product(range(p), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


class _Mesh:
    """The Auslander-Reiten mesh a knit records, by module id: tau Z and the
    almost split middle term E_Z of each non-projective Z, rad P of each
    projective P, and each module's twists along the algebra's vertex
    automorphisms autos (the identity first).  The knit fills the
    containers in place, but no attribute is rebound; equal only to itself."""

    __slots__ = ("tau", "middle", "rad", "twists", "autos")

    def __init__(self, tau: dict[int, int] | None = None, middle: dict[int, Counter] | None = None,
                 rad: dict[int, Counter] | None = None, twists: dict[int, list[int]] | None = None,
                 autos: list[tuple[int, ...]] | None = None):
        self.tau, self.middle, self.rad, self.twists = (
            {} if d is None else d for d in (tau, middle, rad, twists))
        self.autos = [] if autos is None else autos

    def renumber(self, order: list[int]) -> "_Mesh":
        """The mesh with module order[i] renamed i."""
        new = {old: i for i, old in enumerate(order)}

        def ids(c: Counter) -> Counter:
            return Counter({new[j]: m for j, m in c.items()})

        return _Mesh({new[z]: new[t] for z, t in self.tau.items()},
                     {new[z]: ids(c) for z, c in self.middle.items()},
                     {new[q]: ids(c) for q, c in self.rad.items()},
                     {new[x]: [new[y] for y in ys] for x, ys in self.twists.items()}, self.autos)

    def matrix(self, size: int) -> tuple:
        """R: column Z is e_Z + e_{tau Z} - [E_Z], column P is e_P - [rad P]."""
        if sorted([*self.middle, *self.rad]) != list(range(size)) or self.tau.keys() != self.middle.keys():
            raise ContextError("the knit recorded no mesh relation, or two, for some module")
        r = [[int(i == j) for j in range(size)] for i in range(size)]
        for z, t in self.tau.items():
            r[t][z] += 1
        for table in (self.middle, self.rad):
            for col, ids in table.items():
                for j, m in ids.items():
                    r[j][col] -= m
        return tuple(map(tuple, r))

    def successors(self, m: int, tau_inv) -> Counter:
        """The summands of E_{tau^- m}, read off the term before m: tau^- of
        each non-injective summand of E_m (rad m for a projective m), and
        each projective P with m a summand of rad P, with the same
        multiplicities.  tau_inv(y) is tau^- y, or None for an injective y."""
        out = Counter()
        for y, mult in (self.rad[m] if m in self.rad else self.middle[m]).items():
            z = tau_inv(y)
            if z is not None:
                out[z] += mult
        for q, rad in self.rad.items():
            if m in rad:
                out[q] += rad[m]
        return out


def _almost_split_middle(z: Representation, m: Representation) -> Representation:
    """The middle term B of the almost split sequence 0 -> M -> B -> Z -> 0,
    Z = tau^- M.  `_knit` realizes it only to seed a periodic tau-orbit, one
    whose middle terms cannot be read off a projective's radical.

    Hom(Z, -) turns a class delta of Ext^1(Z, M) into the exact sequence
    0 -> Hom(Z, M) -> Hom(Z, B) -> End(Z) -> Ext^1(Z, M), whose last map is
    f -> delta f.  The class is almost split iff delta rad End(Z) = 0, that
    is, iff it lies in the socle of Ext^1(Z, M) = D stable End(Z), which has
    dimension [End(Z)/rad : F_p] (Auslander-Reiten-Smalo V.2).  With
    End(Z)/rad = F_p that socle is the one line with hom(Z, B) =
    hom(Z, M) + hom(Z, Z) - 1; and an Ext^1(Z, M) of one line is that
    socle."""
    p = m.algebra.p
    space = ExactExtSpace(z, m)
    lines = (p**space.dim - 1) // (p - 1)
    if not lines:
        raise ContextError(f"Ext^1(tau^- M, M) = 0 for M of dimension vector {m.dims}")
    if lines > EXHAUSTION_BOUND:
        raise ContextError(
            f"Ext^1(tau^- M, M) of dimension {space.dim} over F_{p} has {lines} "
            f"classes up to scalars, above the bound {EXHAUSTION_BOUND}"
        )
    middles = (space.realize(coords)[0] for coords in _class_lines(p, space.dim))
    if lines == 1:
        return next(middles)
    want = hom_dim(z, m) + hom_dim(z, z) - 1
    hits = [b for b in middles if hom_dim(z, b) == want]
    if len(hits) != 1:
        raise ContextError(
            f"Ext^1(tau^- M, M) for M of dimension vector {m.dims} has {len(hits)} almost "
            f"split lines, not one: End(tau^- M)/rad is larger than F_{p}"
        )
    return hits[0]


def _knit(pool: _Pool, algebra: BoundQuiverAlgebra) -> _Mesh:
    """Close the pool under the Auslander-Reiten quiver of mod L, one orbit
    of the vertex automorphisms (`algebra.vertex_automorphisms`) at a time,
    and return its mesh.

    Every module the pool gains is placed: its twists along each
    automorphism are looked up, which adds those not yet in the pool.  The
    first module placed of each orbit leads it.  The pool is seeded with
    S_v, P_v and I_v and the summands of rad P_v = Omega S_v and
    I_v / soc I_v = Sigma S_v, for one vertex v of each vertex orbit.  Then
    each leader M gets tau M (unless projective) and tau^- M (unless
    injective), and, unless injective, the almost split middle term E_Z,
    Z = tau^- M.  Each translate is computed once per orbit, on demand,
    since tau^- M = N records tau N = M.

    E_Z is read off the mesh, not realized (`_Mesh.successors`): it is
    tau^- of the non-injective summands of the term before M (E_M, or rad M
    for a projective M) and each projective P with M a summand of rad P, with
    the same multiplicities (Gabriel 1980; Auslander-Reiten-Smalo VII).
    That needs the term before M, so it walks tau down from Z until a
    recorded term or a projective's radical.  Only a periodic orbit with no
    recorded term, where the walk comes back to Z, realizes one
    (`_almost_split_middle`) and splits it; its seed is to it what rad P is
    to the orbit of P.  The rule holds when End(X)/rad = F_p for every
    indecomposable X, so that arrows of the AR quiver carry equal
    multiplicities both ways.  Were a residue field larger, multiplicities
    would scale: a derived E_Z must have the dimension vector of Z plus
    that of tau Z, or the knit raises (and the mesh would not invert to a
    certified Hom table).

    Each answer is moved along the twists to the rest of the orbit:
    twisting is an exact autoequivalence that keeps projectives, so it
    commutes with tau, tau^-, radicals and almost split sequences.

    The finished pool is every indecomposable.  It holds every projective
    (the seeded P_v and their twists, which are the other P_w), and with
    each module M its AR neighbours: the summands of E_M (of rad M for a
    projective M) and of E_{tau^- M} (of M / soc M, seeded, for an
    injective M).  A middle term read off the mesh names only modules the
    knit has added, and a realized one is split and its summands added.  So
    every AR component that meets the pool lies in it and is finite, and a
    finite component of a connected algebra is its whole AR quiver
    (Auslander's theorem; Auslander-Reiten-Smalo VI.1).  Every block has a
    projective in the pool, so the loop is the certificate of completeness.
    On an algebra of infinite type the pool grows until the enumeration
    budget raises."""
    autos = vertex_automorphisms(algebra)
    arrows = [induced_arrows(algebra.quiver, s) for s in autos]
    where = {s: k for k, s in enumerate(autos)}
    # product[k][l]: the index of autos[k] after autos[l], when listed
    product = [[where.get(tuple(s[v] for v in t)) for t in autos] for s in autos]
    mesh = _Mesh(autos=autos)
    leaders: set[int] = set()
    injective: set[int] = set()
    tau_inv: dict[int, int] = {}
    placed = 0

    def twist_of(i: int, k: int) -> int:
        return pool.index(twist(pool.reps[i], autos[k], arrows[k]))

    def place():
        nonlocal placed
        while placed < len(pool.reps):
            i, placed = placed, placed + 1
            if i in mesh.twists:
                continue
            leaders.add(i)
            orbit = [i] + [twist_of(i, k) for k in range(1, len(autos))]
            for l, j in enumerate(orbit):
                if j not in mesh.twists:
                    mesh.twists[j] = [orbit[kl] if kl is not None else twist_of(j, k)
                                      for k, kl in enumerate(row[l] for row in product)]

    def index(rep: Representation) -> int:
        i = pool.index(rep)
        place()
        return i

    def summands(rep: Representation) -> Counter:
        ids = pool.add_summands(rep)
        place()
        return ids

    def relate(t: int, z: int):
        """t = tau z, and so along every twist."""
        for a, b in zip(mesh.twists[t], mesh.twists[z]):
            mesh.tau[b] = a
            tau_inv[a] = b

    def translate(i: int, inverse: bool = False) -> int | None:
        """tau i (tau^- i), or None for a projective (injective) i."""
        known, ends = (tau_inv, injective) if inverse else (mesh.tau, mesh.rad)
        if i in ends:
            return None
        if i not in known:
            j = index(ar_translate(pool.reps[i], inverse))
            relate(*((i, j) if inverse else (j, i)))
        return known[i]

    def record(table: dict, key: int, ids: Counter):
        """table[key] = ids, and so along every twist."""
        for k, image in enumerate(mesh.twists[key]):
            table[image] = Counter({mesh.twists[j][k]: m for j, m in ids.items()})

    def derive(z: int):
        """Record E_z, and first each middle term down z's tau-orbit it needs."""
        walk = [z]
        while walk[-1] not in mesh.middle:
            t = translate(walk[-1])
            if t in mesh.rad:
                break
            if t == z:
                middle = _almost_split_middle(pool.reps[z], pool.reps[mesh.tau[z]])
                record(mesh.middle, z, summands(middle))
                break
            walk.append(t)
        for w in reversed(walk):
            if w in mesh.middle:
                continue
            ids = mesh.successors(mesh.tau[w], lambda y: translate(y, inverse=True))
            want = [x + y for x, y in zip(pool.reps[w].dims, pool.reps[mesh.tau[w]].dims)]
            got = _row_combination(ids.values(), [pool.reps[j].dims for j in ids], len(want))
            if got != want:
                raise ContextError(
                    f"the middle term read off the mesh for Z of dimension vector {pool.reps[w].dims} "
                    f"has dimension vector {tuple(got)}, not that of Z plus tau Z: "
                    "End/rad of some module is larger than F_p"
                )
            record(mesh.middle, w, ids)

    place()
    covered: set[int] = set()
    seeds = []
    for v, vid in enumerate(algebra.quiver.vertex_ids):
        if v not in covered:
            covered.update(s[v] for s in autos)
            simple = simple_module(algebra, vid)
            index(simple)
            seeds.append((simple, index(projective_module(algebra, vid))))
            injective.update(mesh.twists[index(injective_module(algebra, vid))])
    for simple, pv in seeds:
        record(mesh.rad, pv, summands(syzygy(simple)))
        summands(cosyzygy(simple))
    i = 0
    while i < len(pool.reps):
        if i in leaders:
            translate(i)
            z = translate(i, inverse=True)
            if z is not None:
                derive(z)
        i += 1
    return mesh


def _knitted(algebra: BoundQuiverAlgebra, config: RunConfig) -> tuple[list[Representation], _Mesh]:
    """The indecomposables sorted by (total_dim, dims, fingerprint), and
    their mesh."""
    pool = _Pool(config)
    mesh = _knit(pool, algebra)
    reps = pool.reps
    order = sorted(range(len(reps)), key=lambda i: (reps[i].total_dim, reps[i].dims, fingerprint(reps[i])))
    return [pool.reps[i] for i in order], mesh.renumber(order)


def _label_objects(ctx: Context):
    """Stable labels: P/I/S aliases where the object is one, else m<k>.
    The aliases are read off invariants (`modules.end_vertex`, total
    dimension 1 for a simple), ordered by vertex and then P, I, S."""
    ids = ctx.algebra.quiver.vertex_ids
    labelled = []
    for o in ctx.objects:
        at = {"P": end_vertex(o.rep), "I": end_vertex(o.rep, dual=True),
              "S": o.rep.dims.index(1) if o.rep.total_dim == 1 else None}
        aliases = tuple(f"{kind}{vid}" for v, vid in enumerate(ids) for kind in "PIS" if at[kind] == v)
        labelled.append(ContextObject(o.index, aliases[0] if aliases else f"m{o.index}", o.rep, aliases))
    ctx.objects = labelled


def _mesh_hom_vectors(reps: list[Representation], mesh: _Mesh) -> HomVectors:
    """HomVectors over a root's modules, with H = R^-1 for the mesh matrix
    R, inverted exactly and certified: R H = I, H >= 0, and the Yoneda row
    H[P_v][X] and column H[X][I_v] are dim X_v."""
    size = len(reps)
    r = mesh.matrix(size)
    k, d = _integer_inverse(r)
    h = tuple(map(tuple, k))
    hv = HomVectors(reps, h, r)
    dims = list(zip(*hv.dims))  # dims[v][x] = dim X_v
    at_p = {v: i for i, v in enumerate(hv.probe_vertex)}
    at_i = {end_vertex(x, dual=True): i for i, x in enumerate(reps)}
    rows, cols = [at_p.get(v) for v in range(len(dims))], [at_i.get(v) for v in range(len(dims))]
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    if (d != 1 or None in rows + cols or [_row_combination(row, h, size) for row in r] != identity
            or any(x < 0 for row in h for x in row)
            or [h[i] for i in rows] != dims or [hv._h_cols[i] for i in cols] != dims):
        raise ContextError("the Auslander-Reiten mesh of the modules does not invert to a Hom table")
    return hv


def _e1_table(hv: HomVectors, n: int, mesh: _Mesh, moves: list[tuple[int, ...]]) -> tuple:
    """dim E(C, A) over the first n modules (the objects), read off H:
    hom(Omega C, A) - hom(P(C), A) + hom(C, A), with hom(P_v, A) = dim A_v;
    and the ids of Omega C, ascending, by object id C.

    Omega C is the sum of top_v(Omega C) copies of P_v when it has the
    dimension vector of that sum, its projective cover; otherwise it is
    named by `HomVectors.identify`, once per orbit, and moved along the
    columns of the twist table.  One naming a projective a stable root
    leaves out raises.  E(C, tau C), the almost split class, is checked
    against `homology.ext_dim` for each non-projective object C."""
    reps = hv.reps
    at_p = [hv.probe_vertex.index(v) for v in range(len(reps[0].dims))]
    omega = [[0] * len(reps) for _ in range(n)]  # omega[c][j]: copies of module j in Omega C
    tops = []
    done = [False] * n
    for c in range(n):
        res = minimal_resolution(reps[c])
        tops.append(res.top_dims(0))
        if done[c]:
            continue
        syz, syz_top = res.syzygy_module(1), res.top_dims(1)
        if _row_combination(syz_top, [hv.dims[j] for j in at_p], len(syz.dims)) == list(syz.dims):
            for j, t in zip(at_p, syz_top):
                omega[c][j] = t
        else:
            for j, mult in hv.identify(syz).items():
                omega[c][j] = mult
        done[c] = True
        for move in moves:
            if move[c] < n and not done[move[c]]:
                for j, mult in enumerate(omega[c]):
                    omega[move[c]][move[j]] = mult
                done[move[c]] = True
    e1 = tuple(
        tuple(x - sum(map(mul, tops[c], reps[a].dims)) + y
              for a, (x, y) in enumerate(zip(_row_combination(omega[c], hv.h, n), hv.h[c])))
        for c in range(n))
    for c in range(n):
        if any(omega[c][n:]):
            raise ContextError(f"Omega C for C of dimension vector {reps[c].dims} has a projective summand")
        t = mesh.tau.get(c)
        if t is not None and (not e1[c][t] or e1[c][t] != ext_dim(1, reps[c], reps[t])):
            raise ContextError(
                f"E(C, tau C) read off the mesh disagrees with Ext^1 for C of dimension vector {reps[c].dims}"
            )
    return e1, {c: Counter({j: mult for j, mult in enumerate(row) if mult}) for c, row in enumerate(omega)}


def _read_mesh(ctx: Context, reps: list[Representation], mesh: _Mesh):
    """A root's Hom vectors, Hom and E tables, witness cocones Omega C and
    symmetries, from the mesh of its modules: its objects, then any
    projectives it leaves out.  The twist table has row x mesh.twists[x]."""
    n = ctx.n_objects
    ctx._hom_vectors = _mesh_hom_vectors(reps, mesh)
    ctx.hom = tuple(row[:n] for row in ctx._hom_vectors.h[:n])
    moves = list(zip(*(mesh.twists[x] for x in range(len(reps)))))  # the columns of the twist table
    ctx.e1, ctx._omega = _e1_table(ctx._hom_vectors, n, mesh, moves)
    ctx.symmetries = _root_symmetries(ctx, moves, mesh.autos)


def build_exact_context(algebra: BoundQuiverAlgebra, config: RunConfig | None = None) -> Context:
    config = config or RunConfig(field_char=algebra.p)
    config.validate()
    ctx = Context("mod", algebra, config)
    reps, mesh = _knitted(algebra, config)
    ctx.objects = [ContextObject(i, f"m{i}", rep) for i, rep in enumerate(reps)]
    _read_mesh(ctx, reps, mesh)
    ctx.detect_projectives()
    _label_objects(ctx)
    return ctx


def build_stable_context(algebra: BoundQuiverAlgebra, config: RunConfig | None = None) -> Context:
    config = config or RunConfig(field_char=algebra.p)
    config.validate()
    require_self_injective(algebra)
    ctx = Context("stable", algebra, config)
    reps, mesh = _knitted(algebra, config)
    # the objects, then the projectives they leave out, each in sorted order
    projective = [is_end(rep) for rep in reps]
    order = sorted(range(len(reps)), key=projective.__getitem__)
    reps = [reps[i] for i in order]
    n = projective.count(False)
    ctx.objects = [ContextObject(i, f"m{i}", rep) for i, rep in enumerate(reps[:n])]
    ctx.dropped_projectives = reps[n:]
    # E(C, A) = stable Hom(Omega C, A); over a self-injective algebra this
    # equals module Ext^1.  Spaces built lazily re-check the dims.
    _read_mesh(ctx, reps, mesh.renumber(order))
    ctx.detect_projectives()
    if ctx.projective_ids or ctx.injective_ids:
        raise ContextError("a triangulated context detected nonzero projectives")
    _label_objects(ctx)
    return ctx


def is_extension_closed(parent: Context, subset_ids) -> tuple[bool, dict | None]:
    """Exhaustive pairwise closure check over one class per line; returns
    (ok, witness).  The witness is the first failing class in lexicographic
    order among all nonzero classes: a failing class scales to a failing
    one whose first nonzero entry is 1, which comes no later."""
    subset = sorted(set(subset_ids))
    inside = set(subset)
    for c in subset:
        for a in subset:
            for coords in parent.class_lines(c, a):
                middle = parent.realize(c, a, coords)
                if any(i not in inside for i in middle):
                    outside = [parent.object_names[i] for i in middle if i not in inside]
                    return False, {
                        "c": parent.object_names[c],
                        "a": parent.object_names[a],
                        "delta": list(coords),
                        "middle": outside,
                    }
    return True, None


def build_sub_context(parent: Context, subset_ids, config: RunConfig | None = None) -> Context:
    config = config or parent.config
    subset = sorted(set(subset_ids))
    if any(i < 0 or i >= parent.n_objects for i in subset):
        raise ContextError("subset contains unknown parent object ids")
    ok, witness = is_extension_closed(parent, subset)
    if not ok:
        raise ContextError(
            "subset is not extension closed: class delta="
            f"{witness['delta']} in E({witness['c']}, {witness['a']}) has middle "
            f"summands {witness['middle']} outside the subset"
        )
    ctx = SubContext(parent, subset, config)
    ctx.objects = [
        ContextObject(i, parent.objects[pid].label, parent.objects[pid].rep, parent.objects[pid].aliases)
        for i, pid in enumerate(subset)
    ]
    ctx.e1 = _submatrix(parent.e1, subset)
    ctx.hom = _submatrix(parent.hom, subset)
    ctx.symmetries = Symmetries([tuple(range(ctx.n_objects))])
    ctx.detect_projectives()
    return ctx
