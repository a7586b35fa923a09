"""Cotorsion-pair and cluster-tilting checkers over a finite context.

Verdicts are evidence-carrying: every failed clause names a witness object,
degree or conflation, and structurally-discharged clauses (summand closure,
functorial finiteness in a finite Hom-finite context) are reported as such
rather than silently assumed.

The two main checkers are deliberately independent code paths: the
cluster-tilting checker is pure orthogonality bookkeeping on E^k tables,
while the cotorsion checker constructs approximation conflations and
resolution chains.  The theorem verifier runs both and compares.  Each
left/right pair of notions is one function with a `dual` switch: the right
cotorsion check is the dual of the left one (`check_n_cotorsion_side`), as
the coresolution dimension is of the resolution dimension (`resdim`) and
the left orthogonal of the right one (`orthogonal`).

The approximation clause of an n-cotorsion pair asks, for every object C,
for a conflation K -> X0 -> C with X0 in add X and K of Y-resolution
dimension <= n-1 (dually C -> Y0 -> L on the right).  It is decided from
minimal approximations once the orthogonality clause, E^k(X, Y) = 0 for
1 <= k <= n, has passed.  E^k is E after k-1 syzygies, with the long exact
sequences of Liu-Nakaoka (J. Algebra 2019) that the source paper uses;
recalled, not checked against the text.
- Such a K has E(X, K) = 0, by dimension shifting along its resolution.  So
  X0 -> C is a right add(X)-approximation, and K = K_min + X'' with K_min the
  cocone of the minimal one and X'' in add X (a map is a right minimal one
  plus a zero map, Auslander-Reiten-Smalo I.2).  A map is a deflation iff
  its cocone lies in the context, so if the canonical approximation is none,
  no approximation is, and the clause fails.
- Lemma: if E^k(Y, Y) = 0 for 1 <= k <= r and K has a Y-resolution of
  length r, the canonical chain of each summand of K has length <= r.  By
  induction on r: the first cocone K1 of the resolution has one of length
  r-1, so E(Y, K1) = 0 as above, and the first deflation is a right
  approximation, so K1 = K_min(K) + Y''.  K_min(K) is the sum of the K_min
  of the summands of K, so their chains have length <= r-1 by induction.
- So if the resolving class Y is (n-1)-rigid, the clause holds iff the
  canonical chain of K_min by add Y has length <= n-1, since a summand X''
  only lengthens it.  That covers n = 1, the diagonal X = Y (which the
  orthogonality clause makes n-rigid) and every n-rigid Y.  Otherwise a
  chain that is too long proves nothing: `check_n_cotorsion` raises
  "undecided", unless a side fails outright.
`Context.approximation_surplus` names the X'' of the canonical
approximation, so K_min is the canonical cocone less it, as multisets of
ids (Krull-Schmidt).  When add X lies in add Y, X'' changes no chain and is
left in, so the diagonal runs the canonical chain as it is.

The canonical approximation h is taken as it is, with no deflation w from
the context projectives P added as one more summand.  Where X holds P,
that summand would change nothing: w factors through h, w = h s, because h
sums a basis of each Hom(x, C), so (h, w) is (h, 0) after the automorphism
(a, b) -> (a + s b, b) of its source, and its cocone is cocone(h) plus the
source of w.  So the deflation test gives the same answer (a sub-context
holds cocone(h) plus an object of add P iff it holds cocone(h)); every
chain has the same length, as the source of w lies in add P, inside add X,
and the approximation clause takes the canonical step only when add X lies
in add Y; and the minimal cocone is the same.  Dually for inflations into
add(I).

The canonical approximation conflation of an object C by add(X) is computed
once per distinct input, not once per X.  `homology.approximation` sums a
basis of Hom(x, C) over the members x (with `dual`, of Hom(C, x)), so a member
with no maps to C (from C) adds no summand: X and X intersected with the
Hom support of C build the same map, not merely an isomorphic one.  So a
step is keyed by that intersection, C and the side.  The key depends on X,
C and Hom(-, C) (Hom(C, -)) alone, never on a verdict.

Steps are also shared across the automorphism orbits of the context
(`Context.symmetries`, see `contexts`): for a permutation g induced by an
automorphism of the algebra, step(gX, gC) = g step(X, C), so a step is
built only for the orbit-least key and moved to the others.  Only steps
are cached: a chain length is read off them on each call, in at most n-1
rounds of lookups, and no cache is keyed by a whole candidate set X.  The
orthogonality clauses read the E^k bitmask rows that the enumerations
build once per context.

`verify_theorem` compares two enumerations whose cost follows their output.
Both start from one compatibility bitmask: objects i and j are compatible
when E^k(i, j) = E^k(j, i) = 0 for every k up to the degree, and an object
that conflicts with itself is dropped.  Candidates contain the projectives
and injectives, which every member of either list must.
- `enumerate_cotorsion_diagonal` backtracks over every rigid superset of that
  forced set, those with E^k(X, X) = 0 for k <= n.  Passing is upward closed
  among them: if (X, X) passes, every object has an add(X)-resolution of
  length <= n (the clause's conflation, then K's resolution), which is an
  add(X')-resolution for rigid X' containing X, so the lemma gives the
  clause for (X', X'); dually on the right.  So X, taken by decreasing size,
  is checked by `check_n_cotorsion` only when every rigid one-object
  extension X + {i} has passed, and fails unchecked otherwise.  This prunes
  by nothing the theorem asserts.
- `enumerate_cluster_tilting` uses that X = X^perp makes X maximal among
  compatible sets: it lists the maximal cliques through the forced set by
  Bron-Kerbosch (CACM 1973) with the Tomita-Tanaka-Takahashi pivot (TCS
  2006), then tests the two orthogonality equalities on bitmasks and
  confirms each hit with `check_cluster_tilting`.
Neither side reads the other's candidates or verdicts, and the cotorsion
side never restricts itself to maximal sets, which would assume the theorem.
`subset_budget` caps the candidates each enumeration visits.
"""

from __future__ import annotations

from collections import Counter

from .contexts import Context, ContextError, _as_counter


class _Exceeds:
    def __repr__(self):
        return "EXCEEDS"

    def __deepcopy__(self, memo):
        return self


EXCEEDS = _Exceeds()


def within(value, bound: int) -> bool:
    return isinstance(value, int) and value <= bound


class Subcat:
    """add X for the objects X of `ctx` named by `ids`.  Equal, and hashed,
    by the context and the ids; no attribute is rebound."""

    __slots__ = ("ctx", "ids")

    def __init__(self, ctx: Context, ids: frozenset[int]):
        self.ctx, self.ids = ctx, ids

    def __eq__(self, other) -> bool:
        return isinstance(other, Subcat) and (self.ctx, self.ids) == (other.ctx, other.ids)

    def __hash__(self) -> int:
        return hash((self.ctx, self.ids))

    @staticmethod
    def of(ctx: Context, ids) -> "Subcat":
        ids = frozenset(int(i) for i in ids)
        if any(i < 0 or i >= ctx.n_objects for i in ids):
            raise ContextError("subcategory contains unknown object ids")
        return Subcat(ctx, ids)

    def names(self) -> list[str]:
        return sorted(self.ctx.object_names[i] for i in self.ids)

    def __repr__(self):
        return "add(" + "+".join(self.names()) + ")" if self.ids else "add(0)"


class Clause:
    """One clause of a verdict; `mode` is "structural", "tested" or
    "undecided".  Equal when every attribute is; no attribute is rebound."""

    __slots__ = ("clause", "passed", "mode", "witness", "note")

    def __init__(self, clause: str, passed: bool, mode: str, witness: dict | None = None, note: str = ""):
        self.clause, self.passed, self.mode, self.witness, self.note = clause, passed, mode, witness, note

    def __eq__(self, other) -> bool:
        return isinstance(other, Clause) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def to_dict(self) -> dict:
        out = {"clause": self.clause, "passed": self.passed, "mode": self.mode}
        if self.witness:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


class Verdict:
    """Whether a check passed, and its clauses.  Equal when both are; no
    attribute is rebound."""

    __slots__ = ("passed", "clauses")

    def __init__(self, passed: bool, clauses: list[Clause] | None = None):
        self.passed, self.clauses = passed, [] if clauses is None else clauses

    def __eq__(self, other) -> bool:
        return isinstance(other, Verdict) and (self.passed, self.clauses) == (other.passed, other.clauses)

    def to_dict(self) -> dict:
        return {"pass": self.passed, "clauses": [c.to_dict() for c in self.clauses]}


# -- orthogonal complements ---------------------------------------------------


def orthogonal(ctx: Context, x_ids, k_max: int, dual: bool = False) -> frozenset[int]:
    """The right orthogonal of X, the objects N with E^k(X, N) = 0 for all
    members and all k in [1, k_max]; with `dual`, the left orthogonal,
    E^k(N, X) = 0.  Read off the bitmask rows when the context has built
    them (see `_built_bitmasks`)."""
    rows = _built_bitmasks(ctx, k_max)
    if rows is not None:
        mask = (1 << ctx.n_objects) - 1
        for x in set(x_ids):
            mask &= rows[dual][x]
        return _ids(mask)
    xs = sorted(set(x_ids))
    out = []
    for m in range(ctx.n_objects):
        good = True
        for x in xs:
            for k in range(1, k_max + 1):
                if ctx.e_k_dim(k, *((m, x) if dual else (x, m))):
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(m)
    return frozenset(out)


# -- resolution dimension ------------------------------------------------------


def _in_add(x_ids: frozenset, ids: Counter) -> bool:
    return all(i in x_ids for i in ids)


def _greedy_step(ctx: Context, x_ids: frozenset, idx: int, dual: bool):
    """Cocone (resp. cone) of the canonical approximation conflation for one
    indecomposable; None when no usable canonical conflation exists.  Keyed
    by the members with maps to (from) the object, and built only for the
    orbit-least key; see the module docstring."""
    members = x_ids & ctx.hom_support(idx, dual)
    key = (members, idx, dual)
    cache = ctx.__dict__.setdefault("_greedy_step_cache", {})
    if key in cache:
        return cache[key]
    k, low, low_members = ctx.symmetries.least(idx, members)
    low_key = (low_members, low, dual)
    if low_key not in cache:
        cache[low_key] = ctx.conflation_end(ctx.approx(sorted(low_members), low, dual), dual)
    step = cache[low_key]
    cache[key] = None if step is None else ctx.symmetries.pull(k, step)
    return cache[key]


def _greedy_chain(ctx: Context, x_ids: frozenset, idx: int, bound: int, dual: bool):
    """Length of the canonical chain of the object by add(X), up to the
    bound, read off the cached steps."""
    current = Counter({idx: 1})
    value = EXCEEDS
    for depth in range(bound + 1):
        if _in_add(x_ids, current):
            value = depth
            break
        if depth == bound:
            break
        nxt: Counter = Counter()
        failed = False
        for i, mult in sorted(current.items()):
            step = _greedy_step(ctx, x_ids, i, dual)
            if step is None:
                failed = True
                break
            for j, mj in step.items():
                nxt[j] += mult * mj
        if failed:
            break
        current = nxt
    return value


def _minimal_step(ctx: Context, x_ids: frozenset, idx: int, dual: bool):
    """The cocone (resp. cone) of the minimal approximation conflation of
    one indecomposable: the canonical one less the approximation's surplus
    summands (`Context.approximation_surplus`), as multisets of ids
    (Krull-Schmidt); None when no canonical conflation exists.  Keyed as
    `_greedy_step` is."""
    step = _greedy_step(ctx, x_ids, idx, dual)
    if step is None:
        return None
    members = x_ids & ctx.hom_support(idx, dual)
    key = (members, idx, dual)
    cache = ctx.__dict__.setdefault("_minimal_step_cache", {})
    if key not in cache:
        surplus = ctx.approximation_surplus(sorted(members), idx, dual)
        if surplus - step:
            raise ContextError("the canonical approximation lacks summands of its own surplus; "
                               "this is a bug, not a mathematical outcome")
        cache[key] = step - surplus
    return cache[key]


def resdim(ctx: Context, x_ids, target, bound: int, dual: bool = False):
    """Length of the greedy canonical chain of target by add(X), up to the
    bound (approximation deflations and their cocones); with `dual`, of the
    coresolution chain (inflations and their cones).  It is the resolution
    dimension whenever that is at most the bound and E^k(X, X) = 0 for
    k <= bound (module docstring), and an upper bound on it otherwise."""
    x_ids = frozenset(int(i) for i in x_ids)
    counter = _as_counter(target)
    if bound < 0:
        raise ContextError("resolution bound must be >= 0")
    values = [_greedy_chain(ctx, x_ids, i, bound, dual) for i in counter]
    if all(isinstance(v, int) for v in values):
        return max(values, default=0)
    return EXCEEDS


# -- cotorsion checkers -------------------------------------------------------


def _ids_str(ctx, ids: Counter) -> str:
    if not ids:
        return "0"
    return "+".join(
        ctx.object_names[i] if m == 1 else f"{m}*{ctx.object_names[i]}"
        for i, m in sorted(ids.items())
    )


def _orthogonality_witness(ctx, x_ids, y_ids, n):
    """The first nonzero E^k(x, y), k in [1, n], as a witness; None if none.
    Rows of x orthogonal to all of Y are skipped when the context has built
    its bitmask rows (see `_built_bitmasks`)."""
    rows = _built_bitmasks(ctx, n)
    y_mask = _mask(y_ids)
    for x in sorted(x_ids):
        if rows is not None and not y_mask & ~rows[0][x]:
            continue
        for y in sorted(y_ids):
            for k in range(1, n + 1):
                d = ctx.e_k_dim(k, x, y)
                if d:
                    return {
                        "witness_object": ctx.object_names[x],
                        "against": ctx.object_names[y],
                        "degree": k,
                        "dim": int(d),
                    }
    return None


def _approximation_clause(ctx, x_ids, y_ids, n, dual):
    """The approximation-conflation clause over every object: (ok, witness
    of the first failure, whether that failure is undecided).  The right
    side (dual) approximates by add(Y) and coresolves by add(X).  The
    minimal step is the canonical one when the approximating class lies in
    the resolving one, and a failure is exact when the resolving class is
    (n-1)-rigid (module docstring); an undecided one does not stop the walk
    for an exact one."""
    approx_ids, res_ids = (y_ids, x_ids) if dual else (x_ids, y_ids)
    step_of = _greedy_step if approx_ids <= res_ids else _minimal_step
    exact = undecided = None
    for c_idx in range(ctx.n_objects):
        if c_idx in approx_ids:
            continue
        step = step_of(ctx, approx_ids, c_idx, dual)
        if step is None:
            return False, {"witness_object": ctx.object_names[c_idx], "conflation": None,
                           "note": "no canonical approximation conflation"}, False
        value = resdim(ctx, res_ids, step, n - 1, dual)
        if within(value, n - 1):
            continue
        witness = {"witness_object": ctx.object_names[c_idx], "conflation": _ids_str(ctx, step),
                   "resolution_dim": repr(value)}
        if exact is None:
            exact = approx_ids == res_ids or _orthogonality_witness(ctx, res_ids, res_ids, n - 1) is None
        if exact:
            return False, witness, False
        undecided = undecided or witness
    return undecided is None, undecided, undecided is not None


def check_n_cotorsion_side(ctx: Context, x_ids, y_ids, n: int, dual: bool = False) -> Verdict:
    """Left n-cotorsion check for (add X, add Y); with `dual`, the right
    one.  An undecided approximation clause fails with mode "undecided";
    `check_n_cotorsion` settles it."""
    if n < 1:
        raise ContextError("cotorsion degree must be >= 1")
    x_ids = frozenset(int(i) for i in x_ids)
    y_ids = frozenset(int(i) for i in y_ids)
    clauses = [Clause("summand-closure", True, "structural",
                      note="subcategories are additive closures of indecomposable sets")]
    witness2 = _orthogonality_witness(ctx, x_ids, y_ids, n)
    ok2 = witness2 is None
    clauses.append(Clause("orthogonality", ok2, "tested", witness2))
    if ok2:
        ok3, witness3, undecided = _approximation_clause(ctx, x_ids, y_ids, n, dual)
    else:
        ok3, witness3, undecided = False, {"note": "skipped after orthogonality failure"}, False
    name3 = "coapproximation-conflations" if dual else "approximation-conflations"
    clauses.append(Clause(name3, ok3, "undecided" if undecided else "tested", witness3))
    return Verdict(ok2 and ok3, clauses)


def check_n_cotorsion(ctx: Context, x_ids, y_ids, n: int) -> Verdict:
    """Both sides, with their clauses named `left.` and `right.`.  A side
    that fails exactly fails the pair; otherwise an undecided side raises."""
    sides = [(side, check_n_cotorsion_side(ctx, x_ids, y_ids, n, dual))
             for side, dual in (("left", False), ("right", True))]
    clauses = [Clause(f"{side}.{c.clause}", c.passed, c.mode, c.witness, c.note)
               for side, verdict in sides for c in verdict.clauses]
    passed = all(verdict.passed for _, verdict in sides)
    if passed or any(not c.passed and c.mode == "tested" for c in clauses):
        return Verdict(passed, clauses)
    c = next(c for c in clauses if c.mode == "undecided")
    raise ContextError(
        f"cotorsion verdict undecided: {c.clause} at {c.witness['witness_object']}, whose minimal "
        f"approximation conflation ends in {c.witness['conflation']}, with no chain of length "
        f"<= {n - 1} found; a longer chain proves no failure unless E^k vanishes on the resolving "
        f"class for 1 <= k <= {n - 1}, and it does not"
    )


# -- cluster tilting ----------------------------------------------------------


def check_cluster_tilting(ctx: Context, x_ids, n: int) -> Verdict:
    """n-cluster-tilting check via the two orthogonality set equalities."""
    if n < 2:
        raise ContextError("cluster-tilting degree must be >= 2")
    x_ids = frozenset(int(i) for i in x_ids)
    names = ctx.object_names
    clauses = [Clause("functorial-finiteness", True, "structural",
                      note="finite Hom-finite context: approximations exist as hom-basis sums")]
    passed = True
    for side, dual in (("right", False), ("left", True)):
        perp = orthogonal(ctx, x_ids, n - 1, dual)
        witness = None
        if perp != x_ids:
            passed = False
            witness = {"extra": sorted(names[i] for i in perp - x_ids),
                       "missing": sorted(names[i] for i in x_ids - perp), "degree": n - 1}
        clauses.append(Clause(f"{side}-orthogonal-equality", perp == x_ids, "tested", witness))
    if passed:
        if not (ctx.projective_ids <= x_ids and ctx.injective_ids <= x_ids):
            raise ContextError(
                "cluster-tilting candidate passed without containing the "
                "projectives and injectives; context is inconsistent"
            )
        clauses.append(Clause("contains-projectives-and-injectives", True, "tested"))
    return Verdict(passed, clauses)


# -- enumeration --------------------------------------------------------------


def _forced_ids(ctx: Context) -> frozenset[int]:
    return frozenset(ctx.projective_ids | ctx.injective_ids)


def _mask(ids) -> int:
    return sum(1 << i for i in ids)


def _ids(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _orth_bitmasks(ctx: Context, k_max: int) -> tuple[list[int], list[int]]:
    """Bit i of right[j] is set iff E^k(j, i) = 0 for every k in [1, k_max];
    bit i of left[j] iff E^k(i, j) = 0.  Read off the context's E^k tables,
    once per context and k_max."""
    cache = ctx.__dict__.setdefault("_orth_bitmasks_cache", {})
    hit = cache.get(k_max)
    if hit is None:
        tables = [ctx.e_k_table(k) for k in range(1, k_max + 1)]
        objects = range(ctx.n_objects)
        vanish = [[not any(t[i][j] for t in tables) for j in objects] for i in objects]
        hit = cache[k_max] = ([_mask(j for j, v in enumerate(row) if v) for row in vanish],
                              [_mask(i for i, v in enumerate(col) if v) for col in zip(*vanish)])
    return hit


def _built_bitmasks(ctx: Context, k_max: int) -> tuple[list[int], list[int]] | None:
    """The rows of `_orth_bitmasks` if the context has built them (every
    enumeration does), else None.  A check of given classes does not build
    them: the tables need E^k against every object, and in a sub-context
    without enough projectives an object outside the classes may have no
    syzygy."""
    return ctx.__dict__.get("_orth_bitmasks_cache", {}).get(k_max)


def _compatibility(right: list[int], left: list[int]) -> list[int]:
    """Bit j of compat[i] is set iff E^k(i, j) = E^k(j, i) = 0 for every k
    the bitmasks cover; bit i of compat[i] iff i does not conflict with
    itself."""
    return [r & l for r, l in zip(right, left)]


def _seed(compat: list[int], forced: frozenset[int]) -> int | None:
    """The objects that may join the forced set: those compatible with it and
    with themselves.  None when the forced set already conflicts."""
    base = _mask(forced)
    allowed = _mask(i for i, c in enumerate(compat) if c >> i & 1)
    for i in forced:
        if base & ~compat[i]:
            return None
        allowed &= compat[i]
    return allowed & ~base


class _Visits:
    """Counts the candidate subsets an enumeration visits, against
    `subset_budget`."""

    def __init__(self, ctx: Context, stage: str):
        self.budget = ctx.config.subset_budget
        self.stage = stage
        self.count = 0

    def visit(self) -> None:
        self.count += 1
        if self.count > self.budget:
            raise ContextError(
                f"{self.stage} enumeration visited {self.count} candidate subsets, "
                f"more than the subset budget {self.budget}; raise --subset-budget"
            )


def _rigid_supersets(base: int, allowed: int, compat: list[int], visits: _Visits) -> list[int]:
    """Every set base | S with S a subset of `allowed` whose members are
    pairwise compatible, by backtracking: each set is extended only by
    objects of higher index that are compatible with all of it."""
    out = []
    stack = [(base, allowed)]
    while stack:
        current, candidates = stack.pop()
        visits.visit()
        out.append(current)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            stack.append((current | low, candidates & compat[low.bit_length() - 1]))
    return out


def _maximal_cliques(r: int, p: int, x: int, adj: list[int], visits: _Visits,
                     out: list[int]) -> None:
    """Bron-Kerbosch with the Tomita-Tanaka-Takahashi pivot: append every
    maximal clique R | S with S a clique in P, none of whose extensions by X
    is a clique, to `out`."""
    visits.visit()
    if not p and not x:
        out.append(r)
        return
    pivot = max(_ids(p | x), key=lambda u: (p & adj[u]).bit_count())
    branch = p & ~adj[pivot]
    while branch:
        low = branch & -branch
        branch ^= low
        v = low.bit_length() - 1
        _maximal_cliques(r | low, p & adj[v], x & adj[v], adj, visits, out)
        p &= ~low
        x |= low


def enumerate_cluster_tilting(ctx: Context, n: int) -> list[Subcat]:
    """All n-cluster-tilting subcategories.  X = X^perp forces X to be a
    maximal set of pairwise compatible objects containing the projectives and
    injectives, so the candidates are the maximal cliques of the
    compatibility graph through the forced set; the two orthogonality
    equalities are then tested on bitmasks and confirmed by the checker."""
    if n < 2:
        raise ContextError("cluster-tilting degree must be >= 2")
    forced = _forced_ids(ctx)
    right, left = _orth_bitmasks(ctx, n - 1)
    compat = _compatibility(right, left)
    allowed = _seed(compat, forced)
    cliques: list[int] = []
    if allowed is not None:
        adj = [c & ~(1 << i) for i, c in enumerate(compat)]
        _maximal_cliques(_mask(forced), allowed, 0, adj, _Visits(ctx, "cluster-tilting"), cliques)
    full = (1 << ctx.n_objects) - 1
    hits = []
    for mask in cliques:
        subset = _ids(mask)
        rset = lset = full
        for j in subset:
            rset &= right[j]
            lset &= left[j]
        if rset == mask and lset == mask:
            verdict = check_cluster_tilting(ctx, subset, n)
            if not verdict.passed:
                raise ContextError(
                    "orthogonality bitmasks disagree with the checker; "
                    "this is a bug, not a mathematical outcome"
                )
            hits.append(Subcat.of(ctx, subset))
    hits.sort(key=lambda s: (len(s.ids), s.names()))
    return hits


def enumerate_cotorsion_diagonal(ctx: Context, n: int) -> list[Subcat]:
    """All X with (X, X) an n-cotorsion pair, among the rigid supersets of
    the projectives and injectives; X fails unchecked when a rigid
    one-object extension failed (module docstring)."""
    if n < 1:
        raise ContextError("cotorsion degree must be >= 1")
    forced = _forced_ids(ctx)
    compat = _compatibility(*_orth_bitmasks(ctx, n))
    allowed = _seed(compat, forced)
    if allowed is None:
        return []
    base = _mask(forced)
    masks = _rigid_supersets(base, allowed, compat, _Visits(ctx, "cotorsion"))
    masks.sort()
    masks.sort(key=int.bit_count, reverse=True)
    passed, hits = set(), []
    for mask in masks:
        rest, extensions = mask & ~base, allowed & ~mask
        while rest and extensions:  # the objects that extend X to a rigid set
            extensions &= compat[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        while extensions and (mask | extensions & -extensions) in passed:  # less those that passed
            extensions &= extensions - 1
        if not extensions and check_n_cotorsion(ctx, _ids(mask), _ids(mask), n).passed:
            passed.add(mask)
            hits.append(Subcat.of(ctx, _ids(mask)))
    hits.sort(key=lambda s: (len(s.ids), s.names()))
    return hits


# -- the main equivalence ------------------------------------------------------


def verify_theorem(ctx: Context, n: int) -> dict:
    """Compare {X : (X,X) n-cotorsion} with {X : X is (n+1)-cluster-tilting},
    computed by independent code paths.  A mismatch is reported, never
    reconciled."""
    cotorsion = enumerate_cotorsion_diagonal(ctx, n)
    tilting = enumerate_cluster_tilting(ctx, n + 1)
    cot_sets = [sorted(s.names()) for s in cotorsion]
    ct_sets = [sorted(s.names()) for s in tilting]
    equal = cot_sets == ct_sets
    report = {
        "degree": n,
        "cotorsion_diagonal": cot_sets,
        "cluster_tilting": ct_sets,
        "sets_equal": equal,
    }
    if not equal:
        only_cot = [s for s in cot_sets if s not in ct_sets]
        only_ct = [s for s in ct_sets if s not in cot_sets]
        report["mismatch"] = {"only_cotorsion": only_cot, "only_cluster_tilting": only_ct}
        diagnostics = []
        for names in only_cot + only_ct:
            ids = [ctx.resolve_name(nm) for nm in names]
            diagnostics.append(
                {
                    "candidate": names,
                    "cotorsion": check_n_cotorsion(ctx, ids, ids, n).to_dict(),
                    "cluster_tilting": check_cluster_tilting(ctx, ids, n + 1).to_dict(),
                }
            )
        report["diagnostics"] = diagnostics
    return report
