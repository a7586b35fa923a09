"""Quivers, bound quiver algebras and their canonical modules.

An algebra is presented by a quiver with relations (linear combinations of
parallel paths of length >= 2, coefficients in F_p).  A linear basis of the
quotient is computed layer by layer: paths are ordered degree-lexicographically
and relation multiples are inserted into a row echelon keyed by their largest
path, so reduction to normal form is canonical.  Construction stops at the
first path length carrying no normal path (the nilpotency certificate); if no
such length exists below the configured bound the ideal is rejected as
non-admissible.

Conventions, fixed globally: representations are left modules, paths compose
left to right (p*q means "first p, then q"), and the projective at vertex i is
spanned by the normal paths with source i.  This pins dim Hom(P_i, M) = dim M_i.
"""

from __future__ import annotations

from . import linalg

DEFAULT_MAX_PATH_LENGTH = 64


class AlgebraError(Exception):
    """Raised for ill-formed or non-admissible algebra presentations."""


class ParseError(AlgebraError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


# A path is (source vertex index, tuple of arrow indices); () is the trivial path.
Path = tuple[int, tuple[int, ...]]


def path_key(path: Path) -> tuple:
    """Degree-lex order key; compatible with concatenation on either side."""
    return (len(path[1]), path[1], path[0])


class Quiver:
    """Vertex ids, arrow names, and each arrow's source and target as vertex
    indices.  Equal, and hashed, by the four tuples; no attribute is rebound."""

    __slots__ = ("vertex_ids", "arrow_names", "arrow_source", "arrow_target")

    def __init__(self, vertex_ids: tuple[int, ...], arrow_names: tuple[str, ...],
                 arrow_source: tuple[int, ...], arrow_target: tuple[int, ...]):
        self.vertex_ids, self.arrow_names = vertex_ids, arrow_names
        self.arrow_source, self.arrow_target = arrow_source, arrow_target
        if len(set(self.vertex_ids)) != len(self.vertex_ids):
            raise AlgebraError("duplicate vertex ids")
        if len(set(self.arrow_names)) != len(self.arrow_names):
            raise AlgebraError("duplicate arrow names")
        n = len(self.vertex_ids)
        for s, t in zip(self.arrow_source, self.arrow_target):
            if not (0 <= s < n and 0 <= t < n):
                raise AlgebraError("arrow endpoint is not a declared vertex")

    def key(self) -> tuple:
        return self.vertex_ids, self.arrow_names, self.arrow_source, self.arrow_target

    def __eq__(self, other) -> bool:
        return isinstance(other, Quiver) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_names)

    def vertex_index(self, vertex_id: int) -> int:
        try:
            return self.vertex_ids.index(vertex_id)
        except ValueError:
            raise AlgebraError(f"unknown vertex {vertex_id}") from None

    def arrows_from(self, v: int) -> list[int]:
        return [a for a in range(self.n_arrows) if self.arrow_source[a] == v]


class BoundQuiverAlgebra:
    """kQ/I for an admissible ideal I, with a computed path basis.

    relations: list of {path: coeff} dicts, each a combination of parallel
    paths of length >= 2.
    """

    def __init__(
        self,
        quiver: Quiver,
        field_char: int,
        relations: list[dict[Path, int]],
        max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    ):
        if field_char > linalg.MAX_FIELD_CHAR:
            raise AlgebraError(
                f"field characteristic {field_char} exceeds {linalg.MAX_FIELD_CHAR}, "
                "the largest characteristic accepted"
            )
        if field_char < 2 or any(field_char % d == 0 for d in range(2, int(field_char**0.5) + 1)):
            raise AlgebraError(f"field characteristic {field_char} is not prime")
        self.quiver = quiver
        self.p = field_char
        self.relations = []
        for rel in relations:
            cleaned = {path: c % field_char for path, c in rel.items() if c % field_char}
            if not cleaned:
                continue
            endpoints = {(path[0], self.path_target(path)) for path in cleaned}
            if len(endpoints) != 1:
                raise AlgebraError("relation mixes non-parallel paths")
            if any(len(path[1]) < 2 for path in cleaned):
                raise AlgebraError("relation term of length < 2 (ideal not in rad^2)")
            self.relations.append(cleaned)
        self.max_path_length = max_path_length
        self._rules: dict[Path, dict[Path, int]] = {}
        self._reduce_memo: dict[Path, dict[Path, int]] = {}
        self._build_basis()
        self._op: BoundQuiverAlgebra | None = None
        self._by_target: dict[int, list[list[Path]]] = {}
        self._projectives: dict[int, object] = {}
        self._injectives: dict[int, object] = {}

    # -- construction ---------------------------------------------------

    def path_target(self, path: Path) -> int:
        v = path[0]
        for a in path[1]:
            v = self.quiver.arrow_target[a]
        return v

    def _build_basis(self):
        q = self.quiver
        layers: list[list[Path]] = [[(v, ()) for v in range(q.n_vertices)]]
        max_rel_len = max((len(pth[1]) for rel in self.relations for pth in rel), default=0)
        length = 0
        rebuilds = 0
        while True:
            length += 1
            if length > self.max_path_length:
                witness = layers[-1][0] if layers[-1] else None
                raise AlgebraError(
                    "non-admissible ideal: normal paths persist at length "
                    f"{self.max_path_length} (witness {self.format_path(witness)})"
                )
            candidates = []
            for b in layers[length - 1]:
                for a in q.arrows_from(self.path_target(b)):
                    candidates.append((b[0], b[1] + (a,)))
            candidates.sort(key=path_key)
            # relation multiples u*g*v whose longest term has this length
            dirty = self._insert_relation_products(length, layers)
            if dirty:
                rebuilds += 1
                if rebuilds > 50:
                    raise AlgebraError("relation rewriting failed to stabilize")
                layers = layers[:dirty]
                length = dirty - 1
                self._reduce_memo.clear()
                continue
            normal = [c for c in candidates if self._reduce_path(c) == {c: 1}]
            layers.append(normal)
            if not normal:
                break
        self.nilpotency = length
        self.basis: list[Path] = [b for layer in layers for b in layer]
        self.basis.sort(key=path_key)
        self.basis_index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)

    def _insert_relation_products(self, length: int, layers: list[list[Path]]) -> int:
        """Insert all u*g*v with longest term of the given length.

        Returns 0, or the layer index from which normality must be recomputed
        because a new rule landed below the current frontier.
        """
        q = self.quiver
        min_dirty = 0
        for rel in self.relations:
            longest = max(len(pth[1]) for pth in rel)
            src = next(iter(rel))[0]
            tgt = self.path_target(next(iter(rel)))
            budget = length - longest
            if budget < 0:
                continue
            for ulen in range(budget + 1):
                vlen = budget - ulen
                us = [
                    b
                    for layer in layers[: ulen + 1]
                    for b in layer
                    if len(b[1]) == ulen and self.path_target(b) == src
                ]
                vs = [
                    b
                    for layer in layers[: vlen + 1]
                    for b in layer
                    if len(b[1]) == vlen and b[0] == tgt
                ]
                for u in us:
                    for v in vs:
                        combo: dict[Path, int] = {}
                        for pth, c in rel.items():
                            w = (u[0], u[1] + pth[1] + v[1])
                            combo[w] = (combo.get(w, 0) + c) % self.p
                        lvl = self._insert_row(combo)
                        if lvl and (min_dirty == 0 or lvl < min_dirty):
                            min_dirty = lvl
        return min_dirty if min_dirty and min_dirty < length else 0

    def _insert_row(self, combo: dict[Path, int]) -> int:
        """Echelon-insert an ideal element; returns new-pivot length if it
        falls strictly below the longest term (layer invalidation)."""
        reduced = self._reduce_combo(combo)
        reduced = {pth: c for pth, c in reduced.items() if c % self.p}
        if not reduced:
            return 0
        pivot = max(reduced, key=path_key)
        inv = linalg.inv_mod(reduced[pivot], self.p)
        rule = {pth: (-c * inv) % self.p for pth, c in reduced.items() if pth != pivot}
        self._rules[pivot] = rule
        self._reduce_memo.clear()
        longest = max(len(pth[1]) for pth in combo)
        return len(pivot[1]) if len(pivot[1]) < longest else 0

    def _reduce_combo(self, combo: dict[Path, int]) -> dict[Path, int]:
        out: dict[Path, int] = {}
        for pth, c in combo.items():
            for b, cb in self._reduce_path(pth).items():
                out[b] = (out.get(b, 0) + c * cb) % self.p
        return {b: c for b, c in out.items() if c}

    def _reduce_path(self, path: Path) -> dict[Path, int]:
        """Canonical normal form: rewrite leftmost-lowest matching rule subword."""
        memo = self._reduce_memo.get(path)
        if memo is not None:
            return memo
        arrows = path[1]
        hit = None
        for start in range(len(arrows)):
            sub_src = path[0]
            v = path[0]
            for a in arrows[:start]:
                v = self.quiver.arrow_target[a]
            sub_src = v
            for stop in range(start + 1, len(arrows) + 1):
                sub = (sub_src, arrows[start:stop])
                if sub in self._rules:
                    hit = (start, stop, sub)
                    break
            if hit:
                break
        if hit is None:
            result = {path: 1}
        else:
            start, stop, sub = hit
            result = {}
            for repl, c in self._rules[sub].items():
                joined = (path[0], arrows[:start] + repl[1] + arrows[stop:])
                for b, cb in self._reduce_path(joined).items():
                    result[b] = (result.get(b, 0) + c * cb) % self.p
            result = {b: c for b, c in result.items() if c}
        self._reduce_memo[path] = result
        return result

    # -- queries ---------------------------------------------------------

    def reduce_path(self, path: Path) -> dict[Path, int]:
        """Normal form of a raw path as {basis path: coefficient}."""
        return dict(self._reduce_path(path))

    def right_multiply(self, b: Path, arrow: int) -> dict[Path, int]:
        return self.reduce_path((b[0], b[1] + (arrow,)))

    def basis_by_target(self, vertex_idx: int) -> list[list[Path]]:
        """The basis paths with the given source, grouped by target vertex and
        ordered by `path_key` within each group: the basis of the projective
        at that vertex, vertex by vertex (the trivial path leads its group)."""
        hit = self._by_target.get(vertex_idx)
        if hit is None:
            hit = [[] for _ in range(self.quiver.n_vertices)]
            for b in self.basis:
                if b[0] == vertex_idx:
                    hit[self.path_target(b)].append(b)
            for group in hit:
                group.sort(key=path_key)
            self._by_target[vertex_idx] = hit
        return hit

    def format_path(self, path: Path | None) -> str:
        if path is None:
            return "?"
        if not path[1]:
            return f"e{self.quiver.vertex_ids[path[0]]}"
        return "*".join(self.quiver.arrow_names[a] for a in path[1])

    def opposite(self) -> "BoundQuiverAlgebra":
        """Algebra with all arrows and relation paths reversed."""
        if self._op is None:
            q = self.quiver
            op_q = Quiver(q.vertex_ids, q.arrow_names, q.arrow_target, q.arrow_source)
            op_rels = []
            for rel in self.relations:
                op_rel: dict[Path, int] = {}
                for pth, c in rel.items():
                    rev = tuple(reversed(pth[1]))
                    op_rel[(self.path_target(pth), rev)] = c
                op_rels.append(op_rel)
            op = BoundQuiverAlgebra(op_q, self.p, op_rels, self.max_path_length)
            op._op = self
            self._op = op
        return self._op

    def content_key(self) -> tuple:
        """Hashable presentation fingerprint (used in reports and caches)."""
        rels = tuple(
            tuple(sorted(((pth, c) for pth, c in rel.items()), key=lambda t: path_key(t[0])))
            for rel in self.relations
        )
        return (*self.quiver.key(), self.p, rels)

    def __repr__(self):
        q = self.quiver
        return (
            f"BoundQuiverAlgebra(p={self.p}, vertices={len(q.vertex_ids)}, "
            f"arrows={len(q.arrow_names)}, dim={self.dim})"
        )


# -- automorphisms ---------------------------------------------------------

# Most nodes the automorphism search visits; past it the search keeps what it
# has found, which is always a correct (if smaller) set of symmetries.
AUTOMORPHISM_SEARCH_NODES = 20000


def induced_arrows(quiver: Quiver, sigma) -> tuple[int, ...] | None:
    """The arrow map of a vertex permutation: the arrows s -> t, in index
    order, go to the arrows sigma(s) -> sigma(t) in index order.  None when
    the counts differ for some pair."""
    by_ends: dict[tuple[int, int], list[int]] = {}
    for a, ends in enumerate(zip(quiver.arrow_source, quiver.arrow_target)):
        by_ends.setdefault(ends, []).append(a)
    out = [0] * quiver.n_arrows
    for (s, t), arrows in by_ends.items():
        images = by_ends.get((sigma[s], sigma[t]), [])
        if len(images) != len(arrows):
            return None
        for a, b in zip(arrows, images):
            out[a] = b
    return tuple(out)


def is_automorphism(algebra: BoundQuiverAlgebra, sigma) -> bool:
    """Whether the vertex permutation, with its induced arrow map, sends
    every relation into the ideal.  An arrow bijection with sigma(I) inside I
    induces a surjective, hence bijective, endomorphism of the
    finite-dimensional kQ/I."""
    arrows = induced_arrows(algebra.quiver, sigma)
    if arrows is None:
        return False
    p = algebra.p
    for rel in algebra.relations:
        total: dict[Path, int] = {}
        for (src, path), c in rel.items():
            for b, cb in algebra.reduce_path((sigma[src], tuple(arrows[a] for a in path))).items():
                total[b] = (total.get(b, 0) + c * cb) % p
        if any(total.values()):
            return False
    return True


def vertex_automorphisms(algebra: BoundQuiverAlgebra) -> list[tuple[int, ...]]:
    """Vertex permutations (by vertex index) that extend to automorphisms of
    the algebra, the identity first.  A backtracking search assigns images
    vertex by vertex, keeping arrow counts between assigned vertices and a
    per-vertex signature (arrow degrees, loops, dim e_v L and dim L e_v)
    invariant, and checks the relations with `is_automorphism` at each leaf.
    It stops after AUTOMORPHISM_SEARCH_NODES nodes with what it has found."""
    q = algebra.quiver
    n = q.n_vertices
    count = [[0] * n for _ in range(n)]
    for s, t in zip(q.arrow_source, q.arrow_target):
        count[s][t] += 1
    starts = [0] * n
    ends = [0] * n
    for b in algebra.basis:
        starts[b[0]] += 1
        ends[algebra.path_target(b)] += 1
    signature = [(sum(count[v]), sum(row[v] for row in count), count[v][v], starts[v], ends[v])
                 for v in range(n)]
    identity = tuple(range(n))
    found = [identity]
    sigma: list[int] = []
    used = [False] * n
    nodes = 0

    def extend() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > AUTOMORPHISM_SEARCH_NODES:
            return False
        v = len(sigma)
        if v == n:
            if tuple(sigma) != identity and is_automorphism(algebra, sigma):
                found.append(tuple(sigma))
            return True
        for w in range(n):
            if used[w] or signature[w] != signature[v]:
                continue
            if any(count[u][v] != count[sigma[u]][w] or count[v][u] != count[w][sigma[u]]
                   for u in range(v)):
                continue
            sigma.append(w)
            used[w] = True
            going = extend()
            sigma.pop()
            used[w] = False
            if not going:
                return False
        return True

    extend()
    return found


# -- canonical modules ----------------------------------------------------


def projective_module(algebra: BoundQuiverAlgebra, vertex_id: int):
    """P_i: spanned by normal paths with source i, arrows act by appending.

    Cached per algebra and vertex: every call returns the same object, whose
    matrices, like every `linalg.Matrix`, are immutable."""
    hit = algebra._projectives.get(vertex_id)
    if hit is None:
        hit = algebra._projectives[vertex_id] = _build_projective(algebra, vertex_id)
    return hit


def _build_projective(algebra: BoundQuiverAlgebra, vertex_id: int):
    from .modules import Representation

    q = algebra.quiver
    by_vertex = algebra.basis_by_target(q.vertex_index(vertex_id))
    index = {b: (v, k) for v in range(q.n_vertices) for k, b in enumerate(by_vertex[v])}
    dims = tuple(len(lst) for lst in by_vertex)
    mats = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        m = [[0] * dims[s] for _ in range(dims[t])]
        for col, b in enumerate(by_vertex[s]):
            for w, c in algebra.right_multiply(b, a).items():
                m[index[w][1]][col] = c
        mats.append(linalg.Matrix(tuple(map(tuple, m)), dims[s]))
    return Representation(algebra, dims, mats, validate=False)


def simple_module(algebra: BoundQuiverAlgebra, vertex_id: int):
    from .modules import Representation

    q = algebra.quiver
    i = q.vertex_index(vertex_id)
    dims = tuple(1 if v == i else 0 for v in range(q.n_vertices))
    mats = [
        linalg.zeros(dims[q.arrow_target[a]], dims[q.arrow_source[a]])
        for a in range(q.n_arrows)
    ]
    return Representation(algebra, dims, mats, validate=False)


def injective_module(algebra: BoundQuiverAlgebra, vertex_id: int):
    """I_i: the dual of the opposite-algebra projective at i.

    Cached per algebra and vertex, like `projective_module`."""
    from .modules import dual_representation

    hit = algebra._injectives.get(vertex_id)
    if hit is None:
        hit = dual_representation(projective_module(algebra.opposite(), vertex_id))
        algebra._injectives[vertex_id] = hit
    return hit


def is_self_injective(algebra: BoundQuiverAlgebra) -> bool:
    """True iff every indecomposable projective is injective."""
    from .decompose import _probes

    return all(w is not None for w in _probes(algebra)[1])


# -- standard families -----------------------------------------------------


def nakayama_cyclic(n: int, r: int, field_char: int = 2) -> BoundQuiverAlgebra:
    """Cyclic Nakayama algebra: n vertices, arrows i -> i+1, paths of length r zero."""
    if n < 1:
        raise AlgebraError("need at least one vertex")
    if r < 2:
        raise AlgebraError("radical nilpotency must be >= 2")
    vertex_ids = tuple(range(1, n + 1))
    names = tuple(f"a{i + 1}" for i in range(n))
    source = tuple(range(n))
    target = tuple((i + 1) % n for i in range(n))
    quiver = Quiver(vertex_ids, names, source, target)
    relations = []
    for start in range(n):
        arrows = tuple((start + k) % n for k in range(r))
        relations.append({(start, arrows): 1})
    return BoundQuiverAlgebra(quiver, field_char, relations, max_path_length=max(r + 1, 4))


# -- the algebra spec language ---------------------------------------------


def parse_algebra(spec_text: str, max_path_length: int = DEFAULT_MAX_PATH_LENGTH) -> BoundQuiverAlgebra:
    """Parse the line-oriented algebra language.

    Grammar: `field <p>`, `vertices <id>...`, `arrow <name>: <src> -> <tgt>`,
    `relation <term> (+|- <term>)*` with term = [coeff *] a*b*c (left-to-right
    composition).  Comments start with '#'.  Exactly one field line, before
    any relation.
    """
    field_char = None
    vertex_ids: list[int] = []
    arrows: list[tuple[str, int, int]] = []
    relation_specs: list[tuple[int, str]] = []

    for lineno, raw in enumerate(spec_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            if field_char is not None:
                raise ParseError(lineno, 1, "duplicate field line")
            if not rest.isdigit():
                raise ParseError(lineno, len(head) + 2, f"bad characteristic {rest!r}")
            field_char = int(rest)
        elif head == "vertices":
            for tok in rest.split():
                if not tok.lstrip("-").isdigit():
                    raise ParseError(lineno, line.index(tok) + 1, f"bad vertex id {tok!r}")
                vertex_ids.append(int(tok))
        elif head == "arrow":
            name, sep, spec = rest.partition(":")
            name = name.strip()
            if not sep or not name:
                raise ParseError(lineno, 1, "expected `arrow <name>: <src> -> <tgt>`")
            src, sep2, tgt = spec.partition("->")
            if not sep2:
                raise ParseError(lineno, line.index(":") + 2, "expected `<src> -> <tgt>`")
            try:
                arrows.append((name, int(src.strip()), int(tgt.strip())))
            except ValueError:
                raise ParseError(lineno, line.index(":") + 2, "bad arrow endpoints") from None
        elif head == "relation":
            if field_char is None:
                raise ParseError(lineno, 1, "field line must precede relations")
            relation_specs.append((lineno, rest))
        else:
            raise ParseError(lineno, 1, f"unknown directive {head!r}")

    if field_char is None:
        raise ParseError(1, 1, "missing field line")
    if not vertex_ids:
        raise ParseError(1, 1, "no vertices declared")

    name_to_arrow = {name: k for k, (name, _, _) in enumerate(arrows)}
    vidx = {v: i for i, v in enumerate(vertex_ids)}
    for name, s, t in arrows:
        if s not in vidx or t not in vidx:
            raise AlgebraError(f"arrow {name}: unknown vertex {s if s not in vidx else t}")
    quiver = Quiver(
        tuple(vertex_ids),
        tuple(name for name, _, _ in arrows),
        tuple(vidx[s] for _, s, _ in arrows),
        tuple(vidx[t] for _, _, t in arrows),
    )

    relations = []
    for lineno, text in relation_specs:
        relations.append(_parse_relation(text, lineno, quiver, name_to_arrow, field_char))
    return BoundQuiverAlgebra(quiver, field_char, relations, max_path_length)


def _parse_relation(text, lineno, quiver, name_to_arrow, p) -> dict[Path, int]:
    rel: dict[Path, int] = {}
    pieces = text.replace("+", " + ").replace("-", " - ").split()
    terms: list[tuple[int, list[str]]] = []
    current: list[str] = []
    cur_sign = 1
    for piece in pieces:
        if piece in "+-":
            if current:
                terms.append((cur_sign, current))
            current = []
            cur_sign = 1 if piece == "+" else -1
        else:
            current.append(piece)
    if current:
        terms.append((cur_sign, current))
    if not terms:
        raise ParseError(lineno, 1, "empty relation")
    for sgn, toks in terms:
        factors = [f for tok in toks for f in tok.split("*") if f]
        coeff = sgn
        if factors and factors[0].isdigit():
            coeff = sgn * int(factors[0])
            factors = factors[1:]
        if not factors:
            raise ParseError(lineno, 1, "relation term has no path")
        arrow_idxs = []
        for f in factors:
            if f not in name_to_arrow:
                raise ParseError(lineno, 1, f"unknown arrow {f!r}")
            arrow_idxs.append(name_to_arrow[f])
        for a, b in zip(arrow_idxs, arrow_idxs[1:]):
            if quiver.arrow_target[a] != quiver.arrow_source[b]:
                raise ParseError(lineno, 1, "path factors do not compose")
        path = (quiver.arrow_source[arrow_idxs[0]], tuple(arrow_idxs))
        rel[path] = (rel.get(path, 0) + coeff) % p
    return rel
