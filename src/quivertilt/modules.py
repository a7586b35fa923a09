"""Representations of bound quiver algebras and their morphisms.

A representation assigns to each vertex an F_p-space (recorded by dimension)
and to each arrow s -> t a (dims[t] x dims[s]) matrix; relation matrices must
vanish.  Morphisms are vertex-indexed blocks satisfying the intertwining
equations.  Everything is immutable by convention: no routine mutates a
Representation or ModuleMap after construction, but for the values cached on a
representation: `radical_subspaces` (a tuple), and hulls, resolutions and
fingerprints (`homology`, `decompose`).

Both constructors take `validate`.  With `validate=True` (the default) the
matrices or blocks, given as `linalg.Matrix`es or as sequences of rows, are
reduced mod p into fresh `linalg.Matrix`es, their shapes are checked, and
then the relations (for a Representation) or the intertwining equations (for
a ModuleMap) are checked.  `validate=False` is the trusted path for the
package's own constructions: the caller hands `linalg.Matrix`es with entries
already in [0, p) and of the declared shapes, which are stored as given.
Nothing is normalized and nothing is checked but the shapes.
"""

from __future__ import annotations

import itertools

from . import linalg
from .algebra import BoundQuiverAlgebra, Path, projective_module


class Representation:
    def __init__(self, algebra: BoundQuiverAlgebra, dims, matrices, validate: bool = True):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        q = algebra.quiver
        if len(self.dims) != q.n_vertices:
            raise ValueError("dimension vector length mismatch")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        if len(matrices) != q.n_arrows:
            raise ValueError(f"{len(matrices)} matrices for {q.n_arrows} arrows")
        self.matrices = [linalg.normalize(m, algebra.p) for m in matrices] if validate else list(matrices)
        shapes = [m.shape for m in self.matrices]
        wants = [(self.dims[t], self.dims[s]) for s, t in zip(q.arrow_source, q.arrow_target)]
        if shapes != wants:
            a = next(a for a, (got, want) in enumerate(zip(shapes, wants)) if got != want)
            raise ValueError(f"arrow {q.arrow_names[a]}: matrix shape {shapes[a]}, expected {wants[a]}")
        if validate:
            self._check_relations()

    def _check_relations(self):
        for rel in self.algebra.relations:
            mats = [self.path_matrix(path) for path in rel]
            if mats and not linalg.combination(rel.values(), mats, self.algebra.p, mats[0].shape).is_zero():
                raise ValueError("relation matrix does not vanish on this representation")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def path_matrix(self, path: Path) -> linalg.Matrix:
        """Matrix of the path acting from its source space to its target space."""
        alg = self.algebra
        v = path[0]
        m = linalg.eye(self.dims[v])
        for a in path[1]:
            m = linalg.matmul(self.matrices[a], m, alg.p)
        return m

    def __repr__(self):
        return f"Rep{self.dims}"


def zero_representation(algebra: BoundQuiverAlgebra) -> Representation:
    q = algebra.quiver
    dims = (0,) * q.n_vertices
    mats = [linalg.zeros(0, 0) for _ in range(q.n_arrows)]
    return Representation(algebra, dims, mats, validate=False)


class ModuleMap:
    def __init__(self, source: Representation, target: Representation, blocks, validate: bool = True):
        if source.algebra is not target.algebra:
            raise ValueError("source and target live over different algebras")
        self.source = source
        self.target = target
        self.p = source.algebra.p
        if len(blocks) != len(source.dims):
            raise ValueError(f"{len(blocks)} blocks for {len(source.dims)} vertices")
        self.blocks = [linalg.normalize(b, self.p) for b in blocks] if validate else list(blocks)
        shapes, wants = [b.shape for b in self.blocks], list(zip(target.dims, source.dims))
        if shapes != wants:
            v = next(v for v, (got, want) in enumerate(zip(shapes, wants)) if got != want)
            raise ValueError(f"vertex {v}: block shape {shapes[v]}, expected {wants[v]}")
        if validate:
            self._check_intertwining()

    def _check_intertwining(self):
        q = self.source.algebra.quiver
        for a in range(q.n_arrows):
            s, t = q.arrow_source[a], q.arrow_target[a]
            lhs = linalg.matmul(self.blocks[t], self.source.matrices[a], self.p)
            rhs = linalg.matmul(self.target.matrices[a], self.blocks[s], self.p)
            if lhs != rhs:
                raise ValueError(f"blocks do not intertwine arrow {q.arrow_names[a]}")

    def compose(self, first: "ModuleMap") -> "ModuleMap":
        """self after first."""
        if first.target is not self.source and first.target.dims != self.source.dims:
            raise ValueError("maps not composable")
        blocks = [linalg.matmul(self.blocks[v], first.blocks[v], self.p) for v in range(len(self.blocks))]
        return ModuleMap(first.source, self.target, blocks, validate=False)

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def is_epi(self) -> bool:
        return all(linalg.rank(b, self.p) == self.target.dims[v] for v, b in enumerate(self.blocks))

    def is_mono(self) -> bool:
        return all(linalg.rank(b, self.p) == self.source.dims[v] for v, b in enumerate(self.blocks))

    def is_iso(self) -> bool:
        return self.source.dims == self.target.dims and all(
            linalg.is_invertible(b, self.p) for b in self.blocks
        )

    def flatten(self) -> tuple:
        """Row-major concatenation of all blocks; coordinates for hom spaces."""
        return tuple(x for b in self.blocks for row in b.rows for x in row)

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


def identity_map(m: Representation) -> ModuleMap:
    return ModuleMap(m, m, [linalg.eye(d) for d in m.dims], validate=False)


def zero_map(source: Representation, target: Representation) -> ModuleMap:
    blocks = [linalg.zeros(target.dims[v], source.dims[v]) for v in range(len(source.dims))]
    return ModuleMap(source, target, blocks, validate=False)


def map_from_flat(source: Representation, target: Representation, flat: tuple) -> ModuleMap:
    blocks = []
    pos = 0
    for v in range(len(source.dims)):
        rows, cols = target.dims[v], source.dims[v]
        blocks.append(linalg.from_flat(flat[pos : pos + rows * cols], rows, cols))
        pos += rows * cols
    return ModuleMap(source, target, blocks, validate=False)


def _intertwining_system(m: Representation, n: Representation) -> linalg.Matrix | None:
    """Matrix whose right kernel is Hom(m, n), one column per block entry
    (row-major, vertex by vertex); None when there are no unknowns."""
    if m.algebra is not n.algebra:
        raise ValueError("representations live over different algebras")
    p = m.algebra.p
    q = m.algebra.quiver
    var_dims = [n.dims[v] * m.dims[v] for v in range(q.n_vertices)]
    offsets = list(itertools.accumulate(var_dims, initial=0))
    total = offsets[-1]
    if total == 0:
        return None
    rows = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        # Row (i, j) is entry (i, j) of f_t @ M_a - N_a @ f_s, f_v stored
        # row-major from offsets[v]: f_t[i, k] has coefficient M_a[k, j],
        # and f_s[l, j], which lie m_s apart, have -N_a[i, l].
        at_t = offsets[t]
        cols = m.matrices[a].T.rows
        negated = [tuple(-x % p for x in row) for row in n.matrices[a].rows]
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [0] * total
                row[at_t + i * m.dims[t] : at_t + (i + 1) * m.dims[t]] = cols[j]
                at_s = slice(offsets[s] + j, offsets[s + 1], m.dims[s])
                row[at_s] = [(x + y) % p for x, y in zip(row[at_s], negated[i])] if s == t else negated[i]
                rows.append(tuple(row))
    return linalg.Matrix(tuple(rows), total)


def hom_basis(m: Representation, n: Representation) -> list[ModuleMap]:
    """Deterministic basis of Hom(m, n): nullspace of the intertwining system."""
    system = _intertwining_system(m, n)
    if system is None:
        return []
    return [map_from_flat(m, n, vec) for vec in linalg.nullspace(system, m.algebra.p).T.rows]


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n): unknowns minus the rank of the intertwining system."""
    system = _intertwining_system(m, n)
    if system is None:
        return 0
    return system.ncols - linalg.rank(system, m.algebra.p)


def linear_combination(maps: list[ModuleMap], coeffs) -> ModuleMap:
    """Sum of c_i * f_i over a nonempty list of maps with a common source and
    target; the zero map when every c_i is zero."""
    source, target = maps[0].source, maps[0].target
    coeffs = list(coeffs)
    blocks = [linalg.combination(coeffs, [f.blocks[v] for f in maps], source.algebra.p, (d, source.dims[v]))
              for v, d in enumerate(target.dims)]
    return ModuleMap(source, target, blocks, validate=False)


class HomQuotient:
    """Hom(m, n) modulo the maps g o k that factor through k: m -> k.target,
    with coordinates on the quotient and canonical representatives."""

    def __init__(self, k: ModuleMap, n: Representation):
        self.m = k.source
        self.n = n
        self.p = k.p
        self.basis = hom_basis(self.m, n)
        ncols = len(self.basis)
        if ncols == 0:
            self.quot = linalg.QuotientSpace(0, linalg.zeros(0, 0), self.p)
        else:
            flats = [f.flatten() for f in self.basis]
            self._basis_mat = linalg.from_columns(flats, len(flats[0]))
            cols = [self._basis_coords(g.compose(k)) for g in hom_basis(k.target, n)]
            self.quot = linalg.QuotientSpace(ncols, linalg.from_columns(cols, ncols), self.p)
        self.dim = self.quot.dim

    def _basis_coords(self, f: ModuleMap) -> tuple:
        sol = linalg.solve(self._basis_mat, f.flatten(), self.p)
        if sol is None:
            raise ValueError("map does not lie in this hom space")
        return sol

    def representative(self, coords) -> ModuleMap:
        """The canonical map m -> n in the class with the given coordinates."""
        if self.dim == 0:
            return zero_map(self.m, self.n)
        return linear_combination(self.basis, self.quot.lift(coords))


def _subspace_with_induced_action(rep: Representation, bases: list[linalg.Matrix]):
    """Subrepresentation on given vertex-wise column bases; returns (sub, inclusion)."""
    p = rep.algebra.p
    q = rep.algebra.quiver
    dims = tuple(b.ncols for b in bases)
    mats = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        img = linalg.matmul(rep.matrices[a], bases[s], p)
        sol = linalg.solve(bases[t], img, p)
        if sol is None:
            raise ValueError("vertex subspaces are not arrow-invariant")
        mats.append(sol)
    sub = Representation(rep.algebra, dims, mats, validate=False)
    incl = ModuleMap(sub, rep, bases, validate=False)
    return sub, incl


def kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise kernel with induced arrow action; returns (ker, inclusion)."""
    p = f.p
    bases = [linalg.nullspace(b, p) for b in f.blocks]
    return _subspace_with_induced_action(f.source, bases)


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Quotient of the target by the image; returns (coker, projection)."""
    p = f.p
    rep = f.target
    q = rep.algebra.quiver
    quots = [linalg.QuotientSpace(rep.dims[v], f.blocks[v], p) for v in range(q.n_vertices)]
    projections = []
    for quot in quots:
        # Reducing a unit vector e_c modulo the echelon rows leaves e_c on a
        # free column c and e_c minus the row with pivot c on a pivot column.
        rows = []
        for c in quot.free:
            row = [0] * quot.ambient_dim
            row[c] = 1
            for pc, sub_row in zip(quot.sub_pivots, quot.sub_rows):
                row[pc] = -sub_row[c] % p
            rows.append(tuple(row))
        projections.append(linalg.Matrix(tuple(rows), quot.ambient_dim))
    mats = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        # Q_a @ proj_s = proj_t @ N_a.  The free columns of s span a section
        # of proj_s (proj_s is the identity there), so Q_a is read off them.
        rhs = linalg.matmul(projections[t], rep.matrices[a], p)
        action = linalg.columns(rhs, quots[s].free)
        if rhs.rows and rhs.ncols and linalg.matmul(action, projections[s], p) != rhs:
            raise ValueError("cokernel action is not well defined")
        mats.append(action)
    dims = tuple(quot.dim for quot in quots)
    coker = Representation(rep.algebra, dims, mats, validate=False)
    proj_map = ModuleMap(rep, coker, projections, validate=False)
    return coker, proj_map


def direct_sum(reps: list[Representation]) -> Representation:
    """The direct sum of a nonempty list of representations, the summands
    taking the coordinates at each vertex in order.  Only the module:
    `summand_maps` gives the inclusions and projections."""
    if not reps:
        raise ValueError("empty direct sum; use zero_representation")
    alg = reps[0].algebra
    q = alg.quiver
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(q.n_vertices))
    mats = []
    for a in range(q.n_arrows):
        s = q.arrow_source[a]
        rows = []
        co = 0
        for r in reps:
            left, right = (0,) * co, (0,) * (dims[s] - co - r.dims[s])
            rows += [left + row + right for row in r.matrices[a].rows]
            co += r.dims[s]
        mats.append(linalg.Matrix(tuple(rows), dims[s]))
    return Representation(alg, dims, mats, validate=False)


def summand_maps(total: Representation, reps: list[Representation], dual: bool = False) -> list[ModuleMap]:
    """The inclusions r -> total of the summands of total = direct_sum(reps),
    in order; with `dual`, the projections total -> r."""
    maps = []
    offsets = [0] * len(total.dims)
    for r in reps:
        ends = [o + d for o, d in zip(offsets, r.dims)]
        blocks = [linalg.unit_rows(range(o, e), d) for d, o, e in zip(total.dims, offsets, ends)]
        maps.append(ModuleMap(total, r, blocks, validate=False) if dual
                    else ModuleMap(r, total, [b.T for b in blocks], validate=False))
        offsets = ends
    return maps


def dual_representation(rep: Representation) -> Representation:
    """The F_p-dual as a representation of the opposite algebra."""
    op = rep.algebra.opposite()
    mats = []
    for a in range(op.quiver.n_arrows):
        # opposite arrow a runs t -> s where the original runs s -> t
        mats.append(rep.matrices[a].T)
    return Representation(op, rep.dims, mats, validate=False)


def dual_map(f: ModuleMap) -> ModuleMap:
    """Dual of f: A -> B, as D(B) -> D(A) over the opposite algebra."""
    da = dual_representation(f.source)
    db = dual_representation(f.target)
    blocks = [b.T for b in f.blocks]
    return ModuleMap(db, da, blocks, validate=False)


def twist(rep: Representation, sigma, arrows) -> Representation:
    """rep moved along an algebra automorphism: the space at vertex v goes to
    sigma[v] and the matrix of arrow a to arrow arrows[a]
    (`algebra.induced_arrows`)."""
    dims = [0] * len(rep.dims)
    for v, d in enumerate(rep.dims):
        dims[sigma[v]] = d
    mats = [None] * len(rep.matrices)
    for a, m in enumerate(rep.matrices):
        mats[arrows[a]] = m
    return Representation(rep.algebra, dims, mats, validate=False)


def radical_subspaces(rep: Representation) -> tuple[linalg.Matrix, ...]:
    """Vertex-wise bases of rad(M) = sum of arrow images; cached on the
    representation object."""
    if getattr(rep, "_rad", None) is not None:
        return rep._rad
    p = rep.algebra.p
    q = rep.algebra.quiver
    pieces: list[list[linalg.Matrix]] = [[] for _ in range(q.n_vertices)]
    for a in range(q.n_arrows):
        t = q.arrow_target[a]
        if rep.matrices[a].rows and rep.matrices[a].ncols:
            pieces[t].append(rep.matrices[a])
    out = []
    for v in range(q.n_vertices):
        if pieces[v]:
            out.append(linalg.column_space_basis(linalg.hstack(pieces[v]), p))
        else:
            out.append(linalg.zeros(rep.dims[v], 0))
    rep._rad = tuple(out)
    return rep._rad


def top_dims(rep: Representation) -> list[int]:
    """Vertex-wise dimensions of top(M) = M / rad(M)."""
    return [d - b.ncols for d, b in zip(rep.dims, radical_subspaces(rep))]


def socle_subspaces(rep: Representation) -> list[linalg.Matrix]:
    """Vertex-wise bases of soc(M) = joint kernel of all outgoing arrows."""
    p = rep.algebra.p
    q = rep.algebra.quiver
    out = []
    for v in range(q.n_vertices):
        rows = [rep.matrices[a] for a in range(q.n_arrows) if q.arrow_source[a] == v]
        if rows:
            out.append(linalg.nullspace(linalg.vstack(rows), p))
        else:
            out.append(linalg.eye(rep.dims[v]))
    return out


def end_vertex(m: Representation, dual: bool = False) -> int | None:
    """The vertex v with m isomorphic to P_v (with `dual`, I_v), or None:
    m is P_v when its top (socle) is one simple S_v and it has the dimension
    vector of P_v (I_v), of which it is then a quotient (submodule).  The
    dimension vector is compared first, as it costs no elimination."""
    alg = m.algebra.opposite() if dual else m.algebra
    shapes = [projective_module(alg, v).dims for v in alg.quiver.vertex_ids]
    if m.dims not in shapes:
        return None
    ends = [b.ncols for b in socle_subspaces(m)] if dual else top_dims(m)
    if sum(ends) != 1:
        return None
    v = ends.index(1)
    return v if m.dims == shapes[v] else None


def is_end(m: Representation, dual: bool = False) -> bool:
    """Whether m is an indecomposable projective (with `dual`, injective)."""
    return end_vertex(m, dual) is not None
