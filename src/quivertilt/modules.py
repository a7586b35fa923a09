"""Representations of bound quiver algebras and their morphisms.

A representation assigns to each vertex an F_p-space (recorded by dimension)
and to each arrow s -> t a (dims[t] x dims[s]) matrix; relation matrices must
vanish.  Morphisms are vertex-indexed blocks satisfying the intertwining
equations.  Everything is immutable by convention: no routine mutates a
Representation or ModuleMap after construction.

Both constructors take `validate`.  With `validate=True` (the default) the
matrices or blocks are reduced mod p into fresh int64 arrays, their shapes are
checked, and then the relations (for a Representation) or the intertwining
equations (for a ModuleMap) are checked.  `validate=False` is the trusted path
for the package's own constructions: the caller hands int64 ndarrays with
entries already in [0, p) and of the declared shapes, which are stored as
given.  Nothing is normalized and nothing is checked but the shapes.
"""

from __future__ import annotations

import itertools

import numpy as np

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
            acc = None
            for path, coeff in rel.items():
                m = (coeff * self.path_matrix(path)) % self.algebra.p
                acc = m if acc is None else (acc + m) % self.algebra.p
            if acc is not None and np.any(acc):
                raise ValueError("relation matrix does not vanish on this representation")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def path_matrix(self, path: Path) -> np.ndarray:
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
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"blocks do not intertwine arrow {q.arrow_names[a]}")

    def compose(self, first: "ModuleMap") -> "ModuleMap":
        """self after first."""
        if first.target is not self.source and first.target.dims != self.source.dims:
            raise ValueError("maps not composable")
        blocks = [linalg.matmul(self.blocks[v], first.blocks[v], self.p) for v in range(len(self.blocks))]
        return ModuleMap(first.source, self.target, blocks, validate=False)

    def add(self, other: "ModuleMap") -> "ModuleMap":
        blocks = [(a + b) % self.p for a, b in zip(self.blocks, other.blocks)]
        return ModuleMap(self.source, self.target, blocks, validate=False)

    def scale(self, c: int) -> "ModuleMap":
        blocks = [(c * b) % self.p for b in self.blocks]
        return ModuleMap(self.source, self.target, blocks, validate=False)

    def negate(self) -> "ModuleMap":
        return self.scale(self.p - 1)

    def is_zero(self) -> bool:
        return all(not np.any(b) for b in self.blocks)

    def is_epi(self) -> bool:
        return all(linalg.rank(b, self.p) == self.target.dims[v] for v, b in enumerate(self.blocks))

    def is_mono(self) -> bool:
        return all(linalg.rank(b, self.p) == self.source.dims[v] for v, b in enumerate(self.blocks))

    def is_iso(self) -> bool:
        return self.source.dims == self.target.dims and all(
            linalg.is_invertible(b, self.p) for b in self.blocks
        )

    def flatten(self) -> np.ndarray:
        """Row-major concatenation of all blocks; coordinates for hom spaces."""
        parts = [b.reshape(-1) for b in self.blocks]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


def identity_map(m: Representation) -> ModuleMap:
    # The blocks are corners of one read-only identity, as in `direct_sum`.
    ident = linalg.eye(max(m.dims, default=0))
    ident.flags.writeable = False
    return ModuleMap(m, m, [ident[:d, :d] for d in m.dims], validate=False)


def zero_map(source: Representation, target: Representation) -> ModuleMap:
    blocks = [linalg.zeros(target.dims[v], source.dims[v]) for v in range(len(source.dims))]
    return ModuleMap(source, target, blocks, validate=False)


def map_from_flat(source: Representation, target: Representation, flat: np.ndarray) -> ModuleMap:
    blocks = []
    pos = 0
    for v in range(len(source.dims)):
        rows, cols = target.dims[v], source.dims[v]
        blocks.append(flat[pos : pos + rows * cols].reshape(rows, cols))
        pos += rows * cols
    return ModuleMap(source, target, blocks, validate=False)


def _intertwining_system(m: Representation, n: Representation) -> np.ndarray | None:
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
    n_eqs = [n.dims[q.arrow_target[a]] * m.dims[q.arrow_source[a]] for a in range(q.n_arrows)]
    system = linalg.zeros(sum(n_eqs), total)
    row = 0
    for a, n_eq in enumerate(n_eqs):
        if n_eq == 0:
            continue
        s, t = q.arrow_source[a], q.arrow_target[a]
        eqs = slice(row, row + n_eq)
        row += n_eq
        # Both Kronecker products are written into views of the system that
        # split each axis as (block, entry), so no identity matrix is formed.
        # vec(f_t @ M_a) = (I_{n_t} kron M_a^T) vec(f_t)   (row-major vec)
        if var_dims[t]:
            blocks = system[eqs, offsets[t] : offsets[t + 1]].reshape(
                n.dims[t], m.dims[s], n.dims[t], m.dims[t])
            for i in range(n.dims[t]):
                blocks[i, :, i, :] = m.matrices[a].T
        # vec(N_a @ f_s) = (N_a kron I_{m_s}) vec(f_s)
        if var_dims[s]:
            blocks = system[eqs, offsets[s] : offsets[s + 1]].reshape(
                n.dims[t], m.dims[s], n.dims[s], m.dims[s])
            for i in range(m.dims[s]):
                blocks[:, i, :, i] -= n.matrices[a]
    system %= p
    return system


def hom_basis(m: Representation, n: Representation) -> list[ModuleMap]:
    """Deterministic basis of Hom(m, n): nullspace of the intertwining system."""
    system = _intertwining_system(m, n)
    if system is None:
        return []
    basis = linalg.nullspace(system, m.algebra.p)
    return [map_from_flat(m, n, basis[:, k]) for k in range(basis.shape[1])]


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n): unknowns minus the rank of the intertwining system."""
    system = _intertwining_system(m, n)
    if system is None:
        return 0
    return system.shape[1] - linalg.rank(system, m.algebra.p)


def linear_combination(maps: list[ModuleMap], coeffs) -> ModuleMap:
    """Sum of c_i * f_i over a nonempty list of maps with a common source and
    target; the zero map when every c_i is zero."""
    source, target = maps[0].source, maps[0].target
    p = source.algebra.p
    blocks = [linalg.zeros(target.dims[v], source.dims[v]) for v in range(len(source.dims))]
    for f, c in zip(maps, coeffs):
        c = int(c) % p
        if c:
            blocks = [(b + c * fb) % p for b, fb in zip(blocks, f.blocks)]
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
            self._basis_mat = np.stack([f.flatten() for f in self.basis], axis=1) % self.p
            cols = [self._basis_coords(g.compose(k)) for g in hom_basis(k.target, n)]
            sub = np.stack(cols, axis=1) if cols else linalg.zeros(ncols, 0)
            self.quot = linalg.QuotientSpace(ncols, sub, self.p)
        self.dim = self.quot.dim

    def _basis_coords(self, f: ModuleMap) -> np.ndarray:
        sol = linalg.solve(self._basis_mat, f.flatten().reshape(-1, 1), self.p)
        if sol is None:
            raise ValueError("map does not lie in this hom space")
        return sol.reshape(-1)

    def representative(self, coords) -> ModuleMap:
        """The canonical map m -> n in the class with the given coordinates."""
        if self.dim == 0:
            return zero_map(self.m, self.n)
        lifted = self.quot.lift(np.asarray(coords, dtype=np.int64))
        return linear_combination(self.basis, lifted)


def _subspace_with_induced_action(rep: Representation, bases: list[np.ndarray]):
    """Subrepresentation on given vertex-wise column bases; returns (sub, inclusion)."""
    p = rep.algebra.p
    q = rep.algebra.quiver
    dims = tuple(b.shape[1] for b in bases)
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
        proj = linalg.zeros(quot.dim, quot.ambient_dim)
        if quot.dim:
            proj[range(quot.dim), quot.free] = 1
            proj[:, quot.sub_pivots] = (-quot.sub_rows[:, quot.free]).T % p
        projections.append(proj)
    mats = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        # Q_a @ proj_s = proj_t @ N_a.  The free columns of s span a section
        # of proj_s (proj_s is the identity there), so Q_a is read off them.
        rhs = linalg.matmul(projections[t], rep.matrices[a], p)
        if rhs.size:
            action = rhs[:, quots[s].free]
            if not np.array_equal(linalg.matmul(action, projections[s], p), rhs):
                raise ValueError("cokernel action is not well defined")
        else:
            action = linalg.zeros(quots[t].dim, quots[s].dim)
        mats.append(action)
    dims = tuple(quot.dim for quot in quots)
    coker = Representation(rep.algebra, dims, mats, validate=False)
    proj_map = ModuleMap(rep, coker, projections, validate=False)
    return coker, proj_map


def direct_sum(reps: list[Representation]):
    """Direct sum with inclusion and projection maps per summand."""
    if not reps:
        raise ValueError("empty direct sum; use zero_representation")
    alg = reps[0].algebra
    p = alg.p
    q = alg.quiver
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(q.n_vertices))
    mats = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        m = linalg.zeros(dims[t], dims[s])
        ro = co = 0
        for r in reps:
            if r.matrices[a].size:
                m[ro : ro + r.dims[t], co : co + r.dims[s]] = r.matrices[a]
            ro += r.dims[t]
            co += r.dims[s]
        mats.append(m)
    total = Representation(alg, dims, mats, validate=False)
    # The inclusion and projection blocks of each summand are slices of one
    # read-only identity: its leading d x d corner is the identity of size d.
    ident = linalg.eye(max(dims, default=0))
    ident.flags.writeable = False
    inclusions = []
    projections = []
    offsets = [0] * q.n_vertices
    for r in reps:
        ends = [o + d for o, d in zip(offsets, r.dims)]
        inclusions.append(ModuleMap(r, total, [ident[:d, o:e] for d, o, e in zip(dims, offsets, ends)],
                                    validate=False))
        projections.append(ModuleMap(total, r, [ident[o:e, :d] for d, o, e in zip(dims, offsets, ends)],
                                     validate=False))
        offsets = ends
    return total, inclusions, projections


def dual_representation(rep: Representation) -> Representation:
    """The F_p-dual as a representation of the opposite algebra."""
    op = rep.algebra.opposite()
    mats = []
    for a in range(op.quiver.n_arrows):
        # opposite arrow a runs t -> s where the original runs s -> t
        mats.append(rep.matrices[a].T.copy())
    return Representation(op, rep.dims, mats, validate=False)


def dual_map(f: ModuleMap) -> ModuleMap:
    """Dual of f: A -> B, as D(B) -> D(A) over the opposite algebra."""
    da = dual_representation(f.source)
    db = dual_representation(f.target)
    blocks = [b.T.copy() for b in f.blocks]
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


def radical_subspaces(rep: Representation) -> list[np.ndarray]:
    """Vertex-wise bases of rad(M) = sum of arrow images."""
    p = rep.algebra.p
    q = rep.algebra.quiver
    pieces: list[list[np.ndarray]] = [[] for _ in range(q.n_vertices)]
    for a in range(q.n_arrows):
        t = q.arrow_target[a]
        if rep.matrices[a].size:
            pieces[t].append(rep.matrices[a])
    out = []
    for v in range(q.n_vertices):
        if pieces[v]:
            stacked = np.concatenate(pieces[v], axis=1)
            out.append(linalg.column_space_basis(stacked, p))
        else:
            out.append(linalg.zeros(rep.dims[v], 0))
    return out


def top_dims(rep: Representation) -> list[int]:
    """Vertex-wise dimensions of top(M) = M / rad(M)."""
    return [d - b.shape[1] for d, b in zip(rep.dims, radical_subspaces(rep))]


def socle_subspaces(rep: Representation) -> list[np.ndarray]:
    """Vertex-wise bases of soc(M) = joint kernel of all outgoing arrows."""
    p = rep.algebra.p
    q = rep.algebra.quiver
    out = []
    for v in range(q.n_vertices):
        rows = [rep.matrices[a] for a in range(q.n_arrows) if q.arrow_source[a] == v]
        if rows:
            stacked = np.concatenate(rows, axis=0)
            out.append(linalg.nullspace(stacked, p))
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
    ends = [b.shape[1] for b in socle_subspaces(m)] if dual else top_dims(m)
    if sum(ends) != 1:
        return None
    v = ends.index(1)
    return v if m.dims == shapes[v] else None


def is_end(m: Representation, dual: bool = False) -> bool:
    """Whether m is an indecomposable projective (with `dual`, injective)."""
    return end_vertex(m, dual) is not None
