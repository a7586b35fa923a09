"""Oracle: rank bookkeeping for the two long exact Hom/E sequences of a
conflation.

For a conflation A -> B -> C and a test object X the covariant sequence

  Hom(X,A) -> Hom(X,B) -> Hom(X,C) -> E(X,A) -> E(X,B) -> E(X,C) -> E^2(X,A) ...

must be exact.  The in-row maps (images of x and y under the Hom and E^k
functors) are computed as matrices on explicit coordinates; connecting maps
are not constructed.  Exactness is verified by rank bookkeeping: full rank
balance at every middle node, and consistency of the two deductions of each
connecting map's rank at the junctions.  The contravariant sequence is
checked dually, with maps between syzygies transported by `syzygy_transport`.

No command of the package reaches this check; the tests run it on every
conflation of small contexts, as an independent test of E^k and of the
realized conflations.
"""

from __future__ import annotations

from quivertilt import linalg
from quivertilt.contexts import Context, ContextError, ExactExtSpace
from quivertilt.homology import minimal_resolution
from quivertilt.modules import ModuleMap, Representation, hom_basis, linear_combination, zero_map
from oracle import Conflation, StableHomSpace, class_of, loop


def syzygy_transport(f: ModuleMap) -> ModuleMap:
    """Omega(f): induced map on minimal first syzygies, via a cover lift."""
    p = f.p
    res_s = minimal_resolution(f.source)
    res_t = minimal_resolution(f.target)
    res_s.extend(0)
    res_t.extend(0)
    p_s, cover_s = res_s.terms[0], res_s.diffs[0]
    p_t, cover_t = res_t.terms[0], res_t.diffs[0]
    lifted = lift_through_epi(f.compose(cover_s), cover_t)
    incl_s = res_s.syzygy_incls[0]
    incl_t = res_t.syzygy_incls[0]
    blocks = []
    for v in range(len(incl_s.blocks)):
        rhs = linalg.matmul(lifted.blocks[v], incl_s.blocks[v], p)
        sol = linalg.solve(incl_t.blocks[v], rhs, p)
        if sol is None:
            raise RuntimeError("cover lift does not restrict to syzygies")
        blocks.append(sol)
    return ModuleMap(res_s.syzygies[0], res_t.syzygies[0], blocks, validate=False)


def lift_through_epi(f: ModuleMap, epi: ModuleMap) -> ModuleMap:
    """Some g with epi o g = f, assuming f's source is projective."""
    p = f.p
    basis = hom_basis(f.source, epi.source)
    if not basis:
        if f.is_zero():
            return zero_map(f.source, epi.source)
        raise RuntimeError("no maps available to lift through the surjection")
    mat = linalg.from_columns([epi.compose(g).flatten() for g in basis], len(f.flatten()))
    sol = linalg.solve(mat, f.flatten(), p)
    if sol is None:
        raise RuntimeError("lift through surjection does not exist")
    return linear_combination(basis, sol)


class _HomNode:
    """Plain Hom(anchor, m) with hom-basis coordinates (exact model)."""

    def __init__(self, anchor: Representation, m: Representation):
        self.anchor = anchor
        self.m = m
        self.basis = hom_basis(anchor, m)
        self.dim = len(self.basis)

    def postcompose_matrix(self, f: ModuleMap, target: "_HomNode") -> linalg.Matrix:
        p = self.anchor.algebra.p
        if not (self.dim and target.dim):
            return linalg.zeros(target.dim, self.dim)
        flats = [g.flatten() for g in target.basis]
        tgt = linalg.from_columns(flats, len(flats[0]))
        cols = []
        for g in self.basis:
            sol = linalg.solve(tgt, f.compose(g).flatten(), p)
            if sol is None:
                raise ContextError("postcomposition escaped the hom space")
            cols.append(sol)
        return linalg.from_columns(cols, target.dim)


class _QuotientNode:
    """A node with coordinates on a Hom quotient: stable Hom(anchor, m)
    (StableHomSpace), or E^k(X, m) via Yoneda coordinates anchored at the raw
    (k-1)-st syzygy (ExactExtSpace)."""

    def __init__(self, space_cls, anchor: Representation, m: Representation):
        self.anchor = anchor
        self.space = space_cls(anchor, m)
        self.dim = self.space.dim

    def postcompose_matrix(self, f: ModuleMap, target: "_QuotientNode") -> linalg.Matrix:
        cols = [class_of(target.space, f.compose(self.space.representative(coords)))
                for coords in linalg.eye(self.dim).rows]
        return linalg.from_columns(cols, target.dim)


def _covariant_nodes_and_maps(ctx: Context, conf: Conflation, x_rep: Representation, depth: int):
    """Node dims and in-row map matrices of the covariant sequence."""
    root = ctx.root_kind
    reps = (conf.a_rep, conf.b_rep, conf.c_rep)
    maps = (conf.x, conf.y)
    nodes = []
    arrows = []
    if root == "mod":
        anchors = [x_rep]
        res = minimal_resolution(x_rep)
        for k in range(1, depth + 1):
            anchors.append(res.syzygy_module(k))
        level0 = [_HomNode(x_rep, r) for r in reps]
        nodes.append(level0)
        for k in range(1, depth + 1):
            nodes.append([_QuotientNode(ExactExtSpace, anchors[k - 1], r) for r in reps])
    else:
        anchors = [x_rep]
        cur = x_rep
        for k in range(1, depth + 1):
            cur = loop(cur)
            anchors.append(cur)
        for k in range(0, depth + 1):
            nodes.append([_QuotientNode(StableHomSpace, anchors[k], r) for r in reps])
    for level in nodes:
        arrows.append(
            (
                level[0].postcompose_matrix(maps[0], level[1]),
                level[1].postcompose_matrix(maps[1], level[2]),
            )
        )
    return nodes, arrows


def _contravariant_nodes_and_maps(ctx: Context, conf: Conflation, x_rep: Representation, depth: int):
    root = ctx.root_kind
    reps = (conf.c_rep, conf.b_rep, conf.a_rep)
    p = ctx.algebra.p
    # in the exact model the level-k Yoneda space is anchored at the (k-1)-st
    # syzygy but its class representatives start at the k-th, so transport
    # uses Omega^k in both models
    ys = [conf.y]
    xs = [conf.x]
    for k in range(1, depth + 1):
        ys.append(syzygy_transport(ys[-1]))
        xs.append(syzygy_transport(xs[-1]))
    nodes = []
    if root == "mod":
        nodes.append([_HomNode(r, x_rep) for r in reps])
        for k in range(1, depth + 1):
            anchor_reps = [
                minimal_resolution(r).syzygy_module(k - 1) if k > 1 else r for r in reps
            ]
            nodes.append([_QuotientNode(ExactExtSpace, a, x_rep) for a in anchor_reps])
    else:
        anchors = list(reps)
        nodes.append([_QuotientNode(StableHomSpace, a, x_rep) for a in anchors])
        for k in range(1, depth + 1):
            anchors = [loop(r) for r in anchors]
            nodes.append([_QuotientNode(StableHomSpace, a, x_rep) for a in anchors])
    arrows = [
        (
            _precompose_matrix(level[0], level[1], ys[k], p),
            _precompose_matrix(level[1], level[2], xs[k], p),
        )
        for k, level in enumerate(nodes)
    ]
    return nodes, arrows


def _precompose_matrix(src_node, tgt_node, f: ModuleMap, p: int) -> linalg.Matrix:
    cols = []
    for i, coords in enumerate(linalg.eye(src_node.dim).rows):
        if isinstance(src_node, _HomNode):
            rep_map = src_node.basis[i]
            cols.append(_hom_class(tgt_node, rep_map.compose(f), p))
        else:
            rep_map = src_node.space.representative(coords)
            cols.append(class_of(tgt_node.space, rep_map.compose(f)))
    return linalg.from_columns(cols, tgt_node.dim)


def _hom_class(node: _HomNode, f: ModuleMap, p: int) -> tuple:
    if node.dim == 0:
        if not f.is_zero():
            raise ContextError("precomposition escaped the hom space")
        return ()
    flats = [g.flatten() for g in node.basis]
    sol = linalg.solve(linalg.from_columns(flats, len(flats[0])), f.flatten(), p)
    if sol is None:
        raise ContextError("precomposition escaped the hom space")
    return sol


def _bookkeeping(nodes, arrows, p: int) -> tuple[bool, list[str]]:
    problems = []
    for k, level in enumerate(nodes):
        a_mat, b_mat = arrows[k]
        comp = linalg.matmul(b_mat, a_mat, p)
        if not comp.is_zero():
            problems.append(f"level {k}: consecutive maps do not compose to zero")
        ra, rb = linalg.rank(a_mat, p), linalg.rank(b_mat, p)
        if ra + rb != level[1].dim:
            problems.append(
                f"level {k}: middle node fails exactness "
                f"(rank-in {ra} + rank-out {rb} != dim {level[1].dim})"
            )
        if k + 1 < len(nodes):
            next_a = arrows[k + 1][0]
            lhs = level[2].dim - rb
            rhs = nodes[k + 1][0].dim - linalg.rank(next_a, p)
            if lhs != rhs:
                problems.append(
                    f"junction {k}->{k + 1}: connecting rank deduced as {lhs} "
                    f"from the end node but {rhs} from the next start node"
                )
    return not problems, problems


def les_bookkeeping(ctx: Context, conf: Conflation, x_idx: int, depth: int) -> tuple[bool, dict]:
    """Exactness bookkeeping for both long sequences of a conflation against
    one test object, through E^depth."""
    x_rep = ctx.objects[x_idx].rep
    nodes_c, arrows_c = _covariant_nodes_and_maps(ctx, conf, x_rep, depth)
    ok_c, probs_c = _bookkeeping(nodes_c, arrows_c, ctx.algebra.p)
    nodes_x, arrows_x = _contravariant_nodes_and_maps(ctx, conf, x_rep, depth)
    ok_x, probs_x = _bookkeeping(nodes_x, arrows_x, ctx.algebra.p)
    detail = {
        "conflation": conf.describe(),
        "test_object": ctx.object_names[x_idx],
        "covariant": probs_c,
        "contravariant": probs_x,
    }
    return ok_c and ok_x, detail
