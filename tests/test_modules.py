import numpy as np
import pytest

from quivertilt import linalg
from quivertilt.algebra import nakayama_cyclic, projective_module, simple_module
from quivertilt.contexts import build_exact_context
from quivertilt.modules import (
    Representation,
    _intertwining_system,
    cokernel,
    direct_sum,
    dual_representation,
    hom_basis,
    hom_dim,
    identity_map,
    is_end,
    kernel,
    radical_subspaces,
    socle_subspaces,
    summand_maps,
    zero_representation,
)
from oracle import as_array, image, is_end_by_search


def test_relation_violation_rejected(dual_numbers):
    with pytest.raises(ValueError, match="relation"):
        Representation(dual_numbers, (1,), [np.array([[1]], dtype=np.int64)])


def test_hom_examples(a2):
    p1 = projective_module(a2, 1)
    s1 = simple_module(a2, 1)
    s2 = simple_module(a2, 2)
    assert len(hom_basis(p1, s1)) == 1
    assert len(hom_basis(s2, s1)) == 0
    with pytest.raises(ValueError, match="different algebras"):
        hom_basis(p1, simple_module(a2.opposite(), 1))


def test_yoneda_dims_for_projectives(test_algebras):
    for alg in test_algebras.values():
        projectives = [projective_module(alg, v) for v in alg.quiver.vertex_ids]
        probes = [simple_module(alg, v) for v in alg.quiver.vertex_ids] + projectives
        for m in probes:
            for i, p_i in enumerate(projectives):
                assert len(hom_basis(p_i, m)) == m.dims[i]


def test_hom_dim_is_the_size_of_the_hom_basis(exact_contexts):
    for ctx in exact_contexts.values():
        for m in ctx.objects:
            for n in ctx.objects:
                assert hom_dim(m.rep, n.rep) == len(hom_basis(m.rep, n.rep))


def _system_by_numpy_kron(m, n):
    """The intertwining system written out with np.kron and identities."""
    p, q = m.algebra.p, m.algebra.quiver
    var_dims = [n.dims[v] * m.dims[v] for v in range(q.n_vertices)]
    offsets = np.cumsum([0] + var_dims)
    rows = []
    for a in range(q.n_arrows):
        s, t = q.arrow_source[a], q.arrow_target[a]
        eqs = np.zeros((n.dims[t] * m.dims[s], offsets[-1]), dtype=np.int64)
        m_a, n_a = as_array(m.matrices[a]), as_array(n.matrices[a])
        eqs[:, offsets[t] : offsets[t + 1]] += np.kron(np.eye(n.dims[t], dtype=np.int64), m_a.T)
        eqs[:, offsets[s] : offsets[s + 1]] -= np.kron(n_a, np.eye(m.dims[s], dtype=np.int64))
        rows.append(eqs)
    return np.concatenate(rows) % p


def test_intertwining_system_matches_numpy_kron(exact_contexts, stable_contexts):
    """Loops (s = t), zero-dimensional vertices, several arrows, and fields
    where -1 is not 1."""
    odd = [build_exact_context(nakayama_cyclic(3, 2, 5)), build_exact_context(nakayama_cyclic(1, 3, 3))]
    for ctx in [*exact_contexts.values(), *stable_contexts.values(), *odd]:
        for m in ctx.objects:
            for n in ctx.objects:
                system = _intertwining_system(m.rep, n.rep)
                if system is None:
                    assert not any(a * b for a, b in zip(m.rep.dims, n.rep.dims))
                else:
                    assert np.array_equal(as_array(system), _system_by_numpy_kron(m.rep, n.rep))


def test_endomorphisms_contain_identity(a2):
    p1 = projective_module(a2, 1)
    basis = hom_basis(p1, p1)
    ident = identity_map(p1).flatten()
    mat = linalg.from_columns([f.flatten() for f in basis], len(ident))
    assert linalg.solve(mat, ident, a2.p) is not None


def test_kernel_cokernel_examples(a2):
    p1 = projective_module(a2, 1)
    s1 = simple_module(a2, 1)
    s2 = simple_module(a2, 2)
    top = hom_basis(p1, s1)[0]
    k, incl = kernel(top)
    assert k.dims == (0, 1)
    assert incl.is_mono()
    ck, proj = cokernel(hom_basis(s2, p1)[0])
    assert ck.dims == (1, 0)
    assert proj.is_epi()
    kid, _ = kernel(identity_map(p1))
    assert kid.total_dim == 0


def test_rank_nullity_per_vertex(a2, a3_rad2):
    for alg in (a2, a3_rad2):
        mods = [projective_module(alg, v) for v in alg.quiver.vertex_ids]
        mods += [simple_module(alg, v) for v in alg.quiver.vertex_ids]
        for m in mods:
            for n in mods:
                for f in hom_basis(m, n):
                    k, _ = kernel(f)
                    im, _ = image(f)
                    ck, _ = cokernel(f)
                    for v in range(alg.quiver.n_vertices):
                        assert k.dims[v] + im.dims[v] == m.dims[v]
                        assert im.dims[v] + ck.dims[v] == n.dims[v]


def test_direct_sum_inclusions_and_projections(a2):
    p1 = projective_module(a2, 1)
    s2 = simple_module(a2, 2)
    reps = [p1, s2, p1]
    total = direct_sum(reps)
    incls, projs = summand_maps(total, reps), summand_maps(total, reps, dual=True)
    assert total.dims == (2, 3)
    for inc, prj in zip(incls, projs):
        comp = prj.compose(inc)
        assert comp.source.dims == comp.target.dims
        assert comp.blocks == [linalg.eye(d) for d in comp.source.dims]
    # cross projections vanish
    assert projs[0].compose(incls[1]).is_zero()


def test_dual_representation_is_involutive(a3_rad2):
    p1 = projective_module(a3_rad2, 1)
    dd = dual_representation(dual_representation(p1))
    assert dd.dims == p1.dims
    assert dd.matrices == p1.matrices


def test_radical_and_socle(a2):
    p1 = projective_module(a2, 1)
    rad = radical_subspaces(p1)
    assert [b.shape[1] for b in rad] == [0, 1]
    soc = socle_subspaces(p1)
    assert [b.shape[1] for b in soc] == [0, 1]
    z = zero_representation(a2)
    assert z.total_dim == 0


def test_radical_subspaces_are_cached_and_read_only(nak32):
    """A second call returns the cached tuple itself; an equal module built
    afresh gets an equal radical of its own; neither the tuple nor its
    matrices can be written."""
    m = direct_sum([projective_module(nak32, 1), projective_module(nak32, 2), simple_module(nak32, 2)])
    rad = radical_subspaces(m)
    assert type(rad) is tuple and radical_subspaces(m) is rad
    fresh = Representation(nak32, m.dims, m.matrices)
    assert radical_subspaces(fresh) == rad and radical_subspaces(fresh) is not rad
    assert [b.ncols for b in rad] == [0, 1, 1]
    with pytest.raises(TypeError):
        rad[1] = linalg.zeros(m.dims[1], 0)
    with pytest.raises(TypeError):
        rad[1].rows[0][0] = 0


def test_is_end_matches_isomorphism_search(exact_contexts):
    """Top (socle) one simple S_v and the dimension vector of P_v (I_v)
    decides "isomorphic to some P_v (I_v)" on every object."""
    ends = 0
    for name, ctx in exact_contexts.items():
        for o in ctx.objects:
            for dual in (False, True):
                assert is_end(o.rep, dual) == is_end_by_search(o.rep, dual), (name, o.label, dual)
                ends += is_end(o.rep, dual)
    assert ends and ends < 2 * sum(ctx.n_objects for ctx in exact_contexts.values())


def test_identity_map_blocks_are_read_only_identities(nak32):
    m = direct_sum([projective_module(nak32, 1), simple_module(nak32, 2)])
    ident = identity_map(m)
    for d, b in zip(m.dims, ident.blocks):
        assert b == linalg.eye(d)
        if d:
            with pytest.raises(TypeError):
                b[0, 0] = 0
            with pytest.raises(TypeError):
                b.rows[0][0] = 0
