"""Tests for matrix-free MATVEC (map-based and traversal) & assembly."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import assemble
from repro.core.domain import Domain
from repro import obs
from repro.core.matvec import (
    MapBasedMatVec,
    TraversalMatVec,
    TraversalPlan,
    traversal_matvec,
)
from repro.core.mesh import build_mesh, build_uniform_mesh
from repro.core.plan import operator_context
from repro.core.traversal_reference import recursive_traversal_matvec
from repro.geometry.primitives import SphereCarve
from repro.fem.poisson import load_vector
from repro.kernels import available_backends, use_backend

from .oracles.assembly import assemble_traversal
from .test_pipeline_properties import _random_domain

BACKENDS = [name for name, ok in available_backends().items() if ok]


@pytest.fixture(scope="module")
def carved_mesh_2d():
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    return build_mesh(dom, 2, 5, p=1)


@pytest.fixture(scope="module")
def carved_mesh_3d_p2():
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    return build_mesh(dom, 2, 3, p=2)


def test_map_matvec_matches_assembled(carved_mesh_2d):
    mesh = carved_mesh_2d
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    mv = MapBasedMatVec(mesh)
    A = assemble(mesh)
    assert np.allclose(mv(u), A @ u, atol=1e-12)


def test_traversal_matches_map(carved_mesh_2d):
    mesh = carved_mesh_2d
    rng = np.random.default_rng(1)
    u = rng.standard_normal(mesh.n_nodes)
    y_map = MapBasedMatVec(mesh)(u)
    y_tr = traversal_matvec(mesh, u)
    assert np.allclose(y_tr, y_map, atol=1e-12)


def test_traversal_matches_map_3d_p2(carved_mesh_3d_p2):
    mesh = carved_mesh_3d_p2
    rng = np.random.default_rng(2)
    u = rng.standard_normal(mesh.n_nodes)
    assert np.allclose(
        traversal_matvec(mesh, u), MapBasedMatVec(mesh)(u), atol=1e-12
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["stiffness", "mass"])
@pytest.mark.parametrize(
    "dim,p,levels", [(2, 1, (2, 4)), (3, 2, (2, 3))], ids=["2d-p1", "3d-p2"]
)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_flat_traversal_matches_recursive_oracle(
    backend, kind, dim, p, levels, data
):
    """The production (flat, plan-compiled) traversal against the
    recursive walk it was derived from, on generated carve geometries:
    the full apply, and an ``owned_range`` split whose parts each match
    the oracle's and sum to the full apply."""
    centre = data.draw(st.lists(st.floats(0.3, 0.7), min_size=dim, max_size=dim))
    radius = data.draw(st.floats(0.1, 0.3))
    mesh = build_mesh(Domain(SphereCarve(centre, radius)), *levels, p=p)
    mid = data.draw(st.integers(0, mesh.n_elem))
    seed = data.draw(st.integers(0, 2**31 - 1))
    u = np.random.default_rng(seed).standard_normal(mesh.n_nodes)
    ranges = [None, (0, mid), (mid, mesh.n_elem)]
    with use_backend(backend):
        full, lo, hi = (
            traversal_matvec(mesh, u, kind=kind, owned_range=r) for r in ranges
        )
    for got, r in zip((full, lo, hi), ranges):
        want = recursive_traversal_matvec(mesh, u, kind=kind, owned_range=r)
        assert np.abs(got - want).max() <= 1e-12, r
    assert np.abs(lo + hi - full).max() <= 1e-12


def test_traversal_phase_spans_accumulate(carved_mesh_2d):
    """The production traversal publishes the paper's phase breakdown:
    every phase span is present under ``matvec.traversal`` with a
    positive accumulated duration, merged over the plan's batches."""
    mesh = carved_mesh_2d
    obs.reset()
    obs.enable()
    try:
        traversal_matvec(mesh, np.ones(mesh.n_nodes))
    finally:
        obs.disable()
    roots = obs.TRACER.roots
    assert len(roots) == 1 and roots[0].name == "matvec.traversal"
    phases = {c.name: c for c in roots[0].children}
    for name in ("matvec.top_down", "matvec.leaf", "matvec.bottom_up"):
        assert name in phases, f"missing phase span {name}"
        assert phases[name].duration > 0
        assert phases[name].count > 1  # merged across many invocations
    assert phases["matvec.leaf"].counters["elements"] == mesh.n_elem


def test_traversal_plan_reuse(carved_mesh_2d):
    mesh = carved_mesh_2d
    plan = TraversalPlan(mesh)
    u = np.linspace(0, 1, mesh.n_nodes)
    y1 = traversal_matvec(mesh, u, plan=plan)
    y2 = traversal_matvec(mesh, u)
    assert np.allclose(y1, y2)


def test_explicit_plan_apply_rehashes_nothing(carved_mesh_2d, monkeypatch):
    """No apply hashes the mesh once its context is built: ``plan=`` is
    trusted as is, and without it the staleness check of
    ``operator_context`` is an identity test, not a fingerprint (a sha1
    over all SFC keys)."""
    from repro.core import plan as plan_mod

    mesh = carved_mesh_2d
    plan = plan_mod.operator_context(mesh).traversal
    u = np.linspace(0, 1, mesh.n_nodes)
    calls = []
    real = plan_mod.mesh_fingerprint
    monkeypatch.setattr(
        plan_mod, "mesh_fingerprint", lambda m: calls.append(m) or real(m)
    )
    y_plan = traversal_matvec(mesh, u, plan=plan)
    assert calls == []
    y_ctx = traversal_matvec(mesh, u)
    assert calls == []
    assert y_plan.tobytes() == y_ctx.tobytes()


def test_traversal_owned_range_partitions_sum(carved_mesh_2d):
    """Restricting to element sub-ranges and summing = full MATVEC
    (the distributed-memory decomposition property)."""
    mesh = carved_mesh_2d
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh.n_nodes)
    full = traversal_matvec(mesh, u)
    mid = mesh.n_elem // 2
    part = traversal_matvec(mesh, u, owned_range=(0, mid)) + traversal_matvec(
        mesh, u, owned_range=(mid, mesh.n_elem)
    )
    assert np.allclose(part, full, atol=1e-12)


def test_mass_kind(carved_mesh_2d):
    mesh = carved_mesh_2d
    rng = np.random.default_rng(4)
    u = rng.standard_normal(mesh.n_nodes)
    y_map = MapBasedMatVec(mesh, kind="mass")(u)
    y_tr = traversal_matvec(mesh, u, kind="mass")
    A = assemble(mesh, kind="mass")
    assert np.allclose(y_map, A @ u, atol=1e-12)
    assert np.allclose(y_tr, A @ u, atol=1e-12)


def test_unknown_kind_raises(carved_mesh_2d):
    with pytest.raises(ValueError):
        MapBasedMatVec(carved_mesh_2d, kind="advection-nonsense")
    with pytest.raises(ValueError):
        traversal_matvec(
            carved_mesh_2d, np.zeros(carved_mesh_2d.n_nodes), kind="nope"
        )


def test_stiffness_spd_properties(carved_mesh_2d):
    A = assemble(carved_mesh_2d)
    assert abs(A - A.T).max() < 1e-12
    ones = np.ones(A.shape[0])
    assert np.abs(A @ ones).max() < 1e-10  # constants in the nullspace
    d = A.diagonal()
    assert np.all(d > 0)


def test_assembly_traversal_equals_bsr(carved_mesh_2d):
    A1 = assemble(carved_mesh_2d)
    A2 = assemble_traversal(carved_mesh_2d)
    assert abs(A1 - A2).max() < 1e-12


def test_mass_matrix_volume_3d():
    """1' M 1 equals the voxelated retained volume exactly."""
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 4, p=1)
    M = assemble(mesh, kind="mass")
    ones = np.ones(mesh.n_nodes)
    vol_mass = float(ones @ (M @ ones))
    vol_cells = float(np.sum(mesh.element_sizes() ** 3))
    assert vol_mass == pytest.approx(vol_cells, rel=1e-12)


def test_flops_and_bytes_counters(carved_mesh_2d):
    mv = MapBasedMatVec(carved_mesh_2d)
    # as-executed model: gather + scatter (2 flops per stored weight
    # each) plus the dense elemental apply (2·npe² + npe per element)
    assert mv.flops() == 4 * mv._gather.nnz + carved_mesh_2d.n_elem * (2 * 16 + 4)
    assert mv.traffic_bytes() > 0
    assert mv.shape == (carved_mesh_2d.n_nodes, carved_mesh_2d.n_nodes)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_matvec_linearity_property(seed, carved_mesh_2d):
    mesh = carved_mesh_2d
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, mesh.n_nodes))
    a, b = rng.standard_normal(2)
    mv = MapBasedMatVec(mesh)
    assert np.allclose(mv(a * u + b * v), a * mv(u) + b * mv(v), atol=1e-10)


# -- the compiled apply: cross-path equivalence and closure ----------------


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("kind", ["stiffness", "mass"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim,levels", [(2, (2, 4)), (3, (2, 3))], ids=["2d", "3d"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), parts=st.integers(2, 5))
def test_compiled_apply_cross_path_grid(dim, levels, p, kind, seed, parts):
    """Compiled apply vs the map-based ablation vs the recursive oracle
    on generated carve unions, and the ``owned_range`` parts of a k-way
    split summing to the full apply — all within 1e-12 relative."""
    rng = np.random.default_rng(seed)
    mesh = build_mesh(_random_domain(rng, dim), *levels, p=p)
    u = rng.standard_normal(mesh.n_nodes)
    compiled = TraversalMatVec(mesh, kind=kind)(u)
    assert _rel_err(compiled, MapBasedMatVec(mesh, kind=kind)(u)) <= 1e-12
    assert _rel_err(compiled, recursive_traversal_matvec(mesh, u, kind=kind)) <= 1e-12
    cuts = np.linspace(0, mesh.n_elem, parts + 1).astype(int)
    split = sum(
        traversal_matvec(mesh, u, kind=kind, owned_range=(int(a), int(b)))
        for a, b in zip(cuts[:-1], cuts[1:])
    )
    assert _rel_err(split, compiled) <= 1e-12


def test_compiled_apply_single_block_programs(carved_mesh_2d):
    """A program may lack either block.  A uniform mesh has no hanging
    element; no whole mesh lacks identity elements (an element of the
    coarsest level has no coarser neighbour to hang on), so the
    hanging-only program is an ``owned_range`` over a run of them."""
    uniform = build_uniform_mesh(Domain(dim=2), 3, p=1)
    prog = operator_context(uniform).traversal.apply_tables()
    assert [type(b).__name__ for b in prog] == ["IdentityBlock"]
    u = np.random.default_rng(5).standard_normal(uniform.n_nodes)
    assert _rel_err(traversal_matvec(uniform, u), MapBasedMatVec(uniform)(u)) <= 1e-12

    mesh = carved_mesh_2d
    plan = operator_context(mesh).traversal
    hanging = np.flatnonzero(~plan.identity_elem)
    runs = np.split(hanging, np.flatnonzero(np.diff(hanging) > 1) + 1)
    run = max(runs, key=len)
    lo, hi = int(run[0]), int(run[-1]) + 1
    assert hi - lo >= 2
    prog = plan.apply_tables(lo, hi)
    assert [type(b).__name__ for b in prog] == ["HangingBlock"]
    u = np.random.default_rng(6).standard_normal(mesh.n_nodes)
    got = traversal_matvec(mesh, u, owned_range=(lo, hi))
    want = recursive_traversal_matvec(mesh, u, owned_range=(lo, hi))
    assert _rel_err(got, want) <= 1e-12
    # and an empty range applies to zero
    assert not traversal_matvec(mesh, u, owned_range=(lo, lo)).any()


@pytest.mark.parametrize("fixture", ["carved_mesh_2d", "carved_mesh_3d_p2"])
def test_hanging_rows_close_over_real_nodes(fixture, request):
    """Hanging-node constraint closure on the compiled tables: every
    interpolated slot's weights sum to 1 and every donor is a real
    (non-hanging) node, i.e. some element holds it as a plain slot."""
    mesh = request.getfixturevalue(fixture)
    prog = operator_context(mesh).traversal.apply_tables()
    interp = prog.hanging.interp
    assert interp.nnz > 0
    assert np.abs(np.asarray(interp.sum(axis=1)).ravel() - 1.0).max() <= 1e-14
    g = operator_context(mesh).gather
    plain = (np.diff(g.indptr) == 1) & (g.data[g.indptr[:-1]] == 1.0)
    real = np.zeros(mesh.n_nodes, bool)
    real[g.indices[g.indptr[:-1]][plain]] = True
    assert real.all()  # every global node is some element's plain slot
    rows = np.diff(interp.indptr) > 1  # the interpolated slots
    donors = interp.indices[np.repeat(rows, np.diff(interp.indptr))]
    assert len(donors) and real[donors].all()
    # the scale fold carries exactly h**pw on every weight
    pw = mesh.dim  # mass
    S, T = prog.scatter(pw), prog.scatter(0)
    h = mesh.element_sizes()[np.concatenate([b.elems for b in prog])]
    assert np.array_equal(S.data, T.data * np.repeat(h**pw, mesh.npe)[T.indices])


def test_constrained_operator_masks_in_place_of_two_copies(carved_mesh_2d):
    mesh = carved_mesh_2d
    apply = TraversalMatVec(mesh)
    assert 0 < apply.flops() < MapBasedMatVec(mesh).flops()
    assert 0 < apply.traffic_bytes() < MapBasedMatVec(mesh).traffic_bytes()


@pytest.mark.parametrize("shape", [(85,), (75,), (80, 1), ()],
                         ids=["long", "short", "column", "scalar"])
def test_a_vector_of_the_wrong_shape_is_named(shape):
    """On a mesh without hanging slots a longer ``u`` used to be read in
    part and a shorter one to fail inside an index read."""
    mesh = build_uniform_mesh(Domain(SphereCarve([0.5, 0.5], 0.25)), 3)
    assert mesh.n_nodes == 80
    assert operator_context(mesh).traversal.identity_elem.all()
    u = np.ones(shape)
    for apply in (lambda v: traversal_matvec(mesh, v), TraversalMatVec(mesh)):
        with pytest.raises(ValueError, match=r"u has shape \(.*expected \(80,\)"):
            apply(u)
    op = operator_context(mesh).constrained_stiffness()
    n_free = len(op.free_idx)
    with pytest.raises(ValueError, match=rf"expected \({n_free},\)"):
        op(np.ones(mesh.n_nodes))


def test_unit_load_and_assembly_keep_their_bits(carved_mesh_2d, carved_mesh_3d_p2):
    """``load_vector(mesh, 1.0)`` (now the context's cached unit load)
    and ``assemble(mesh)`` against the expressions they were before the
    solve tables moved onto the context, written out literally."""
    for mesh in (carved_mesh_2d, carved_mesh_3d_p2):
        ctx = operator_context(mesh)
        ref, h = ctx.ref(None), ctx.h
        w = ref.qwts[None, :] * (h**mesh.dim)[:, None]
        fv = np.full(w.shape, float(1.0))
        b_loc = np.einsum("eq,qi,eq->ei", fv, ref.N, w)
        want = ctx.scatter @ b_loc.reshape(-1)
        assert load_vector(mesh, 1.0).tobytes() == want.tobytes()
        assert ctx.unit_load() is ctx.unit_load()  # derived once
        assert not ctx.unit_load().flags.writeable
        assert np.allclose(load_vector(mesh, 2.5), 2.5 * want, rtol=1e-15)

        blocks = h[:, None, None] ** (mesh.dim - 2) * ref.K_ref[None]
        B = sp.bsr_matrix(
            (blocks, np.arange(mesh.n_elem), np.arange(mesh.n_elem + 1)),
            shape=(mesh.n_elem * mesh.npe, mesh.n_elem * mesh.npe),
        )
        g = ctx.gather
        A_want = (g.T @ (B @ g)).tocsr()
        A_want.sum_duplicates()
        A = assemble(mesh)
        assert A.data.tobytes() == A_want.data.tobytes()
        assert A.indices.tobytes() == A_want.indices.tobytes()
        assert A.indptr.tobytes() == A_want.indptr.tobytes()
