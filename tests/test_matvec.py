"""Tests for matrix-free MATVEC (map-based and traversal) & assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import assemble, assemble_traversal
from repro.core.domain import Domain
from repro import obs
from repro.core.matvec import MapBasedMatVec, TraversalPlan, traversal_matvec
from repro.core.mesh import build_mesh
from repro.core.traversal_reference import recursive_traversal_matvec
from repro.geometry.primitives import SphereCarve
from repro.kernels import available_backends, use_backend

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
    """``plan=`` is trusted as is: no fingerprint (a sha1 over all SFC
    keys) is computed; without it the staleness check still runs."""
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
    assert calls == [mesh]
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


def test_custom_elemental_callable(carved_mesh_2d):
    mesh = carved_mesh_2d
    mv_st = MapBasedMatVec(mesh, kind="stiffness")
    ref = mv_st.ref

    def my_stiffness(u_loc, h):
        return ref.apply_stiffness(u_loc, h)

    mv_c = MapBasedMatVec(mesh, kind=my_stiffness)
    u = np.linspace(-1, 1, mesh.n_nodes)
    assert np.allclose(mv_c(u), mv_st(u))


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
