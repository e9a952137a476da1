"""Edge-case coverage across smaller code paths."""

import numpy as np
import pytest

from repro import Domain, build_mesh, build_uniform_mesh
from repro.core.faces import extract_boundary_faces
from repro.core.octant import OctantSet
from repro.geometry import BoxRetain, SphereCarve
from repro.parallel import SimComm, TrafficCounters
from repro.parallel.perfmodel import MachineModel

from .oracles.collectives import allgather, alltoallv
from .test_poisson_sbm import _outward_normals


def test_machine_model_rates():
    m = MachineModel()
    assert m.kernel_rate(1) == m.gflops_linear
    assert m.kernel_rate(2) == m.gflops_quadratic
    assert m.kernel_rate(3) > m.gflops_quadratic  # extrapolated
    assert m.leaf_flops_per_element(2, 3) > m.leaf_flops_per_element(1, 3)


def test_simcomm_validation_errors():
    comm = SimComm(2)
    with pytest.raises(ValueError):
        alltoallv(comm, [[None]])  # wrong shape
    with pytest.raises(ValueError):
        allgather(comm, [1])  # one value per rank required
    with pytest.raises(ValueError):
        comm.allreduce([np.ones(2)])


def test_simcomm_reset():
    comm = SimComm(2)
    comm.exchange({(0, 1): np.zeros(8)})
    assert comm.counters.total_bytes() > 0
    comm.counters = TrafficCounters.zeros(comm.size)
    assert comm.counters.total_bytes() == 0
    assert not comm.counters.bytes_sent.any()


def test_boundary_faces_3d_sphere_closed():
    """The carved-sphere surrogate surface is closed: outward-flux of a
    constant vector field integrates to zero."""
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 3, 4, p=1)
    sub, _ = extract_boundary_faces(mesh)
    assert len(sub) > 0
    n = _outward_normals(sub, 3)
    h = mesh.element_sizes()[sub.elem]
    areas = h**2
    flux = (n * areas[:, None]).sum(axis=0)
    assert np.abs(flux).max() < 1e-12


def test_boundary_faces_anisotropic_channel_area():
    """Total carved-boundary area of the 4x1 channel = 2 walls x length
    (inlet/outlet faces are domain boundary, not carved)."""
    dom = Domain(BoxRetain([0, 0], [4, 1], domain=([0, 0], [4, 4])), scale=4.0)
    mesh = build_uniform_mesh(dom, 5, p=1)
    sub, domf = extract_boundary_faces(mesh)
    h = mesh.element_sizes()
    area_sub = h[sub.elem].sum()  # 1D "area" = length in 2D
    # one wall at y=1 inside the domain; y=0 wall is on the cube boundary
    assert area_sub == pytest.approx(4.0)
    area_dom = h[domf.elem].sum()
    assert area_dom == pytest.approx(4.0 + 1.0 + 1.0)  # y=0 wall + inlet + outlet


def test_octantset_getitem_scalar():
    r = OctantSet.root(2)
    sub = r[0]
    assert len(sub) == 1


def test_octantset_concatenate_empty_list():
    with pytest.raises(ValueError):
        OctantSet.concatenate([])


def test_vtu_unsupported_dim(tmp_path):
    from repro.io import write_vtu

    mesh = build_uniform_mesh(Domain(dim=4), 1, p=1)
    with pytest.raises(ValueError):
        write_vtu(mesh, tmp_path / "x.vtu")


def test_traversal_plan_slots_cover_all(tmp_path):
    from repro.core.matvec import TraversalPlan

    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 4, p=1)
    plan = TraversalPlan(mesh)
    assert len(plan.slot_ptr) == mesh.n_elem + 1
    assert plan.slot_ptr[-1] == len(plan.slot_gid) == len(plan.slot_w)
    for e in range(mesh.n_elem):
        # every local slot appears at least once in the slot table
        slot, _, _ = plan.rows(e)
        assert set(slot) == set(range(mesh.npe))


def test_blockjacobi_empty_block():
    import scipy.sparse as sp

    from repro.solvers import BlockJacobi

    A = sp.eye(4).tocsc()
    M = BlockJacobi(A, splits=[0, 2, 2, 4])  # middle block empty
    r = np.arange(4.0)
    assert np.allclose(M(r), r)


def test_krylov_zero_rhs():
    from repro.solvers import cg

    res = cg(np.eye(5), np.zeros(5))
    assert res.converged
    assert np.allclose(res.x, 0.0)


def test_result_table_roundtrip(tmp_path, monkeypatch):
    import sys

    bench_dir = str(
        __import__("pathlib").Path(__file__).parent.parent / "benchmarks"
    )
    sys.path.insert(0, bench_dir)
    try:
        import _util

        monkeypatch.setattr(_util, "RESULTS_DIR", tmp_path)
        t = _util.ResultTable("demo", "Demo Table")
        t.row("a b c")
        out = t.save()
        assert out.read_text().startswith("Demo Table")
    finally:
        sys.path.remove(bench_dir)
