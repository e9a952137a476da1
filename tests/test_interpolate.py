"""Tests for field evaluation and mesh-to-mesh transfer."""

import numpy as np
import pytest

from repro import Domain, build_mesh
from repro.core import balance_2to1, construct_adaptive
from repro.core.adapt import refine_leaves
from repro.core.interpolate import evaluation_matrix, locate_points, transfer_field
from repro.core.mesh import mesh_from_leaves
from repro.geometry import SphereCarve


@pytest.fixture(scope="module")
def mesh():
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    return build_mesh(dom, 3, 5, p=1)


def test_locate_points_inside(mesh):
    rng = np.random.default_rng(0)
    q = rng.uniform(0.02, 0.98, (300, 2))
    q = q[~mesh.domain.carved_points(q)]
    leaf = locate_points(mesh, q)
    assert np.all(leaf >= 0)
    # the reported leaf really contains the point
    lo, hi = mesh.leaves.physical_bounds(1.0)
    assert np.all((q >= lo[leaf] - 1e-12) & (q <= hi[leaf] + 1e-12))


def test_locate_points_in_carved_region(mesh):
    q = np.array([[0.5, 0.5], [0.52, 0.48]])  # inside the carved sphere
    assert np.all(locate_points(mesh, q) == -1)


def test_evaluate_linear_exact(mesh):
    pts_n = mesh.node_coords()
    u = 3.0 * pts_n[:, 0] + pts_n[:, 1]
    rng = np.random.default_rng(1)
    q = rng.uniform(0.02, 0.98, (200, 2))
    q = q[~mesh.domain.carved_points(q)]
    vals = evaluation_matrix(mesh, q)[0] @ u
    assert np.abs(vals - (3.0 * q[:, 0] + q[:, 1])).max() < 1e-12


def test_evaluate_strict_raises_outside(mesh):
    with pytest.raises(ValueError):
        evaluation_matrix(mesh, np.array([[0.5, 0.5]]))


def test_evaluation_matrix_rows_partition_of_unity(mesh):
    rng = np.random.default_rng(2)
    q = rng.uniform(0.02, 0.98, (100, 2))
    q = q[~mesh.domain.carved_points(q)]
    E, found = evaluation_matrix(mesh, q)
    assert found.all()
    rs = np.asarray(E.sum(axis=1)).ravel()
    assert np.allclose(rs, 1.0)


def test_evaluate_at_nodes_is_identity(mesh):
    """Evaluating at the global nodes returns the nodal values."""
    pts = mesh.node_coords()
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh.n_nodes)
    vals = evaluation_matrix(mesh, pts)[0] @ u
    assert np.abs(vals - u).max() < 1e-10


def test_transfer_refinement_exact(mesh):
    """Transfer onto a finer mesh of the same geometry is exact for
    fields in the coarse space."""
    fine = build_mesh(mesh.domain, 4, 6, p=1)
    pts_n = mesh.node_coords()
    u = pts_n[:, 0] - 2 * pts_n[:, 1]
    uf = transfer_field(mesh, fine, u)
    pf = fine.node_coords()
    # nodes covered by the coarse mesh transfer exactly; the finer voxel
    # boundary may expose a thin uncovered layer using the fallback
    expect = pf[:, 0] - 2 * pf[:, 1]
    exact_frac = (np.abs(uf - expect) < 1e-10).mean()
    assert exact_frac > 0.97


def test_transfer_moved_object_total(mesh):
    """Transfer is total even when the carved object moves."""
    dom2 = Domain(SphereCarve([0.55, 0.5], 0.25))
    mesh2 = build_mesh(dom2, 3, 5, p=1)
    u = np.ones(mesh.n_nodes)
    u2 = transfer_field(mesh, mesh2, u)
    assert np.allclose(u2, 1.0)  # constants transfer exactly everywhere
    assert len(u2) == mesh2.n_nodes


def test_transfer_p2_quadratic_exact():
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    src = build_mesh(dom, 3, 4, p=2)
    dst = build_mesh(dom, 4, 5, p=2)
    pts = src.node_coords()
    u = pts[:, 0] ** 2 - pts[:, 0] * pts[:, 1]
    ud = transfer_field(src, dst, u)
    pd = dst.node_coords()
    expect = pd[:, 0] ** 2 - pd[:, 0] * pd[:, 1]
    exact_frac = (np.abs(ud - expect) < 1e-9).mean()
    assert exact_frac > 0.95


@pytest.fixture(scope="module")
def adaptive_disk():
    dom = Domain(SphereCarve([0.5, 0.5], 0.27), dim=2, scale=1.0)
    return dom, construct_adaptive(dom, 5, 7)


def _refined(domain, leaves, seed, k=40):
    rng = np.random.default_rng(seed)
    marks = np.zeros(len(leaves), bool)
    marks[rng.choice(len(leaves), k, replace=False)] = True
    return balance_2to1(domain, refine_leaves(domain, leaves, marks))


@pytest.mark.parametrize("p", [1, 2])
def test_transfer_exact_for_polynomials(adaptive_disk, p):
    """Refinement transfer reproduces degree-p polynomials exactly."""
    domain, leaves = adaptive_disk
    src = mesh_from_leaves(domain, leaves, p=p, balance=False)
    dst = mesh_from_leaves(domain, _refined(domain, leaves, seed=2), p=p)

    def poly(pts):
        x, y = pts[:, 0], pts[:, 1]
        if p == 1:
            return 1.0 + 2.0 * x - 3.0 * y + 0.5 * x * y
        return 1.0 + x - y + x * y + 0.25 * x**2 - 0.5 * y**2 + x**2 * y**2

    u_dst = transfer_field(src, dst, poly(src.node_coords()))
    assert np.allclose(u_dst, poly(dst.node_coords()), atol=1e-12)


def test_transfer_total_after_coarsening(adaptive_disk):
    # coarsening shifts nodes; the transfer must still cover every
    # destination node (kNN fallback for nodes off the source mesh)
    domain, leaves = adaptive_disk
    fine = _refined(domain, leaves, seed=3)
    src = mesh_from_leaves(domain, fine, p=1, balance=False)
    dst = mesh_from_leaves(domain, leaves, p=1, balance=False)
    out = transfer_field(src, dst, np.sin(src.node_coords().sum(axis=1)))
    assert out.shape == (dst.n_nodes,)
    assert np.isfinite(out).all()
