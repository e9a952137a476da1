"""Tests for geometric multigrid on carved-mesh hierarchies."""

import numpy as np
import pytest

from repro import Domain, assemble, build_mesh, build_uniform_mesh
from repro.fem.dirichlet import Dirichlet
from repro.geometry import SphereCarve, SphereRetain
from repro.solvers import MultigridPoisson, cg, jacobi, prolongation


def _bc_system(mesh):
    fixed = mesh.dirichlet_mask
    Abc, b = Dirichlet(fixed).masked(assemble(mesh), np.ones(mesh.n_nodes))
    return Abc.tocsr(), b, fixed


@pytest.fixture(scope="module")
def hierarchy():
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    return [build_mesh(dom, lv, lv + 2, p=1) for lv in (5, 4, 3)]


def test_prolongation_reproduces_linears(hierarchy):
    fine, coarse = hierarchy[0], hierarchy[1]
    P = prolongation(fine, coarse)
    assert P.shape == (fine.n_nodes, coarse.n_nodes)
    cpts = coarse.node_coords()
    fpts = fine.node_coords()
    lin = 2.0 * cpts[:, 0] - cpts[:, 1] + 0.3
    up = P @ lin
    expect = 2.0 * fpts[:, 0] - fpts[:, 1] + 0.3
    # exact where the fine node lies inside the coarse mesh (the carved
    # boundary recedes, so a thin voxel layer may use the injection
    # fallback)
    good = np.abs(up - expect) < 1e-9
    assert good.mean() > 0.95


def test_prolongation_partition_of_unity(hierarchy):
    P = prolongation(hierarchy[0], hierarchy[1])
    rs = np.asarray(P.sum(axis=1)).ravel()
    assert np.allclose(rs, 1.0)


def test_prolongation_validation(hierarchy):
    dom2 = Domain(SphereRetain([0.5, 0.5], 0.4))
    other = build_uniform_mesh(dom2, 4, p=2)
    with pytest.raises(ValueError):
        prolongation(hierarchy[0], other)


def test_mg_standalone_converges(hierarchy):
    Abc, b, fixed = _bc_system(hierarchy[0])
    mg = MultigridPoisson(hierarchy, Abc, fixed)
    x, cycles, res = mg.solve(b, rtol=1e-8)
    assert res < 1e-8
    assert cycles <= 15, "V-cycle convergence degraded"
    assert np.linalg.norm(Abc @ x - b) < 1e-6


def test_mg_preconditioner_beats_jacobi(hierarchy):
    Abc, b, fixed = _bc_system(hierarchy[0])
    mg = MultigridPoisson(hierarchy, Abc, fixed)
    r_mg = cg(Abc, b, M=mg, rtol=1e-8)
    r_j = cg(Abc, b, M=jacobi(Abc), rtol=1e-8, maxiter=10000)
    assert r_mg.converged and r_j.converged
    assert r_mg.iterations < r_j.iterations / 2
    assert np.allclose(r_mg.x, r_j.x, atol=1e-5)


def test_mg_needs_two_levels(hierarchy):
    Abc, _, fixed = _bc_system(hierarchy[0])
    with pytest.raises(ValueError):
        MultigridPoisson(hierarchy[:1], Abc, fixed)


def test_mg_three_level_cycle_count_stable():
    """More DOFs, same-ish cycle count (mesh-independent convergence)."""
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    small = [build_mesh(dom, lv, lv + 1, p=1) for lv in (5, 4, 3)]
    large = [build_mesh(dom, lv, lv + 1, p=1) for lv in (6, 5, 4)]
    cycles = []
    for meshes in (small, large):
        Abc, b, fixed = _bc_system(meshes[0])
        mg = MultigridPoisson(meshes, Abc, fixed)
        _, cyc, _ = mg.solve(b, rtol=1e-8)
        cycles.append(cyc)
    assert cycles[1] <= cycles[0] + 4


def test_mg_chebyshev_smoother(hierarchy):
    Abc, b, fixed = _bc_system(hierarchy[0])
    mg = MultigridPoisson(hierarchy, Abc, fixed, smoother="chebyshev")
    x, cycles, res = mg.solve(b, rtol=1e-8)
    assert res < 1e-8
    assert cycles <= 12
    mg_j = MultigridPoisson(hierarchy, Abc, fixed, smoother="jacobi")
    xj, _, _ = mg_j.solve(b, rtol=1e-8)
    assert np.allclose(x, xj, atol=1e-6)


def test_mg_rejects_unknown_smoother(hierarchy):
    Abc, _, fixed = _bc_system(hierarchy[0])
    with pytest.raises(ValueError):
        MultigridPoisson(hierarchy, Abc, fixed, smoother="sor")
