"""Tests for analysis utilities: convergence rates, drag, roofline."""

import numpy as np
import pytest

from repro import Domain, build_mesh
from repro.analysis import (
    ACHENBACH_ANCHORS,
    CYLINDER_CD_REFERENCE,
    analyze_kernel,
    drag_from_faces,
    fit_rate,
    morrison_cd,
    observed_rates,
    roofline_ceilings,
    schiller_naumann_cd,
)
from repro.core.faces import extract_boundary_faces
from repro.geometry import SphereCarve


def test_observed_rates_exact_power():
    h = np.array([0.1, 0.05, 0.025])
    err = 3.0 * h**2
    assert np.allclose(observed_rates(h, err), 2.0)
    assert fit_rate(h, err) == pytest.approx(2.0)


def test_observed_rates_validation():
    with pytest.raises(ValueError):
        observed_rates(np.array([0.1]), np.array([1.0]))


def test_morrison_stokes_limit():
    # Stokes drag dominates at small Re
    assert morrison_cd(0.1) == pytest.approx(240.0, rel=0.1)


def test_morrison_newton_plateau():
    cd = morrison_cd(np.array([1e4, 5e4, 1e5]))
    assert np.all((cd > 0.35) & (cd < 0.55))


def test_morrison_drag_crisis_collapse():
    pre = float(morrison_cd(2e5))
    post = float(morrison_cd(4.5e5))
    assert pre > 0.4 and post < 0.15
    # partial recovery
    assert float(morrison_cd(2e6)) > post


def test_schiller_naumann_matches_low_re_table():
    for Re, cd in [(50, 1.54), (100, 1.09)]:
        assert schiller_naumann_cd(Re) == pytest.approx(cd, rel=0.02)


def test_anchor_table_monotone_re():
    assert np.all(np.diff(ACHENBACH_ANCHORS[:, 0]) > 0)
    assert set(CYLINDER_CD_REFERENCE) == {20, 40, 100}


def test_drag_pressure_only_closed_surface():
    """Uniform pressure on a closed voxel surface gives zero net force."""
    dom = Domain(SphereCarve([0.5, 0.5], 0.2))
    mesh = build_mesh(dom, 4, 5, p=1)
    faces, _ = extract_boundary_faces(mesh)
    p = np.ones(mesh.n_nodes)
    vel = np.zeros((mesh.n_nodes, 2))
    F = drag_from_faces(mesh, faces, vel, p, nu=0.1)
    assert abs(F) < 1e-10


def test_drag_linear_pressure_gives_buoyancy():
    """p = x over a closed surface integrates to the carved volume
    (the discrete divergence theorem on the voxel surface)."""
    dom = Domain(SphereCarve([0.5, 0.5], 0.2))
    mesh = build_mesh(dom, 5, 5, p=1)
    faces, _ = extract_boundary_faces(mesh)
    pts = mesh.node_coords()
    vel = np.zeros((mesh.n_nodes, 2))
    F = drag_from_faces(mesh, faces, vel, pts[:, 0].copy(), nu=0.0)
    # voxelated carved area: total - retained cell area; the force ON
    # THE BODY from p = x points in -x (higher pressure downstream)
    carved_area = 1.0 - float(np.sum(mesh.element_sizes() ** 2))
    assert F == pytest.approx(-carved_area, rel=1e-10)


def test_roofline_point_structure():
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 4, p=1)
    pt = analyze_kernel(mesh, repeats=2)
    assert pt.arithmetic_intensity > 0
    assert pt.measured_gflops > 0
    assert pt.bandwidth_bound_gflops == pytest.approx(
        pt.arithmetic_intensity * 60e9
    )


def test_roofline_ai_grows_with_p():
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    m1 = build_mesh(dom, 2, 4, p=1)
    m2 = build_mesh(dom, 2, 4, p=2)
    a1 = analyze_kernel(m1, repeats=1).arithmetic_intensity
    a2 = analyze_kernel(m2, repeats=1).arithmetic_intensity
    assert a2 > a1


def test_roofline_ceilings():
    c = roofline_ceilings()
    assert c["ridge_ai"] == pytest.approx(c["peak_flops"] / c["memory_bw"])
