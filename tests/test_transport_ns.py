"""Tests for the transport and Navier–Stokes solvers."""

import numpy as np
import pytest

from repro import Domain, build_mesh, build_uniform_mesh
from repro.fem.navier_stokes import NavierStokesProblem
from repro.fem.transport import SupgForm, TransportProblem, element_velocity
from repro.geometry import BoxRetain, SphereCarve
from repro.kernels import api as kernels


@pytest.fixture(scope="module")
def square_mesh():
    return build_uniform_mesh(Domain(dim=2), 4, p=1)


# -- transport ------------------------------------------------------------


def test_element_velocity_constant_field(square_mesh):
    v = np.tile([2.0, -1.0], (square_mesh.n_nodes, 1))
    ev = element_velocity(square_mesh, v)
    assert np.allclose(ev, [2.0, -1.0])


def test_transport_conserves_without_source_or_outflow(square_mesh):
    """Zero velocity, no source: total mass is exactly conserved by
    implicit Euler with natural BCs."""
    tp = TransportProblem(square_mesh, np.zeros((square_mesh.n_nodes, 2)),
                          kappa=0.01, dt=0.1)
    rng = np.random.default_rng(0)
    c0 = np.abs(rng.standard_normal(square_mesh.n_nodes))
    m0 = tp.total_mass(c0)
    c = tp.run(c0, 5)
    assert tp.total_mass(c) == pytest.approx(m0, rel=1e-10)


def test_transport_diffusion_smooths(square_mesh):
    tp = TransportProblem(square_mesh, np.zeros((square_mesh.n_nodes, 2)),
                          kappa=0.1, dt=0.05)
    pts = square_mesh.node_coords()
    c0 = np.exp(-100 * ((pts - 0.5) ** 2).sum(axis=1))
    c = tp.run(c0, 10)
    assert c.max() < c0.max()
    assert c.min() > -1e-3


def test_transport_advects_downstream(square_mesh):
    vel = np.tile([1.0, 0.0], (square_mesh.n_nodes, 1))
    pts = square_mesh.node_coords()
    inlet = np.isclose(pts[:, 0], 0.0)
    tp = TransportProblem(square_mesh, vel, kappa=1e-3, dt=0.05,
                          dirichlet_mask=inlet)
    c0 = np.exp(-200 * ((pts - [0.25, 0.5]) ** 2).sum(axis=1))
    c = tp.run(c0, 8)
    x0 = (pts[:, 0] * c0.clip(0)).sum() / c0.clip(0).sum()
    x1 = (pts[:, 0] * c.clip(0)).sum() / c.clip(0).sum()
    assert x1 > x0 + 0.15  # the blob moved right by ~u*t = 0.4


def test_transport_source_injects_mass(square_mesh):
    tp = TransportProblem(square_mesh, np.zeros((square_mesh.n_nodes, 2)),
                          kappa=0.01, dt=0.1)
    c = tp.step(np.zeros(square_mesh.n_nodes), source=1.0)
    assert tp.total_mass(c) > 0


def test_transport_velocity_shape_validation(square_mesh):
    with pytest.raises(ValueError):
        TransportProblem(square_mesh, np.zeros((3, 2)), kappa=0.1, dt=0.1)


# -- Navier-Stokes ----------------------------------------------------------


def _poiseuille_setup(level=5, nu=0.05):
    dom = Domain(BoxRetain([0, 0], [4, 1], domain=([0, 0], [4, 4])), scale=4.0)
    mesh = build_uniform_mesh(dom, level, p=1)
    pts = mesh.node_coords()

    def bc(pts_):
        n = len(pts_)
        mask = np.zeros((n, 2), bool)
        vals = np.zeros((n, 2))
        wall = np.isclose(pts_[:, 1], 0) | np.isclose(pts_[:, 1], 1)
        inlet = np.isclose(pts_[:, 0], 0)
        mask[wall] = True
        mask[inlet] = True
        vals[inlet, 0] = 4 * pts_[inlet, 1] * (1 - pts_[inlet, 1])
        vals[wall] = 0.0
        return mask, vals

    outlet = np.isclose(pts[:, 0], 4.0)
    return mesh, bc, outlet, pts


def test_ns_poiseuille_profile():
    mesh, bc, outlet, pts = _poiseuille_setup()
    ns = NavierStokesProblem(mesh, nu=0.05, velocity_bc=bc, pressure_pin=outlet)
    res = ns.picard_solve(max_iter=20, tol=1e-9)
    exact = 4 * pts[:, 1] * (1 - pts[:, 1])
    assert np.abs(res.velocity[:, 0] - exact).max() < 0.03
    assert np.abs(res.velocity[:, 1]).max() < 0.01


def test_ns_poiseuille_pressure_gradient():
    mesh, bc, outlet, pts = _poiseuille_setup()
    nu = 0.05
    ns = NavierStokesProblem(mesh, nu=nu, velocity_bc=bc, pressure_pin=outlet)
    res = ns.picard_solve(max_iter=20, tol=1e-9)
    mid = np.isclose(pts[:, 1], 0.5)
    x = pts[mid, 0]
    p = res.pressure[mid]
    slope = np.polyfit(x, p, 1)[0]
    assert slope == pytest.approx(-8 * nu, rel=0.08)


def _divergence_norm(ns, U):
    """L2 norm of ∇·u over the mesh (the incompressibility diagnostic)."""
    mesh, ref, dim, h = ns.mesh, ns.ref, ns.dim, ns.h
    div_q = np.zeros((mesh.n_elem, ref.nq))
    for k in range(dim):
        u_loc = (ns.ctx.gather @ U[:, k]).reshape(mesh.n_elem, mesh.npe)
        div_q += (u_loc @ ref.G[:, :, k].T) / h[:, None]
    w = ref.qwts[None, :] * (h**dim)[:, None]
    return float(np.sqrt(np.sum(w * div_q**2)))


def test_ns_divergence_small():
    mesh, bc, outlet, pts = _poiseuille_setup(level=4)
    ns = NavierStokesProblem(mesh, nu=0.1, velocity_bc=bc, pressure_pin=outlet)
    res = ns.picard_solve(max_iter=15, tol=1e-9)
    assert _divergence_norm(ns, res.velocity) < 0.15


def test_ns_stokes_limit_linear():
    """At huge viscosity the problem is linear: Picard converges in ~2."""
    mesh, bc, outlet, _ = _poiseuille_setup(level=4, nu=100.0)
    ns = NavierStokesProblem(mesh, nu=100.0, velocity_bc=bc, pressure_pin=outlet)
    res = ns.picard_solve(max_iter=10, tol=1e-10)
    assert res.iterations <= 5


def test_ns_unsteady_decay_to_steady():
    """Impulsively-started channel approaches the steady profile."""
    mesh, bc, outlet, pts = _poiseuille_setup(level=4)
    ns = NavierStokesProblem(mesh, nu=0.05, velocity_bc=bc,
                             pressure_pin=outlet, dt=0.2)
    U0, P0 = ns.initial_state()
    res = ns.advance(U0, P0, nsteps=20, picard_per_step=2)
    exact = 4 * pts[:, 1] * (1 - pts[:, 1])
    assert np.abs(res.velocity[:, 0] - exact).max() < 0.1


def test_ns_advance_requires_finite_dt():
    mesh, bc, outlet, _ = _poiseuille_setup(level=4)
    ns = NavierStokesProblem(mesh, nu=0.1, velocity_bc=bc, pressure_pin=outlet)
    with pytest.raises(ValueError):
        ns.advance(*ns.initial_state(), nsteps=1)


def test_ns_bc_shape_validation():
    mesh, _, outlet, _ = _poiseuille_setup(level=4)

    def bad_bc(pts):
        return np.zeros((3, 2), bool), np.zeros((3, 2))

    with pytest.raises(ValueError):
        NavierStokesProblem(mesh, nu=0.1, velocity_bc=bad_bc)


def test_ns_carved_cylinder_produces_wake():
    dom = Domain(SphereCarve([3.0, 5.0], 0.5), scale=10.0)
    mesh = build_mesh(dom, 4, 6, p=1)
    pts = mesh.node_coords()

    def bc(pts_):
        n = len(pts_)
        mask = np.zeros((n, 2), bool)
        vals = np.zeros((n, 2))
        inlet = np.isclose(pts_[:, 0], 0.0)
        walls = np.isclose(pts_[:, 1], 0.0) | np.isclose(pts_[:, 1], 10.0)
        mask[inlet] = True
        vals[inlet, 0] = 1.0
        mask[walls] = True
        vals[walls, 0] = 1.0
        mask[mesh.nodes.carved_node] = True
        vals[mesh.nodes.carved_node] = 0.0
        return mask, vals

    outlet = np.isclose(pts[:, 0], 10.0)
    ns = NavierStokesProblem(mesh, nu=1 / 40, velocity_bc=bc, pressure_pin=outlet)
    res = ns.picard_solve(max_iter=25, tol=1e-6)
    U = res.velocity
    # velocity deficit directly behind the cylinder; acceleration beside it
    behind = (np.abs(pts[:, 1] - 5.0) < 0.3) & (pts[:, 0] > 3.5) & (pts[:, 0] < 5.0)
    beside = (np.abs(pts[:, 1] - 5.0) > 0.8) & (np.abs(pts[:, 1] - 5.0) < 2.0) \
        & (np.abs(pts[:, 0] - 3.0) < 1.0)
    assert U[behind, 0].mean() < 0.5
    assert U[beside, 0].mean() > 1.0
    # stagnation pressure in front exceeds wake pressure
    front = (np.abs(pts[:, 1] - 5.0) < 0.2) & (pts[:, 0] > 2.0) & (pts[:, 0] < 2.5)
    assert res.pressure[front].mean() > res.pressure[behind].mean()


def test_transport_refuses_a_wrong_length_dirichlet_mask(square_mesh):
    vel = np.zeros((square_mesh.n_nodes, 2))
    for mask in (np.zeros(square_mesh.n_nodes - 1, bool),
                 np.zeros(square_mesh.n_nodes + 3, bool),
                 np.zeros(square_mesh.n_nodes, int)):
        with pytest.raises(ValueError, match="dirichlet_mask"):
            TransportProblem(square_mesh, vel, kappa=0.1, dt=0.1,
                             dirichlet_mask=mask)


def test_transport_refuses_non_finite_data(square_mesh):
    vel = np.zeros((square_mesh.n_nodes, 2))
    with pytest.raises(ValueError, match="dirichlet"):
        TransportProblem(square_mesh, vel, kappa=0.1, dt=0.1,
                         dirichlet_mask=square_mesh.dirichlet_mask,
                         dirichlet_value=np.nan)
    tp = TransportProblem(square_mesh, vel, kappa=0.1, dt=0.1)
    with pytest.raises(ValueError, match="source"):
        tp.step(np.zeros(square_mesh.n_nodes), source=np.inf)


@pytest.mark.parametrize("kw, field", [
    ({"dt": 0.0}, "dt"), ({"dt": -0.1}, "dt"), ({"kappa": -0.01}, "kappa"),
    ({"kappa": np.inf}, "kappa"),
])
def test_transport_refuses_an_ill_posed_form(square_mesh, kw, field):
    vel = np.zeros((square_mesh.n_nodes, 2))
    with pytest.raises(ValueError, match=field):
        TransportProblem(square_mesh, vel, **{"kappa": 0.1, "dt": 0.1, **kw})


@pytest.mark.parametrize("kw, field", [
    ({"nu": 0.0}, "nu"), ({"nu": -0.1}, "nu"), ({"dt": 0.0}, "dt"),
    ({"dt": -0.2}, "dt"),
])
def test_ns_refuses_an_ill_posed_form(kw, field):
    mesh, bc, outlet, _ = _poiseuille_setup(level=3)
    with pytest.raises(ValueError, match=field):
        NavierStokesProblem(mesh, velocity_bc=bc, pressure_pin=outlet,
                            **{"nu": 0.1, **kw})


def _free_bc(dim):
    return lambda p: (np.zeros((len(p), dim), bool), np.zeros((len(p), dim)))


@pytest.mark.parametrize("dim", [2, 3])
def test_ns_old_state_equals_the_assembled_operator(dim, monkeypatch):
    """The old-state right-hand side, applied element by element, equals
    the old-state operator assembled from the same element terms: the
    shared old-state block on each velocity component and the PSPG term
    τ/dt (∂_i q, u_i) in the pressure rows.  A steady solve builds no
    old-state term at all."""
    mesh = build_mesh(Domain(SphereCarve([0.4] + [0.5] * (dim - 1), 0.15)),
                      2, 4, p=1)
    ns = NavierStokesProblem(mesh, nu=0.02, dt=0.05, velocity_bc=_free_bc(dim))
    rng = np.random.default_rng(dim)
    U = rng.standard_normal((mesh.n_nodes, dim))
    x_old = rng.standard_normal(mesh.n_nodes * (dim + 1))
    form = SupgForm(ns.ref, element_velocity(mesh, U), ns.nu, ns.h, ns.dt)
    npe = mesh.npe
    R = np.zeros((mesh.n_elem, (dim + 1) * npe, (dim + 1) * npe))
    sl_p = slice(dim * npe, None)
    for i in range(dim):
        sl_i = slice(i * npe, (i + 1) * npe)
        R[:, sl_i, sl_i] = form.old_blocks(np.arange(mesh.n_elem))
        R[:, sl_p, sl_i] = (
            (form.tau / ns.dt * ns.h ** (dim - 1))[:, None, None]
            * ns.ref.C_ref[i].T[None])
    G = ns.ctx.big_gather(dim + 1)
    expect = kernels.assemble(G, G.T.tocsr(), lambda e: R[e]) @ x_old
    got = ns._old_state(form, x_old)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    def refuse(self, e):
        raise AssertionError("old-state term built for a steady solve")

    monkeypatch.setattr(SupgForm, "old_blocks", refuse)
    steady = NavierStokesProblem(mesh, nu=0.02, velocity_bc=_free_bc(dim))
    assert not steady._assemble(U, None)[1].any()
