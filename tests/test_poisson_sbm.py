"""Tests for Poisson problems, SBM and boundary faces."""

import numpy as np
import pytest

from repro import Domain, build_mesh, build_uniform_mesh
from repro.core.faces import extract_boundary_faces
from repro.fem.poisson import PoissonProblem, l2_error, linf_error, load_vector
from repro.fem.sbm import face_quadrature, sbm_terms
from repro.geometry import SphereCarve, SphereRetain


def _outward_normals(faces, dim):
    """Unit outward normal of each face, ``(len(faces), dim)``."""
    n = np.zeros((len(faces), dim))
    n[np.arange(len(faces)), faces.axis] = 2.0 * faces.side - 1.0
    return n


@pytest.fixture(scope="module")
def disk_mesh():
    return build_uniform_mesh(Domain(SphereRetain([0.5, 0.5], 0.5)), 5, p=1)


def test_load_vector_constant_integrates_area(disk_mesh):
    b = load_vector(disk_mesh, 1.0)
    # sum of the load vector = integral of 1 over the voxel domain
    area_cells = float(np.sum(disk_mesh.element_sizes() ** 2))
    assert b.sum() == pytest.approx(area_cells, rel=1e-12)


def test_poisson_square_manufactured():
    """Complete square, u = sin(pi x) sin(pi y): optimal L2 rates."""
    def exact(pts):
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def f(pts):
        return 2 * np.pi**2 * exact(pts)

    errs = []
    for lv in (3, 4, 5):
        mesh = build_uniform_mesh(Domain(dim=2), lv, p=1)
        u = PoissonProblem(mesh, f=f, dirichlet=0.0).solve(rtol=1e-12)
        errs.append(l2_error(mesh, u, exact))
    r = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert r[0] > 1.8 and r[1] > 1.8


def test_poisson_p2_superior_accuracy():
    def exact(pts):
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def f(pts):
        return 2 * np.pi**2 * exact(pts)

    mesh1 = build_uniform_mesh(Domain(dim=2), 4, p=1)
    mesh2 = build_uniform_mesh(Domain(dim=2), 4, p=2)
    e1 = l2_error(mesh1, PoissonProblem(mesh1, f=f).solve(rtol=1e-12), exact)
    e2 = l2_error(mesh2, PoissonProblem(mesh2, f=f).solve(rtol=1e-12), exact)
    assert e2 < e1 / 5


def test_poisson_on_adaptive_carved_mesh():
    """The full carved pipeline runs and satisfies the max principle."""
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    mesh = build_mesh(dom, 3, 5, p=1)
    u = PoissonProblem(mesh, f=1.0, dirichlet=0.0).solve()
    assert u.max() > 0
    assert u.min() >= -1e-10  # no undershoot below the boundary data


def test_poisson_unknown_method():
    mesh = build_uniform_mesh(Domain(dim=2), 3, p=1)
    with pytest.raises(ValueError):
        PoissonProblem(mesh, method="magic").solve()


def test_nodal_dirichlet_values_applied():
    mesh = build_uniform_mesh(Domain(dim=2), 3, p=1)
    g = lambda pts: pts[:, 0]
    u = PoissonProblem(mesh, f=0.0, dirichlet=g).solve(rtol=1e-12)
    # harmonic extension of x is x itself
    assert np.abs(u - mesh.node_coords()[:, 0]).max() < 1e-8


# -- boundary faces -------------------------------------------------------


def test_boundary_faces_counts_uniform_square():
    mesh = build_uniform_mesh(Domain(dim=2), 3, p=1)
    sub, dom = extract_boundary_faces(mesh)
    assert len(sub) == 0          # nothing carved
    assert len(dom) == 4 * 8      # 8 cells per side


def test_boundary_faces_carved_box():
    pred = SphereCarve([0.5, 0.5], 0.2)
    mesh = build_mesh(Domain(pred), 4, 4, p=1)
    sub, _ = extract_boundary_faces(mesh)
    assert len(sub) > 0
    # each face's outward neighbour cell centre must be carved
    lo, hi = mesh.leaves.physical_bounds(1.0)
    h = mesh.element_sizes()
    ctr = 0.5 * (lo + hi)
    n = _outward_normals(sub, 2)
    probe = ctr[sub.elem] + n * h[sub.elem][:, None]
    assert pred.carved_points(probe).all()


def test_face_quadrature_weights_sum_to_one():
    for axis in (0, 1, 2):
        for side in (0, 1):
            pts, wts = face_quadrature(1, 3, axis, side, 2)
            assert wts.sum() == pytest.approx(1.0)
            assert np.allclose(pts[:, axis], side)


def test_sbm_terms_empty_when_no_boundary():
    mesh = build_uniform_mesh(Domain(dim=2), 3, p=1)
    A, b = sbm_terms(mesh, lambda p: np.zeros(len(p)),
                     include_domain_faces=False)
    assert A.nnz == 0 and np.all(b == 0)


def test_sbm_linear_exactness():
    """SBM reproduces any linear solution exactly (patch test)."""
    dom = Domain(SphereRetain([0.5, 0.5], 0.5))
    mesh = build_uniform_mesh(dom, 4, p=1)
    g = lambda pts: 3.0 * pts[:, 0] - pts[:, 1] + 0.5
    u = PoissonProblem(mesh, f=0.0, dirichlet=g, method="sbm").solve()
    assert linf_error(mesh, u, g) < 1e-9


def test_sbm_second_order_beats_nodal():
    R, c = 0.5, np.array([0.5, 0.5])

    def exact(pts):
        return 0.25 * (R * R - ((pts - c) ** 2).sum(axis=1))

    dom = Domain(SphereRetain(c, R))
    mesh = build_uniform_mesh(dom, 6, p=1)
    e_nodal = l2_error(
        mesh, PoissonProblem(mesh, f=1.0, method="nodal").solve(), exact
    )
    e_sbm = l2_error(
        mesh, PoissonProblem(mesh, f=1.0, method="sbm").solve(), exact
    )
    assert e_sbm < e_nodal / 5


def test_matrix_free_solve_matches_assembled():
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    mesh = build_mesh(dom, 3, 5, p=1)
    prob = PoissonProblem(mesh, f=1.0, dirichlet=0.0)
    u_mf = prob.solve(solver="matrix-free")
    u_cg = prob.solve()
    assert np.abs(u_mf - u_cg).max() < 1e-10


def test_matrix_free_rejects_sbm():
    dom = Domain(SphereRetain([0.5, 0.5], 0.5))
    mesh = build_uniform_mesh(dom, 4, p=1)
    with pytest.raises(ValueError):
        PoissonProblem(mesh, f=1.0, method="sbm").solve(solver="matrix-free")


@pytest.mark.parametrize(
    "g", [0.75, lambda pts: 1.0 + pts[:, 0] - 2.0 * pts[:, 1]], ids=["const", "callable"]
)
def test_matrix_free_lifts_boundary_data(g):
    """Non-zero boundary data is lifted by one compiled apply; constant
    or callable, the solve must match the assembled one."""
    mesh = build_mesh(Domain(SphereCarve([0.5, 0.5], 0.25)), 3, 4, p=1)
    prob = PoissonProblem(mesh, f=2.5, dirichlet=g)
    u_mf = prob.solve(solver="matrix-free", rtol=1e-12)
    u_cg = prob.solve(rtol=1e-12)
    assert np.abs(u_mf - u_cg).max() < 1e-9
    fixed = mesh.dirichlet_mask
    assert np.array_equal(u_mf[fixed], prob._g_at(mesh.node_coords())[fixed])


def test_matrix_free_solve_honours_x0(monkeypatch):
    """``x0`` warm-starts the matrix-free CG as the docstring says
    (it used to be dropped): restarting from the solution costs no more
    than one iteration, and junk on the Dirichlet nodes is masked."""
    from repro.solvers import system

    mesh = build_mesh(Domain(SphereCarve([0.5, 0.5], 0.25)), 3, 4, p=1)
    prob = PoissonProblem(mesh, f=1.0, dirichlet=0.5)
    results = []
    real_cg = system.cg

    def recording_cg(*args, **kwargs):
        results.append(real_cg(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(system, "cg", recording_cg)
    u = prob.solve(solver="matrix-free", rtol=1e-10)
    start = u + 7.0 * mesh.dirichlet_mask  # wrong on the boundary nodes
    u_warm = prob.solve(solver="matrix-free", rtol=1e-8, x0=start)
    cold, warm = results
    assert cold.iterations > 5 and warm.iterations <= 1
    assert np.abs(u_warm - u).max() < 1e-8


def test_unknown_solver_is_rejected():
    """Two solvers: the method's rule on the assembled system, or the
    compiled operator; the retired ``cg`` and ``direct`` are refused by
    name."""
    mesh = build_uniform_mesh(Domain(dim=2), 2, p=1)
    for solver in ("matrixfree", "cg", "direct"):
        with pytest.raises(ValueError,
                           match=rf"^unknown solver '{solver}': expected "
                                 r"auto or matrix-free$"):
            PoissonProblem(mesh, f=1.0).solve(solver=solver)


# -- hostile data: a named ValueError before any factorisation ---------------


@pytest.mark.parametrize("method,solver", [
    ("nodal", "auto"), ("nodal", "matrix-free"), ("sbm", "auto")])
def test_non_finite_source_is_refused(method, solver, monkeypatch):
    import scipy.sparse.linalg as spla

    mesh = build_uniform_mesh(Domain(SphereRetain([0.5, 0.5], 0.5)), 3, p=1)
    # refused before any factorisation: reaching one is a TypeError
    monkeypatch.setattr(spla, "splu", None)
    for f in (np.nan, lambda pts: np.where(pts[:, 0] > 0.5, np.inf, 1.0)):
        with pytest.raises(ValueError, match="^f has non-finite"):
            PoissonProblem(mesh, f=f, method=method).solve(solver=solver)


@pytest.mark.parametrize("method,solver", [
    ("nodal", "auto"), ("nodal", "matrix-free"), ("sbm", "auto")])
def test_non_finite_boundary_data_is_refused(method, solver):
    mesh = build_uniform_mesh(Domain(SphereRetain([0.5, 0.5], 0.5)), 3, p=1)
    for g in (np.nan, lambda pts: np.full(len(pts), np.nan)):
        with pytest.raises(ValueError, match="^dirichlet has non-finite"):
            PoissonProblem(mesh, f=1.0, dirichlet=g, method=method).solve(
                solver=solver)


@pytest.mark.parametrize("solver", ["auto", "matrix-free"])
def test_bad_x0_is_refused(solver):
    mesh = build_uniform_mesh(Domain(dim=2), 3, p=1)
    prob = PoissonProblem(mesh, f=1.0)
    n = mesh.n_nodes
    for x0, match in ((0.5, r"^x0 must have shape"),
                      (np.zeros(n + 1), r"^x0 must have shape"),
                      (np.zeros(n - 1), r"^x0 must have shape"),
                      (np.full(n, np.nan), "^x0 has non-finite")):
        with pytest.raises(ValueError, match=match):
            prob.solve(solver=solver, x0=x0)
    # a list of the right length is still an x0
    u = prob.solve(solver=solver)
    assert np.abs(prob.solve(solver=solver, x0=list(u)) - u).max() < 1e-9
