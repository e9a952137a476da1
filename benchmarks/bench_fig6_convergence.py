"""E3 — Fig. 6: Poisson convergence on a carved 2-D disk.

−Δu = 1 on the disk R = 0.5 centred in the unit square, u = 0 on the
circle; exact solution u = (R² − r²)/4.  Imposing the boundary data at
the voxelated boundary nodes ("naive") is first-order accurate in both
L2 and L∞ because the data lands a distance O(h) from the true circle;
the Shifted Boundary Method recovers the optimal second order for
linear elements — exactly the paper's Fig. 6.

The companion AMR column compares uniform vs estimator-driven adaptive
refinement on the L-shaped domain (re-entrant corner singularity
u = r^{2/3} sin(2θ/3)): uniform meshes are rate-limited to N^{-2/3} in
L2 while the Dörfler-marked adaptive loop recovers close to the optimal
N^{-1} error-vs-DoF rate.
"""

import numpy as np

from repro import Domain, build_uniform_mesh
from repro.amr import amr_solve
from repro.analysis import fit_rate
from repro.core import construct_adaptive
from repro.core.mesh import mesh_from_leaves
from repro.fem.poisson import PoissonProblem, l2_error, linf_error
from repro.geometry import BoxCarve, SphereRetain

from _util import ResultTable

R = 0.5
CENTER = np.array([0.5, 0.5])


def exact(pts):
    r2 = ((pts - CENTER) ** 2).sum(axis=1)
    return 0.25 * (R * R - r2)


def run_fig6(levels=(4, 5, 6, 7)):
    dom = Domain(SphereRetain(CENTER, R))
    out = {}
    for method in ("nodal", "sbm"):
        rows = []
        for lv in levels:
            mesh = build_uniform_mesh(dom, lv, p=1)
            u = PoissonProblem(mesh, f=1.0, dirichlet=0.0, method=method).solve()
            rows.append((lv, 2.0**-lv, l2_error(mesh, u, exact),
                         linf_error(mesh, u, exact)))
        out[method] = rows
    return out


def test_fig6_convergence(benchmark):
    out = benchmark.pedantic(run_fig6, rounds=1, iterations=1)
    t = ResultTable(
        "fig6_convergence",
        "Fig 6: Poisson on a 2D disk — naive voxel BC vs Shifted Boundary Method",
    )
    rates = {}
    for method, rows in out.items():
        t.row(f"-- {method}")
        t.row(f"{'level':>6} {'h':>9} {'L2':>12} {'Linf':>12}")
        for lv, h, e2, einf in rows:
            t.row(f"{lv:>6} {h:>9.5f} {e2:>12.4e} {einf:>12.4e}")
        hs = np.array([r[1] for r in rows])
        r2 = fit_rate(hs, np.array([r[2] for r in rows]))
        ri = fit_rate(hs, np.array([r[3] for r in rows]))
        rates[method] = (r2, ri)
        t.row(f"fitted orders: L2 = {r2:.2f}, Linf = {ri:.2f}")
    t.row("paper: naive first order, SBM second order (both norms)")
    t.save()
    assert 0.7 < rates["nodal"][0] < 1.4, "naive BC should be ~first order in L2"
    assert rates["sbm"][0] > 1.7, "SBM should restore ~second order in L2"
    assert rates["sbm"][1] > 1.2, "SBM should beat first order in Linf"


def _lshape_exact(pts):
    x = pts[:, 0] - 0.5
    y = pts[:, 1] - 0.5
    r = np.hypot(x, y)
    theta = np.mod(np.arctan2(y, x) - np.pi / 2, 2 * np.pi)
    return np.where(r > 0, r ** (2.0 / 3.0), 0.0) * np.sin(2.0 * theta / 3.0)


def run_amr_vs_uniform(levels=(3, 4, 5, 6), max_cycles=12):
    dom = Domain(BoxCarve([0.5, 0.5], [1.0, 1.0]), dim=2)
    uniform = []
    for lv in levels:
        mesh = mesh_from_leaves(dom, construct_adaptive(dom, lv, lv), p=1)
        u = PoissonProblem(mesh, f=0.0, dirichlet=_lshape_exact).solve()
        uniform.append((mesh.n_nodes, l2_error(mesh, u, _lshape_exact)))
    res = amr_solve(
        dom, f=0.0, dirichlet=_lshape_exact, base_level=levels[0],
        max_cycles=max_cycles, theta=0.5, exact=_lshape_exact,
    )
    adaptive = [(r["n_dofs"], r["error_l2"]) for r in res.history]
    return uniform, adaptive, res.digest()


def _dof_rate(points):
    n = np.array([float(p[0]) for p in points])
    e = np.array([float(p[1]) for p in points])
    # error ~ C N^{-rate}; fit_rate works in a mesh-size-like variable
    return fit_rate(1.0 / n, e)


def test_fig6_amr_vs_uniform(benchmark):
    uniform, adaptive, digest = benchmark.pedantic(
        run_amr_vs_uniform, rounds=1, iterations=1
    )
    t = ResultTable(
        "fig6_amr_vs_uniform",
        "Fig 6 (AMR column): L-shape error vs DoFs — uniform vs adaptive",
    )
    for label, rows in (("uniform", uniform), ("adaptive", adaptive)):
        t.row(f"-- {label}")
        t.row(f"{'DoFs':>8} {'L2':>12}")
        for n, e in rows:
            t.row(f"{n:>8} {e:>12.4e}")
            t.record(series=label, dofs=int(n), l2=float(e))
    r_uni = _dof_rate(uniform)
    r_amr = _dof_rate(adaptive[-6:])
    t.row(f"error-vs-DoF rates: uniform N^-{r_uni:.2f}, adaptive N^-{r_amr:.2f}")
    t.row(f"trajectory digest: {digest}")
    t.record(rate_uniform=float(r_uni), rate_adaptive=float(r_amr),
             digest=digest)
    t.save()
    assert r_uni < 0.85, "uniform should be singularity-limited (~N^-2/3)"
    assert r_amr > r_uni + 0.1, "adaptive must beat the uniform rate"
    assert r_amr > 0.85, "adaptive should approach the optimal N^-1"
