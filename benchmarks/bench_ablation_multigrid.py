"""Ablation — geometric multigrid vs single-level preconditioning.

§3.6 motivates fast assembly by "problems whose convergence heavily
depends on the preconditioners"; the natural octree preconditioner is a
geometric V-cycle over a hierarchy of carved meshes (the Dendro
lineage).  This bench measures CG iteration counts with Jacobi,
block-Jacobi (ASM-like) and the V-cycle on the carved-disk Poisson
system at two resolutions, showing the mesh-independent convergence of
multigrid.
"""

import numpy as np

from repro import Domain, assemble, build_mesh
from repro.fem.dirichlet import Dirichlet
from repro.geometry import SphereCarve
from repro.solvers import BlockJacobi, MultigridPoisson, cg, jacobi

from _util import ResultTable


def _system(mesh):
    fixed = mesh.dirichlet_mask
    Abc, b = Dirichlet(fixed).masked(assemble(mesh), np.ones(mesh.n_nodes))
    return Abc.tocsr(), b, fixed


def run_mg_ablation():
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    rows = []
    for fine in (5, 6):
        meshes = [build_mesh(dom, lv, lv + 2, p=1) for lv in range(fine, 2, -1)]
        Abc, b, fixed = _system(meshes[0])
        iters = {}
        iters["jacobi"] = cg(Abc, b, M=jacobi(Abc), rtol=1e-8, maxiter=20000).iterations
        iters["block-jacobi"] = cg(
            Abc, b, M=BlockJacobi(Abc, nblocks=8), rtol=1e-8, maxiter=20000
        ).iterations
        mg = MultigridPoisson(meshes, Abc, fixed)
        iters["mg-vcycle"] = cg(Abc, b, M=mg, rtol=1e-8).iterations
        rows.append((meshes[0].n_nodes, len(meshes), iters))
    return rows


def test_ablation_multigrid(benchmark):
    rows = benchmark.pedantic(run_mg_ablation, rounds=1, iterations=1)
    t = ResultTable(
        "ablation_multigrid",
        "Ablation: CG iterations by preconditioner (carved-disk Poisson)",
    )
    t.row(f"{'DOFs':>7} {'levels':>7} {'jacobi':>8} {'block-jacobi':>13} "
          f"{'mg-vcycle':>10}")
    for n, nl, it in rows:
        t.row(f"{n:>7} {nl:>7} {it['jacobi']:>8} {it['block-jacobi']:>13} "
              f"{it['mg-vcycle']:>10}")
    t.row("multigrid iteration counts are (near) mesh-independent")
    t.save()
    for n, nl, it in rows:
        assert it["mg-vcycle"] < it["jacobi"] / 2
    # mesh independence: growth far below the Jacobi growth
    growth_mg = rows[1][2]["mg-vcycle"] / max(rows[0][2]["mg-vcycle"], 1)
    growth_j = rows[1][2]["jacobi"] / max(rows[0][2]["jacobi"], 1)
    assert growth_mg < growth_j
