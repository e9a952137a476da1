#!/usr/bin/env python3
"""Adaptivity + multigrid + VTK export: the extension features together.

Builds a point-cloud-adapted carved mesh (refinement criterion #3 of
the paper's §3.2), solves Poisson with a geometric-multigrid
preconditioner, coarsens where the solution is smooth, and exports
both meshes with fields to ParaView-readable .vtu files.

Run:  python examples/adaptive_multigrid.py
"""

import numpy as np

from repro import Domain, assemble, build_mesh, mesh_from_leaves
from repro.core.adapt import coarsen_leaves, construct_from_points
from repro.fem.dirichlet import Dirichlet
from repro.fem.poisson import PoissonProblem
from repro.geometry import SphereCarve
from repro.io import write_vtu
from repro.solvers import MultigridPoisson, cg, jacobi


def main() -> None:
    domain = Domain(SphereCarve([0.5, 0.5], 0.25))

    # a synthetic sensor cloud clustered near the object drives refinement
    rng = np.random.default_rng(42)
    angles = rng.uniform(0, 2 * np.pi, 4000)
    radii = 0.25 + np.abs(rng.normal(0, 0.08, 4000))
    cloud = 0.5 + np.stack([radii * np.cos(angles), radii * np.sin(angles)], 1)
    cloud = np.clip(cloud, 0.01, 0.99)
    leaves = construct_from_points(domain, cloud, max_points=30)
    mesh = mesh_from_leaves(domain, leaves, p=1)
    print(f"point-cloud-adapted mesh: {mesh.summary()}")

    # multigrid-preconditioned CG solve
    hierarchy = [mesh] + [build_mesh(domain, lv, lv + 2, p=1) for lv in (4, 3)]
    fixed = mesh.dirichlet_mask
    Abc, b = Dirichlet(fixed).masked(assemble(mesh), np.ones(mesh.n_nodes))
    Abc = Abc.tocsr()
    mg = MultigridPoisson(hierarchy, Abc, fixed)
    r_mg = cg(Abc, b, M=mg, rtol=1e-10)
    r_j = cg(Abc, b, M=jacobi(Abc), rtol=1e-10, maxiter=20000)
    print(f"CG iterations: multigrid {r_mg.iterations} vs jacobi {r_j.iterations}")
    u = r_mg.x

    # coarsen elements where the solution is locally flat
    u_loc = (mesh.nodes.gather @ u).reshape(mesh.n_elem, mesh.npe)
    variation = u_loc.max(axis=1) - u_loc.min(axis=1)
    marks = variation < 0.25 * max(u.max(), 1e-12)
    coarse_leaves = coarsen_leaves(domain, mesh.leaves, marks, min_level=2)
    coarse_mesh = mesh_from_leaves(domain, coarse_leaves, p=1)
    print(f"coarsened mesh: {coarse_mesh.n_elem} elements "
          f"(from {mesh.n_elem})")
    u_c = PoissonProblem(coarse_mesh, f=1.0).solve()

    p1 = write_vtu(mesh, "/tmp/adaptive_fine.vtu", point_data={"u": u},
                   cell_data={"level": mesh.leaves.levels.astype(float)})
    p2 = write_vtu(coarse_mesh, "/tmp/adaptive_coarse.vtu",
                   point_data={"u": u_c})
    print(f"wrote {p1} and {p2} (open in ParaView)")


if __name__ == "__main__":
    main()
