#!/usr/bin/env python3
"""Quickstart: carve a sphere from a box, build an adaptive incomplete
octree, and solve a Poisson problem on it — the library's core loop.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Domain, build_mesh
from repro.core.matvec import MapBasedMatVec, traversal_matvec
from repro.fem.poisson import PoissonProblem
from repro.geometry import SphereCarve


def main() -> None:
    # A sphere of diameter 1 carved from a 10x10x10 box — the paper's
    # flow-past-a-sphere domain (§4.5.2), at laptop scale.
    domain = Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)
    mesh = build_mesh(domain, base_level=3, boundary_level=6, p=1)
    print(mesh.summary())
    print(f"dirichlet nodes (cube + carved boundary): {mesh.dirichlet_mask.sum()}")

    # The two matrix-free MATVECs agree to machine precision.
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    y_map = MapBasedMatVec(mesh)(u)
    y_trav = traversal_matvec(mesh, u)
    print(f"map-based vs traversal MATVEC max diff: {np.abs(y_map - y_trav).max():.2e}")

    # Solve −Δu = 1 with u = 0 on all boundaries.
    problem = PoissonProblem(mesh, f=1.0, dirichlet=0.0, method="nodal")
    sol = problem.solve(rtol=1e-8)
    interior = ~mesh.dirichlet_mask
    print(f"Poisson solved: max u = {sol[interior].max():.4f}, "
          f"mean u = {sol[interior].mean():.4f}")


if __name__ == "__main__":
    main()
