#!/usr/bin/env python3
"""Moving-object re-meshing: the workflow the paper's fast carving
enables ("fast, well-balanced creation of complex meshes ... open the
way for parametric exploration").

A disk sweeps across the domain; at every step the incomplete octree is
rebuilt around the new position (a few milliseconds at this scale), the
scalar field is transferred from the previous mesh, and a diffusion
step is taken on the new mesh.  Mesh counts stay roughly constant while
the refined region follows the object.

Run:  python examples/moving_object.py
"""

import time

import numpy as np

from repro import Domain, build_mesh
from repro.core.interpolate import transfer_field
from repro.fem.transport import TransportProblem
from repro.geometry import SphereCarve


def main() -> None:
    nsteps = 8
    radius = 0.18
    c = np.zeros(0)
    mesh_prev = None
    total_rebuild = 0.0
    print(f"{'step':>5} {'centre':>12} {'elements':>9} {'nodes':>7} "
          f"{'rebuild(ms)':>12} {'mass':>9}")
    for k in range(nsteps):
        x = 0.25 + 0.5 * k / (nsteps - 1)
        dom = Domain(SphereCarve([x, 0.5], radius))
        t0 = time.perf_counter()
        mesh = build_mesh(dom, 3, 6, p=1)
        dt_build = time.perf_counter() - t0
        total_rebuild += dt_build
        if mesh_prev is None:
            pts = mesh.node_coords()
            c = np.exp(-60 * ((pts - [0.2, 0.8]) ** 2).sum(axis=1))
        else:
            c = transfer_field(mesh_prev, mesh, c)
        # one diffusion step on the new mesh
        tp = TransportProblem(mesh, np.zeros((mesh.n_nodes, 2)),
                              kappa=2e-3, dt=0.05)
        c = tp.step(c)
        mass = tp.total_mass(c)
        print(f"{k:>5} {x:>12.3f} {mesh.n_elem:>9} {mesh.n_nodes:>7} "
              f"{dt_build * 1e3:>12.1f} {mass:>9.5f}")
        mesh_prev = mesh
    print(f"\ntotal re-meshing time over {nsteps} steps: "
          f"{total_rebuild * 1e3:.0f} ms — carving makes per-step mesh "
          f"regeneration affordable")


if __name__ == "__main__":
    main()
