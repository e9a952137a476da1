#!/usr/bin/env python3
"""Flow past a carved cylinder: VMS Navier–Stokes + drag extraction.

The paper validates its solver on the sphere drag crisis (Fig. 13/14);
the laptop-feasible analogue solved *for real* here is steady flow past
a 2-D cylinder at Re = 20/40 on a carved incomplete octree, with the
drag coefficient compared against standard references (the domain has
~10% blockage with fixed free-stream walls, which raises C_d by a
factor ≈1.2 over the unbounded values — reported alongside).  It also
prints wake statistics, the Fig.-14 quantities.

Run:  python examples/drag_cylinder.py
"""

import numpy as np

from repro import Domain, build_mesh
from repro.analysis import CYLINDER_CD_REFERENCE, drag_from_faces
from repro.core.faces import extract_boundary_faces
from repro.fem.navier_stokes import NavierStokesProblem
from repro.geometry import SphereCarve

D = 1.0  # cylinder diameter
CENTER = (3.0, 5.0)
SCALE = 10.0
BLOCKAGE_FACTOR = 1.0 / (1.0 - D / SCALE) ** 2  # fixed-wall correction


def velocity_bc(mesh):
    pts = mesh.node_coords()
    n = len(pts)
    mask = np.zeros((n, 2), bool)
    vals = np.zeros((n, 2))
    inlet = np.isclose(pts[:, 0], 0.0)
    walls = np.isclose(pts[:, 1], 0.0) | np.isclose(pts[:, 1], SCALE)
    mask[inlet] = True
    vals[inlet, 0] = 1.0
    mask[walls] = True
    vals[walls, 0] = 1.0  # constant free-stream on the walls (paper §5)
    obj = mesh.nodes.carved_node
    mask[obj] = True
    vals[obj] = 0.0  # no-slip on the carved cylinder surface
    return mask, vals


def main() -> None:
    domain = Domain(SphereCarve(CENTER, D / 2), scale=SCALE)
    mesh = build_mesh(domain, base_level=5, boundary_level=8, p=1)
    print(mesh.summary())
    pts = mesh.node_coords()
    outlet = np.isclose(pts[:, 0], SCALE)
    mask, vals = velocity_bc(mesh)
    faces, _ = extract_boundary_faces(mesh)
    print(f"cylinder surrogate boundary: {len(faces)} faces")

    for Re in (20, 40):
        ns = NavierStokesProblem(
            mesh, nu=1.0 / Re, velocity_bc=lambda p: (mask, vals),
            pressure_pin=outlet,
        )
        res = ns.picard_solve(max_iter=40, tol=1e-7)
        F = drag_from_faces(mesh, faces, res.velocity, res.pressure, nu=1.0 / Re)
        cd = F / (0.5 * 1.0 * D)
        ref = CYLINDER_CD_REFERENCE[Re]
        print(f"Re={Re}: Cd={cd:.3f}  unbounded ref={ref}  "
              f"blockage-corrected ref≈{ref * BLOCKAGE_FACTOR:.2f}  "
              f"(picard iters={res.iterations})")

        # wake statistics (the Fig.-14 flavour): velocity deficit and
        # recirculation extent along the centreline behind the cylinder
        U = res.velocity
        line = np.isclose(pts[:, 1], CENTER[1]) & (pts[:, 0] > CENTER[0] + D / 2)
        xs, ux = pts[line, 0], U[line, 0]
        order = np.argsort(xs)
        xs, ux = xs[order], ux[order]
        rec = xs[ux < 0]
        wake_len = (rec.max() - (CENTER[0] + D / 2)) if len(rec) else 0.0
        print(f"       recirculation length ≈ {wake_len:.2f} D, "
              f"min centreline u_x = {ux.min():.3f}")


if __name__ == "__main__":
    main()
