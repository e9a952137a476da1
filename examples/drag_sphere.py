#!/usr/bin/env python3
"""3-D flow past a carved sphere: the paper's Fig. 13/14 geometry at
laptop-affordable Reynolds number.

A sphere of diameter 1 carved from a box (the §5 validation setup,
scaled down), solved with the VMS Navier–Stokes solver at Re = 100.
The voxelated no-slip boundary converges at first order, so the drag
coefficient is Richardson-extrapolated from two refinement levels and
compared against the Schiller–Naumann correlation; wake statistics give
the Fig.-14 qualitative picture.

Run:  python examples/drag_sphere.py      (~2-3 minutes)
"""

import time

import numpy as np

from repro import Domain, build_mesh
from repro.analysis import drag_from_faces, schiller_naumann_cd
from repro.core.faces import extract_boundary_faces
from repro.fem.navier_stokes import NavierStokesProblem
from repro.geometry import SphereCarve

D = 1.0
CENTER = np.array([3.0, 5.0, 5.0])
SCALE = 10.0
RE = 100


def solve_level(base, boundary):
    dom = Domain(SphereCarve(CENTER, D / 2), scale=SCALE)
    mesh = build_mesh(dom, base, boundary, p=1)
    pts = mesh.node_coords()

    def bc(p_):
        n = len(p_)
        mask = np.zeros((n, 3), bool)
        vals = np.zeros((n, 3))
        inlet = np.isclose(p_[:, 0], 0.0)
        walls = (
            np.isclose(p_[:, 1], 0) | np.isclose(p_[:, 1], SCALE)
            | np.isclose(p_[:, 2], 0) | np.isclose(p_[:, 2], SCALE)
        )
        mask[inlet] = True
        vals[inlet, 0] = 1.0
        mask[walls] = True
        vals[walls, 0] = 1.0  # constant free-stream on the walls (paper §5)
        obj = mesh.nodes.carved_node
        mask[obj] = True
        vals[obj] = 0.0
        return mask, vals

    outlet = np.isclose(pts[:, 0], SCALE)
    ns = NavierStokesProblem(mesh, nu=1.0 / RE, velocity_bc=bc,
                             pressure_pin=outlet)
    res = ns.picard_solve(max_iter=15, tol=1e-5)
    faces, _ = extract_boundary_faces(mesh)
    F = drag_from_faces(mesh, faces, res.velocity, res.pressure, nu=1.0 / RE)
    cd = F / (0.5 * np.pi * (D / 2) ** 2)
    return mesh, res, cd


def main() -> None:
    ref = float(schiller_naumann_cd(RE))
    cds = []
    for base, boundary in ((3, 6), (4, 7)):
        t0 = time.time()
        mesh, res, cd = solve_level(base, boundary)
        cds.append(cd)
        print(f"levels ({base},{boundary}): {mesh.n_elem} elements, "
              f"Cd = {cd:.3f} ({res.iterations} picard iters, "
              f"{time.time() - t0:.0f}s)")
    # first-order (voxel boundary) Richardson extrapolation
    r = 0.5
    cd_star = cds[1] + (cds[1] - cds[0]) * r / (1 - r)
    print(f"\nRichardson-extrapolated Cd = {cd_star:.3f}")
    print(f"Schiller-Naumann reference  = {ref:.3f}  "
          f"(deviation {100 * abs(cd_star - ref) / ref:.1f}%)")

    # Fig-14 flavour: wake structure behind the sphere
    mesh, res, _ = solve_level(3, 6)
    pts = mesh.node_coords()
    U, P = res.velocity, res.pressure
    line = (
        (np.abs(pts[:, 1] - CENTER[1]) < 0.4)
        & (np.abs(pts[:, 2] - CENTER[2]) < 0.4)
        & (pts[:, 0] > CENTER[0] + D / 2)
    )
    xs, ux = pts[line, 0], U[line, 0]
    order = np.argsort(xs)
    print("\nwake centreline u_x:",
          np.array2string(ux[order][:10], precision=2))
    front = (
        (np.abs(pts[:, 1] - CENTER[1]) < 0.3)
        & (np.abs(pts[:, 2] - CENTER[2]) < 0.3)
        & (pts[:, 0] > 2.0) & (pts[:, 0] < 2.5)
    )
    behind = line & (pts[:, 0] < CENTER[0] + 1.5)
    print(f"stagnation pressure {P[front].mean():.3f} vs wake "
          f"{P[behind].mean():.3f} (high-pressure front, low-pressure wake)")


if __name__ == "__main__":
    main()
