#!/usr/bin/env python3
"""Classroom airflow and viral-load transport (the paper's §5
application, Figs. 15-16): carve desks, monitors and mannequins out of
a room, solve the ventilation flow, then advect the viral load released
by an infected occupant — with and without monitors.

The paper's observation: monitors redirect the flow upwards, away from
the occupied zone, significantly reducing transmission risk at the
other seats.  We reproduce the comparison at laptop scale and report
per-breathing-zone exposure.

Run:  python examples/classroom_airflow.py  [--fast]
"""

import sys

import numpy as np

from repro import build_mesh
from repro.fem.navier_stokes import NavierStokesProblem
from repro.fem.transport import TransportProblem
from repro.geometry import ClassroomScene


def breathing_zone_exposure(mesh, scene, c):
    """Mean (non-negative) concentration in each breathing zone."""
    pts = mesh.node_coords()
    out = []
    for zone in scene.breathing_zones():
        c0, r = zone[:3], zone[3]
        sel = np.linalg.norm(pts - c0, axis=1) <= r
        out.append(float(np.clip(c[sel], 0, None).mean()) if sel.any() else 0.0)
    return np.array(out)


def run_scenario(with_monitors: bool, fast: bool):
    scene = ClassroomScene(n_rows=2, n_cols=3, with_monitors=with_monitors,
                           infected=0)
    dom = scene.domain()
    base, bnd = (4, 5) if fast else (4, 6)
    mesh = build_mesh(dom, base, bnd, p=1)
    mask, vals, outlet = scene.velocity_bc(mesh)
    ns = NavierStokesProblem(
        mesh, nu=0.02, velocity_bc=lambda p: (mask, vals), pressure_pin=outlet
    )
    flow = ns.picard_solve(max_iter=5 if fast else 8, tol=1e-4)
    print(f"  mesh: {mesh.n_elem} elements, {mesh.n_nodes} nodes; "
          f"flow solved ({flow.iterations} picard iters, dU={flow.residual:.1e})")

    # statistically-steady flow advects the cough-released viral load
    inlet_nodes = mask[:, 2] & (vals[:, 2] < 0)
    tp = TransportProblem(
        mesh, flow.velocity, kappa=1e-2, dt=0.1,
        dirichlet_mask=inlet_nodes, dirichlet_value=0.0,
    )
    c = np.zeros(mesh.n_nodes)
    src = scene.cough_source(rate=1.0)
    nsteps = 40 if fast else 150
    dose = np.zeros(len(scene.seats))
    for step in range(nsteps):
        # periodic coughing: source active every 4th step
        c = tp.step(c, source=src if step % 4 == 0 else 0.0)
        dose += tp.dt * breathing_zone_exposure(mesh, scene, c)
    return mesh, c, dose


def main() -> None:
    fast = "--fast" in sys.argv
    results = {}
    for monitors in (False, True):
        label = "with monitors" if monitors else "no monitors"
        print(f"scenario: {label}")
        mesh, c, dose = run_scenario(monitors, fast)
        results[monitors] = dose
        rel = dose / max(dose[0], 1e-30)
        print(f"  time-integrated dose per seat:   {np.array2string(dose, precision=5)}")
        print(f"  relative to the infected's seat: {np.round(rel, 4)}")

    # exposure at the *other* (non-infected) seats
    other = slice(1, None)
    e_no = results[False][other].mean()
    e_mon = results[True][other].mean()
    print("\nsummary (mean time-integrated dose at non-infected seats):")
    print(f"  no monitors:   {e_no:.6f}")
    print(f"  with monitors: {e_mon:.6f}")
    print(f"  reduction:     {100 * (1 - e_mon / e_no):.0f}% "
          f"(paper: 'significant reduction ... with monitors')")


if __name__ == "__main__":
    main()
