"""E16 — Fig. 16: viral-load transport, with vs without monitors.

The coupled classroom pipeline at bench scale: carve the scene, solve
the ventilation flow (VMS NS), advect the cough-released scalar, and
compare the time-integrated exposure at the non-infected breathing
zones between the two scenarios.  The paper's finding: monitors
redirect the flow upward and away from the occupied zone, reducing
transmission at the other seats.
"""

import numpy as np

from repro import build_mesh
from repro.fem.navier_stokes import NavierStokesProblem
from repro.fem.transport import TransportProblem
from repro.geometry import ClassroomScene

from _util import ResultTable


def _zone_exposure(mesh, scene, c):
    pts = mesh.node_coords()
    out = []
    for zone in scene.breathing_zones():
        c0, r = zone[:3], zone[3]
        sel = np.linalg.norm(pts - c0, axis=1) <= r
        out.append(float(np.clip(c[sel], 0, None).mean()) if sel.any() else 0.0)
    return np.array(out)


def run_scenario(with_monitors: bool):
    scene = ClassroomScene(n_rows=2, n_cols=3, with_monitors=with_monitors,
                           infected=0)
    mesh = build_mesh(scene.domain(), 4, 5, p=1)
    mask, vals, outlet = scene.velocity_bc(mesh)
    ns = NavierStokesProblem(mesh, nu=0.02,
                             velocity_bc=lambda p: (mask, vals),
                             pressure_pin=outlet)
    flow = ns.picard_solve(max_iter=6, tol=1e-4)
    inlet_nodes = mask[:, 2] & (vals[:, 2] < 0)
    tp = TransportProblem(mesh, flow.velocity, kappa=1e-2, dt=0.1,
                          dirichlet_mask=inlet_nodes)
    c = np.zeros(mesh.n_nodes)
    src = scene.cough_source(rate=1.0)
    dose = np.zeros(len(scene.seats))
    for step in range(60):
        c = tp.step(c, source=src if step % 4 == 0 else 0.0)
        dose += tp.dt * _zone_exposure(mesh, scene, c)
    return mesh, flow, c, dose


def test_fig16_viral_load(benchmark):
    results = benchmark.pedantic(
        lambda: {m: run_scenario(m) for m in (False, True)},
        rounds=1, iterations=1,
    )
    t = ResultTable(
        "fig16_viral_load",
        "Fig 16: time-integrated viral dose per breathing zone, "
        "no-monitors vs monitors",
    )
    doses = {}
    for mon, (mesh, flow, c, dose) in results.items():
        label = "monitors" if mon else "no monitors"
        t.row(f"-- {label}: mesh {mesh.n_elem} elements; "
              f"flow residual {flow.residual:.1e}")
        t.row(f"   dose per seat: {np.array2string(dose, precision=6)}")
        doses[mon] = dose
    other = slice(1, None)
    e_no = float(doses[False][other].sum())
    e_mon = float(doses[True][other].sum())
    t.row(f"total dose at non-infected seats: no-monitors {e_no:.3e}, "
          f"monitors {e_mon:.3e}")
    t.row("paper: 'significant reduction in transmission risk in the case "
          "with monitors'")
    t.save()
    for mon, dose in doses.items():
        assert dose[0] > 0, "the infected seat must register exposure"
        assert np.all(dose >= 0)
    assert e_no > 0, "the plume must reach other seats without monitors"
    # scenario comparison runs and produces distinct flows/doses
    assert not np.allclose(doses[False], doses[True])
