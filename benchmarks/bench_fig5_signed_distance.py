"""E1 — Fig. 5b: signed-distance error of the voxelised geometry.

The carved octree approximates the true surface by a voxelated
boundary; the paper measures the L∞ signed distance from the octree's
boundary nodes to the STL surface of the Stanford dragon and observes
first-order convergence with the boundary refinement level.  We run the
identical pipeline on the procedural dragon-substitute blob (and the
icosphere as a smooth control), computing the signed distance with the
in-repo trimesh substrate (Eq. 3 of the paper's Appendix B.1).
"""

import numpy as np

from repro import Domain, build_mesh
from repro.analysis import fit_rate
from repro.geometry import TriMeshCarve, dragon_blob

from _util import ResultTable


def _boundary_node_error(pred, mesh):
    pts = mesh.node_coords()
    bnodes = pts[mesh.nodes.carved_node]
    sd = pred.mesh.signed_distance(bnodes)
    return float(np.abs(sd).max()), len(bnodes)


def run_signed_distance(levels=(4, 5, 6, 7)):
    blob = dragon_blob((0.5, 0.5, 0.5), 0.28, subdivisions=3)
    pred = TriMeshCarve(blob)
    dom = Domain(pred)
    rows = []
    for lv in levels:
        mesh = build_mesh(dom, 3, lv, p=1)
        err, nb = _boundary_node_error(pred, mesh)
        h = 1.0 / (1 << lv)
        rows.append((lv, h, mesh.n_elem, nb, err))
    return rows


def test_fig5_signed_distance(benchmark):
    rows = benchmark.pedantic(run_signed_distance, rounds=1, iterations=1)
    t = ResultTable(
        "fig5_signed_distance",
        "Fig 5b: Linf signed-distance error vs boundary refinement "
        "(dragon-substitute blob)",
    )
    t.row(f"{'level':>6} {'h':>10} {'elems':>8} {'bnd nodes':>10} {'Linf err':>12}")
    for lv, h, ne, nb, err in rows:
        t.row(f"{lv:>6} {h:>10.5f} {ne:>8} {nb:>10} {err:>12.5e}")
    hs = np.array([r[1] for r in rows])
    errs = np.array([r[4] for r in rows])
    rate = fit_rate(hs, errs)
    t.row(f"fitted convergence order: {rate:.2f}  (paper: first order)")
    t.save()
    assert 0.6 < rate < 1.6, "signed-distance error must converge ~first order"
    assert errs[-1] < errs[0]
