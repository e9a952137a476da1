"""E14 — Table 5: classroom — immersed vs carved mesh and solve cost.

The classroom scene (desks, monitors, mannequins, instructor) meshed
both ways.  Reported per refinement case: active element counts, the
element excess f_excess of the immersed mesh, measured mesh-construction
wall time for both pipelines, and the modelled solve time (the
element-count-proportional part the paper's Table 5 shows; mannequins
have a large surface-to-volume ratio, so the speedup is milder than the
channel case — the paper's ≈1.5× element excess and ≈2-3× time gap).
"""

import time

import numpy as np

from repro import Domain, build_mesh
from repro.baselines import ImmersedPredicate
from repro.geometry import CarveUnion, ClassroomScene
from repro.geometry.classroom import ROOM_X
from repro.parallel import FRONTERA, analyze_partition, model_matvec, partition_mesh, rank_statistics

from _util import ResultTable

NS_DOFS = 4


def _immersed_classroom_domain(scene):
    """The IMGA comparator: the room shell remains carved (the paper's
    background grid is the room box) but the furniture/people are
    *immersed* — their interiors stay in the mesh as IN elements."""
    return Domain(
        CarveUnion([scene.room, ImmersedPredicate(scene.objects)]),
        scale=ROOM_X,
    )


def _imga_band_refine(scene, boundary_level, band=1.0):
    """IMGA-style both-sides band refinement near the object surfaces."""
    objects = scene.objects

    def refine(frontier, labels):
        lo, hi = frontier.physical_bounds(ROOM_X)
        ctr = 0.5 * (lo + hi)
        diag = np.linalg.norm(hi - lo, axis=1)
        d = np.abs(objects.boundary_distance(ctr))
        return np.where(d <= band * diag, boundary_level, 0)

    return refine


def run_table5():
    scene = ClassroomScene(n_rows=2, n_cols=3, with_monitors=True)
    dom = scene.domain()
    imm_dom = _immersed_classroom_domain(scene)
    cases = [(4, 5), (4, 6), (5, 6)]  # paper: base 6-7, levels 8-11
    rows = []
    for base, bnd in cases:
        dom.reset_query_counters()
        t0 = time.perf_counter()
        carved = build_mesh(dom, base, bnd, p=1)
        t_carved = time.perf_counter() - t0
        q_carved = dom.cell_queries + dom.point_queries
        imm_dom.reset_query_counters()
        t0 = time.perf_counter()
        imm = build_mesh(imm_dom, base, bnd, p=1,
                         extra_refine=_imga_band_refine(scene, bnd))
        t_imm = time.perf_counter() - t0
        q_imm = imm_dom.cell_queries + imm_dom.point_queries
        f_excess = imm.n_elem / carved.n_elem

        def solve_model(mesh, nranks=32):
            splits = partition_mesh(mesh, nranks, load_tol=0.1)
            layout = analyze_partition(mesh, splits)
            stats = rank_statistics(mesh, layout)
            ph = model_matvec(stats, p=1, dim=3, machine=FRONTERA,
                              dofs_per_node=NS_DOFS)
            return ph.time * 300  # ~300 MATVECs per nonlinear solve

        rows.append(
            (base, bnd, carved.n_elem, imm.n_elem, f_excess,
             t_carved, t_imm, solve_model(carved), solve_model(imm),
             q_carved, q_imm)
        )
    return rows


def test_table5_classroom(benchmark):
    rows = benchmark.pedantic(run_table5, rounds=1, iterations=1)
    t = ResultTable(
        "table5_classroom",
        "Table 5: classroom — immersed vs carved (mesh construction measured, "
        "solve modelled at 32 ranks)",
    )
    t.row(f"{'base':>5} {'bnd':>4} {'carved el':>10} {'immersed el':>11} "
          f"{'f_excess':>9} {'mesh C(s)':>10} {'mesh I(s)':>10} "
          f"{'solve C(s)':>11} {'solve I(s)':>11} {'InOut C':>9} {'InOut I':>9}")
    for base, bnd, ce, ie, fx, tc, ti, sc, si, qc, qi in rows:
        t.row(f"{base:>5} {bnd:>4} {ce:>10} {ie:>11} {fx:>9.2f} "
              f"{tc:>10.2f} {ti:>10.2f} {sc:>11.3f} {si:>11.3f} "
              f"{qc:>9} {qi:>9}")
    t.row("paper: f_excess 1.43-1.64; mesh ~2.2x and solve ~2.8x faster "
          "carved; the In-Out test count (ray tracing in the paper) "
          "dominates mesh-generation cost for these high-area objects")
    t.save()
    for base, bnd, ce, ie, fx, tc, ti, sc, si, qc, qi in rows:
        assert fx > 1.15, "immersing the classroom must cost extra elements"
        assert si > sc, "carved solve must be cheaper"
        assert qi > qc, "the immersed pipeline performs more In-Out tests"
    # the paper's magnitude band for f_excess
    assert any(1.3 < r[4] < 2.2 for r in rows)
