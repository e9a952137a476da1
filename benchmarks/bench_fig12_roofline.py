"""E10 — Fig. 12: roofline of the Poisson elemental MATVEC.

Arithmetic intensity is counted analytically (tensorised FLOPs over the
traversal's byte traffic, the paper's quantities: AI ≈ 0.072 linear,
≈ 0.121 quadratic at ≈ 60 GB/s); the achieved FLOP rate of our numpy
kernel is measured by timing.  The headline property — AI and achieved
rate both *grow with p* because compute scales as O(d(p+1)^(d+1))
while data scales as O((p+1)^d) — is asserted.
"""

from repro import Domain, build_mesh, obs
from repro.analysis import (
    analyze_kernel,
    measured_kernel_points,
    roofline_ceilings,
)
from repro.geometry import BoxRetain, SphereCarve

from _util import ResultTable


def run_roofline():
    dom_c = Domain(
        BoxRetain([0, 0, 0], [16, 1, 1], domain=([0, 0, 0], [16, 16, 16])),
        scale=16.0,
    )
    dom_s = Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)
    points = []
    for name, dom, lv in (("channel", dom_c, (6, 7)), ("sphere", dom_s, (4, 7))):
        for p in (1, 2):
            mesh = build_mesh(dom, lv[0], lv[1], p=p)
            pt = analyze_kernel(mesh)
            points.append((name, pt))
    return points


def run_backend_columns():
    """Achieved kernel rates on the sphere p=1 mesh, measured through
    the repro.kernels facade counters."""
    dom_s = Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)
    mesh = build_mesh(dom_s, 4, 7, p=1)
    obs.reset()
    obs.enable()
    try:
        analyze_kernel(mesh, repeats=3)
        return measured_kernel_points()
    finally:
        obs.disable()


def test_fig12_roofline(benchmark):
    points = benchmark.pedantic(run_roofline, rounds=1, iterations=1)
    ceil = roofline_ceilings()
    t = ResultTable(
        "fig12_roofline",
        "Fig 12: roofline — arithmetic intensity & achieved GFLOP/s",
    )
    t.row(f"machine model: bw = {ceil['memory_bw'] / 1e9:.0f} GB/s, "
          f"peak = {ceil['peak_flops'] / 1e9:.0f} GFLOP/s, "
          f"ridge AI = {ceil['ridge_ai']:.2f}")
    t.row(f"{'mesh':>8} {'p':>3} {'AI (model)':>11} {'bw-bound GF/s':>14} "
          f"{'paper-model GF/s':>17} {'our numpy GF/s':>15} "
          f"{'compiled GF/s':>14} {'AI map|compiled':>16}")
    by_p = {1: [], 2: []}
    for name, pt in points:
        t.row(f"{name:>8} {pt.p:>3} {pt.arithmetic_intensity:>11.3f} "
              f"{pt.bandwidth_bound_gflops / 1e9:>14.2f} "
              f"{pt.model_gflops / 1e9:>17.1f} "
              f"{pt.measured_gflops / 1e9:>15.2f} "
              f"{pt.compiled_gflops / 1e9:>14.2f} "
              f"{pt.map_executed_ai:>8.3f}|{pt.compiled_executed_ai:<7.3f}")
        by_p[pt.p].append(pt)
    t.row("paper: AI 0.072 (linear) / 0.121 (quadratic); achieved "
          "~4 / ~7 GFLOP/s — memory bound")
    # measured per-kernel achieved rates (repro.kernels facade
    # counters) — the achieved half of predicted-vs-achieved
    t.row(f"{'kernel':>12} {'AI (meas)':>10} "
          f"{'achieved GF/s':>14} {'frac-of-peak':>13}")
    measured = run_backend_columns()
    for m in measured:
        t.row(f"{m.kernel:>12} "
              f"{m.arithmetic_intensity:>10.3f} "
              f"{m.achieved_gflops / 1e9:>14.3f} "
              f"{m.fraction_of_peak:>13.4f}")
        t.record(column="measured_kernel", **m.to_doc())
    t.save()
    assert measured, "kernel facade published no measured counters"
    assert all(0.0 <= m.fraction_of_peak <= 1.5 for m in measured)
    ai1 = by_p[1][0].arithmetic_intensity
    ai2 = by_p[2][0].arithmetic_intensity
    assert ai2 > ai1, "AI must grow with polynomial order"
    assert 0.03 < ai1 < 0.3 and 0.05 < ai2 < 0.5, "AI in the paper's regime"
    # memory bound: both AIs sit left of the ridge point
    assert ai2 < ceil["ridge_ai"]
    # our batched kernel should also run faster per-FLOP at p=2
    assert (by_p[2][0].measured_gflops > by_p[1][0].measured_gflops)
