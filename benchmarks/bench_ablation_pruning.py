"""Ablation — proactive pruning vs build-complete-then-filter.

The central §3.2 design choice: prune carved subtrees *during*
construction.  This bench measures actual construction wall time and
octants visited for both pipelines on the same geometry (at a scale
where the complete tree is still buildable), plus the growth of the
gap with channel elongation.
"""

import time

from repro import Domain
from repro.baselines import dendro_style_pipeline
from repro.core.construct import construct_adaptive
from repro.geometry import BoxRetain

from _util import ResultTable


def channel(length):
    return Domain(
        BoxRetain([0, 0, 0], [length, 1, 1],
                  domain=([0, 0, 0], [length] * 3)),
        scale=float(length),
    )


def run_pruning_ablation():
    rows = []
    for length in (4, 16, 64):
        dom = channel(length)
        base, bnd = 6, 7
        t0 = time.perf_counter()
        pruned = construct_adaptive(dom, base, bnd)
        t_pruned = time.perf_counter() - t0
        rep = dendro_style_pipeline(dom, base, bnd, nranks=8)
        rows.append((length, len(pruned), rep.n_complete,
                     rep.active_octants_visited, rep.octants_visited,
                     t_pruned))
    return rows


def test_ablation_pruning(benchmark):
    rows = benchmark.pedantic(run_pruning_ablation, rounds=1, iterations=1)
    t = ResultTable(
        "ablation_pruning",
        "Ablation: proactive pruning vs complete-then-filter "
        "(channel length sweep, base 6 / boundary 7)",
    )
    t.row(f"{'length':>7} {'active el':>10} {'complete el':>12} "
          f"{'visited(pruned)':>16} {'visited(complete)':>18} {'work x':>7}")
    for L, na, nc, va, vc, tp in rows:
        t.row(f"{L:>7} {na:>10} {nc:>12} {va:>16} {vc:>18} {vc / va:>7.1f}")
    t.row("the work gap grows with elongation: pruning pays off more the "
          "more anisotropic the domain")
    t.save()
    gaps = [r[4] / r[3] for r in rows]
    assert gaps[-1] > gaps[0] > 1.0, "pruning advantage must grow with length"
    assert gaps[-1] > 10
