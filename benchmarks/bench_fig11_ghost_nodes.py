"""E9 — Fig. 11: ghost-node distribution and η = N_G/N_L vs rank count.

For the carved-sphere mesh the per-rank ghost-node mean/std measures
the communication volume, and the ratio η of ghost to owned-referenced
nodes measures how much communication can hide behind computation.
The paper derives η ∝ 1/(p+1) (surface nodes grow as (p+1)^(d-1),
volume nodes as (p+1)^d) and observes the quadratic curves below the
linear ones — reproduced here from real partitions of real meshes.
"""

import numpy as np

from repro import Domain, build_mesh
from repro.geometry import SphereCarve
from repro.parallel import analyze_partition, partition_mesh

from _util import ResultTable


def run_ghost_analysis():
    dom = Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)
    meshes = {p: build_mesh(dom, 4, 8, p=p) for p in (1, 2)}
    ranks = (2, 4, 8, 16, 32, 64)
    out = {}
    for p, mesh in meshes.items():
        rows = []
        for nranks in ranks:
            splits = partition_mesh(mesh, nranks, load_tol=0.1)
            layout = analyze_partition(mesh, splits)
            g = layout.ghost_counts
            rows.append((nranks, float(g.mean()), float(g.std()),
                         float(layout.eta().mean())))
        out[p] = rows
    return out


def test_fig11_ghost_nodes(benchmark):
    out = benchmark.pedantic(run_ghost_analysis, rounds=1, iterations=1)
    t = ResultTable(
        "fig11_ghost_nodes",
        "Fig 11: ghost nodes (mean/std) and eta = N_G/N_L per rank count",
    )
    for p, rows in out.items():
        t.row(f"-- p={p}")
        t.row(f"{'ranks':>6} {'ghost mean':>11} {'ghost std':>10} {'eta':>8}")
        for nranks, gm, gs, eta in rows:
            t.row(f"{nranks:>6} {gm:>11.1f} {gs:>10.1f} {eta:>8.4f}")
    t.row("paper: eta grows with ranks; eta(quadratic) < eta(linear), "
          "ratio ~ (p+1) factor from surface/volume scaling")
    t.save()
    for p, rows in out.items():
        etas = [r[3] for r in rows]
        assert etas[-1] > etas[0], "eta must grow with rank count"
        gms = [r[1] for r in rows]
        assert gms[0] > 0
    # the paper's p-scaling: eta_linear / eta_quadratic ≈ (2+1)/(1+1) = 1.5
    ratio = np.mean(
        [l[3] / q[3] for l, q in zip(out[1], out[2])]
    )
    assert 1.1 < ratio < 2.2, f"eta ratio {ratio} outside the 1/(p+1) trend"
