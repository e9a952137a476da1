"""E5/E6 — Figs. 7-8 + Table 3 (channel): strong & weak MATVEC scaling.

The 16×1×1 elongated channel carved from a 16³ cube, refined at the
walls — the boundary-dominated workload of §4.5.1.  For every virtual
rank count the partition, ghost structure and message counts are
*measured* from the real mesh; phase times (top-down, leaf, bottom-up,
comm, malloc) come from the calibrated machine model (DESIGN.md).  The
distributed MATVEC itself is executed and verified against the serial
compiled apply.  Paper efficiencies: strong 81% (linear) / 90% (quadratic) over
128×; weak 82% / 86%.  Quadratic scales better than linear because
η = N_ghost/N_owned ∝ 1/(p+1).
"""

import numpy as np

from repro import Domain, build_mesh, obs
from repro.core.matvec import traversal_matvec
from repro.geometry import BoxRetain
from repro.parallel import (
    FRONTERA,
    SimComm,
    analyze_partition,
    distributed_matvec,
    model_matvec,
    partition_mesh,
    rank_statistics,
)

from _util import ResultTable


def channel_domain(length=16.0):
    return Domain(
        BoxRetain([0, 0, 0], [length, 1, 1],
                  domain=([0, 0, 0], [length, length, length])),
        scale=length,
    )


def scaling_run(mesh, ranks_list, verify_ranks=()):
    """Measured partition stats + modelled times per rank count.

    The modelled phase breakdown is published as ``matvec.<phase>``
    spans under one ``matvec.modelled`` span per rank count; the
    reported Fig 7 percentages are read back from those spans
    (requires :mod:`repro.obs` to be enabled by the caller).
    """
    rows = []
    serial = None
    for nranks in ranks_list:
        splits = partition_mesh(mesh, nranks, load_tol=0.1)
        layout = analyze_partition(mesh, splits)
        stats = rank_statistics(mesh, layout)
        phases = model_matvec(stats, p=mesh.p, dim=mesh.dim, machine=FRONTERA)
        with obs.span("matvec.modelled", ranks=nranks, p=mesh.p):
            phase_spans = {
                k: obs.record(f"matvec.{k}", float(v))
                for k, v in phases.breakdown().items()
            }
        if nranks in verify_ranks:
            if serial is None:
                rng = np.random.default_rng(0)
                u = rng.standard_normal(mesh.n_nodes)
                serial = (u, traversal_matvec(mesh, u))
            u, ref = serial
            dist = distributed_matvec(mesh, layout, u, SimComm(nranks))
            assert np.abs(dist - ref).max() <= 1e-14 * np.abs(ref).max()
        rows.append((nranks, stats, phases, phase_spans))
    return rows


def _report_strong(t, rows, label):
    t.row(f"-- strong scaling, {label}")
    t.row(f"{'ranks':>6} {'elem/rank':>10} {'t_matvec':>10} {'cost(t*P)':>10} "
          f"{'eff':>6}  {'breakdown td/leaf/bu/comm/malloc (%)':>38}")
    t0 = None
    effs = []
    for nranks, stats, ph, phase_spans in rows:
        tt = ph.time
        t0 = t0 or tt * nranks
        eff = t0 / (tt * nranks)
        effs.append(eff)
        # Fig 7 breakdown straight from the recorded obs spans
        br = {k: sp.duration for k, sp in phase_spans.items()}
        tot = sum(br.values())
        pct = "/".join(f"{100 * br[k] / tot:.0f}" for k in
                       ("top_down", "leaf", "bottom_up", "comm", "malloc"))
        t.row(f"{nranks:>6} {stats.n_elem.mean():>10.0f} {tt * 1e3:>8.2f}ms "
              f"{ph.parallel_cost() * 1e3:>8.1f}ms {eff:>6.2f}  {pct:>38}")
        t.record(label=label, ranks=nranks, t_matvec=tt, efficiency=eff, **br)
    return effs


def test_channel_strong_scaling(benchmark):
    dom = channel_domain()
    meshes = benchmark.pedantic(
        lambda: {p: build_mesh(dom, 6, 8, p=p) for p in (1, 2)},
        rounds=1, iterations=1,
    )
    t = ResultTable(
        "fig7_channel_strong",
        "Fig 7 + Table 3: channel strong scaling (parallel cost; model times "
        "from measured partitions)",
    )
    ranks = (1, 2, 4, 8, 16, 32, 64, 128)
    effs = {}
    obs.reset()
    obs.enable()
    try:
        for p, mesh in meshes.items():
            t.row(f"mesh: {mesh.n_elem} elements, {mesh.n_nodes} DOFs (p={p})")
            rows = scaling_run(mesh, ranks, verify_ranks=(8,))
            effs[p] = _report_strong(t, rows, f"p={p}")
    finally:
        obs.disable()
    t.row("paper: 81% (linear) and 90% (quadratic) efficiency at 128x")
    t.save()
    assert effs[1][-1] > 0.5, "linear strong efficiency collapsed"
    assert effs[2][-1] > effs[1][-1] - 0.05, \
        "quadratic should scale at least as well as linear"
    # DOF ratio ~8x with identical element partitions (the paper's setup)
    assert meshes[2].n_nodes / meshes[1].n_nodes > 6


def test_channel_weak_scaling(benchmark):
    dom = channel_domain()
    grain = 2200  # elements per rank (paper: 35K/core, scaled down)
    levels = [(5, 7), (6, 8), (7, 9)]

    def build_all():
        return [
            {p: build_mesh(dom, b, bl, p=p) for p in (1, 2)} for b, bl in levels
        ]

    series = benchmark.pedantic(build_all, rounds=1, iterations=1)
    t = ResultTable(
        "fig8_channel_weak",
        "Fig 8 + Table 3: channel weak scaling (fixed grain per rank)",
    )
    effs = {}
    for p in (1, 2):
        t.row(f"-- p={p}")
        t.row(f"{'ranks':>6} {'elements':>9} {'elem/rank':>10} {'DOFs':>9} "
              f"{'t_matvec':>10} {'eff':>6}")
        t0 = None
        eff = []
        for meshes in series:
            mesh = meshes[p]
            nranks = max(1, round(mesh.n_elem / grain))
            splits = partition_mesh(mesh, nranks, load_tol=0.1)
            layout = analyze_partition(mesh, splits)
            stats = rank_statistics(mesh, layout)
            ph = model_matvec(stats, p=p, dim=3, machine=FRONTERA)
            tt = ph.time
            t0 = t0 or tt
            eff.append(t0 / tt)
            t.row(f"{nranks:>6} {mesh.n_elem:>9} {mesh.n_elem / nranks:>10.0f} "
                  f"{mesh.n_nodes:>9} {tt * 1e3:>8.2f}ms {eff[-1]:>6.2f}")
        effs[p] = eff
    t.row("paper: weak efficiency 82% (linear) / 86% (quadratic) at 512x")
    t.save()
    assert effs[1][-1] > 0.5 and effs[2][-1] > 0.5
