"""Ablation — traversal-based vs element-to-node-map MATVEC.

The paper's design choice (§3.5): traverse the tree so elemental nodes
become contiguous, instead of indirect gathers through an
element-to-node map.  Here both are flat array programs over the
operator plan: the map-based path is one sparse gather + batched matmul
+ sparse scatter, the production traversal one index gather + matmul +
``bincount`` per refinement level over the plan's compiled tables.
This bench times both (pytest-benchmark the map-based one), records the
traversal's phase breakdown as measured on the production path, asserts
the two agree to machine precision, and holds the production traversal
of every backend to the recursive tree walk it was derived from
(:mod:`repro.core.traversal_reference`, the test oracle): same answer
to 1e-10, at least 50x faster.
"""

import time

import numpy as np
import pytest

from repro import Domain, build_mesh, obs
from repro.analysis import measured_kernel_points
from repro.core.matvec import MapBasedMatVec, TraversalPlan, traversal_matvec
from repro.core.traversal_reference import recursive_traversal_matvec
from repro.geometry import SphereCarve
from repro.kernels import available_backends, backend_names, use_backend
from repro.parallel import (
    SimComm,
    analyze_partition,
    distributed_matvec,
    partition_mesh,
)
from repro.parallel.ghost import ExchangePlan, exchange_plan

from _util import ResultTable


@pytest.fixture(scope="module")
def mesh():
    dom = Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)
    return build_mesh(dom, 4, 7, p=1)


def test_map_based_matvec_speed(benchmark, mesh):
    mv = MapBasedMatVec(mesh)
    u = np.linspace(0, 1, mesh.n_nodes)
    benchmark(mv, u)


def test_traversal_vs_map_ablation(benchmark, mesh):
    mv = MapBasedMatVec(mesh)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    plan = TraversalPlan(mesh)
    traversal_matvec(mesh, u, plan=plan)  # compiles the plan's tables

    obs.reset()
    obs.enable()
    try:
        y_tr = benchmark.pedantic(
            lambda: traversal_matvec(mesh, u, plan=plan),
            rounds=1, iterations=1,
        )
    finally:
        obs.disable()
    phases = {
        p.split("/")[-1]: s
        for p, s in obs.summary()["spans"].items()
        if p.startswith("matvec.traversal/")
    }
    y_map = mv(u)
    t = ResultTable(
        "ablation_matvec",
        f"Ablation: traversal vs map-based MATVEC "
        f"({mesh.n_elem} elements, {mesh.n_nodes} DOFs)",
    )
    t.row(f"max |traversal - map| = {np.abs(y_tr - y_map).max():.3e}")
    t.row("traversal phases: " + ", ".join(
        f"{name.removeprefix('matvec.')} {phases[name]['duration'] * 1e3:.3f} ms"
        for name in ("matvec.top_down", "matvec.leaf", "matvec.bottom_up")
    ))
    t.row("(phases measured on the production flat traversal: top-down = slot "
          "gather + hanging interpolation, leaf = dense apply, bottom-up = "
          "accumulation)")
    for name, s in phases.items():
        t.record(phase=name, seconds=s["duration"], count=s["count"],
                 **s["counters"])
    t.save()
    assert np.allclose(y_tr, y_map, atol=1e-10)
    assert phases["matvec.top_down"]["duration"] > 0
    assert phases["matvec.leaf"]["duration"] > 0


def test_backend_ablation(mesh):
    """Kernel-backend ablation on the serial traversal MATVEC.

    Times the production (flat, plan-compiled) traversal under each
    registered :mod:`repro.kernels` backend on the same plan and the
    recursive oracle once, asserts same-backend runs are bit-identical
    and every backend agrees with the oracle to 1e-10, records the
    achieved fraction-of-peak per kernel per backend into the bench.v1
    sidecar, and requires every backend's production traversal to beat
    the oracle by >= 50x.  The per-backend columns are reported
    numbers, not a ranking gate."""
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    plan = TraversalPlan(mesh)
    mv = MapBasedMatVec(mesh)
    repeats = 20
    avail = available_backends()

    t = ResultTable(
        "backend_ablation_matvec",
        f"Kernel backends: serial traversal MATVEC "
        f"({mesh.n_elem} elements, {mesh.n_nodes} DOFs, {repeats} applies)",
    )
    t0 = time.perf_counter()
    y_oracle = recursive_traversal_matvec(mesh, u, plan=plan)
    t_oracle = time.perf_counter() - t0
    t.row(f"{'oracle':8s}: {t_oracle * 1e3:9.3f} ms/apply (recursive walk, 1 apply)")
    t.record(column="oracle", seconds_per_apply=t_oracle)

    results, timings = {}, {}
    obs.reset()
    obs.enable()
    try:
        for name in backend_names():
            if not avail[name]:
                t.row(f"{name:8s}: skipped (backend unavailable)")
                t.record(column="backend", backend=name, available=False)
                continue
            with use_backend(name):
                y0 = traversal_matvec(mesh, u, plan=plan)  # warm-up / jit
                y1 = traversal_matvec(mesh, u, plan=plan)
                assert y0.tobytes() == y1.tobytes(), (
                    f"{name}: same-backend runs are not bit-identical"
                )
                t0 = time.perf_counter()
                for _ in range(repeats):
                    y1 = traversal_matvec(mesh, u, plan=plan)
                dt = (time.perf_counter() - t0) / repeats
                mv(u)  # exercise gather/elem_apply/scatter counters too
            results[name], timings[name] = y1, dt
            t.row(f"{name:8s}: {dt * 1e3:9.3f} ms/apply "
                  f"({t_oracle / dt:7.1f}x vs oracle)")
            t.record(
                column="backend", backend=name, available=True,
                seconds_per_apply=dt, repeats=repeats,
                speedup_vs_oracle=t_oracle / dt,
            )
    finally:
        obs.disable()

    for name, y in results.items():
        assert np.allclose(y, y_oracle, atol=1e-10), (
            f"{name} disagrees with the recursive oracle beyond tolerance"
        )
    # achieved fraction-of-peak per kernel per backend (measured by the
    # facade counters of the runs above)
    for m in measured_kernel_points():
        t.row(
            f"  {m.kernel:10s} [{m.backend:7s}] AI={m.arithmetic_intensity:6.3f} "
            f"achieved={m.achieved_gflops / 1e9:7.3f} GFLOP/s "
            f"fraction-of-peak={m.fraction_of_peak:.4f}"
        )
        t.record(column="measured_kernel", **m.to_doc())

    slowest = max(timings, key=timings.get)
    speedup = t_oracle / timings[slowest]
    t.row(f"production traversal vs recursive oracle: >= {speedup:.1f}x "
          f"(slowest backend: {slowest}); every backend runs the same flat "
          f"slot-table traversal, numpy is the default")
    t.record(column="production_vs_oracle", slowest_backend=slowest,
             speedup=speedup)
    t.save()
    assert speedup >= 50.0, (
        f"production traversal under {slowest} only {speedup:.1f}x over the "
        f"recursive oracle (< 50x)"
    )


def test_plan_reuse_vs_rebuild(mesh):
    """Operator-plan ablation: 50 repeated distributed MATVEC applies
    with the cached :class:`ExchangePlan` vs rebuilding the plan on
    every call (the pre-plan-layer behaviour, which re-derived exchange
    dicts and re-CSR'd the gather per apply)."""
    nranks, repeats = 8, 50
    layout = analyze_partition(mesh, partition_mesh(mesh, nranks))
    comm = SimComm(nranks)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(mesh.n_nodes)

    plan = exchange_plan(mesh, layout)  # built once, cached on the layout
    y_cached = distributed_matvec(mesh, layout, u, comm, plan=plan)  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        y_cached = distributed_matvec(mesh, layout, u, comm, plan=plan)
    t_cached = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(repeats):
        y_rebuilt = distributed_matvec(
            mesh, layout, u, comm, plan=ExchangePlan(mesh, layout)
        )
    t_rebuild = time.perf_counter() - t0

    speedup = t_rebuild / t_cached
    t = ResultTable(
        "plan_reuse_matvec",
        f"Operator-plan reuse: {repeats} distributed MATVEC applies "
        f"({mesh.n_elem} elements, {nranks} ranks)",
    )
    t.row(f"cached plan   : {t_cached / repeats * 1e3:8.3f} ms/apply")
    t.row(f"rebuild/call  : {t_rebuild / repeats * 1e3:8.3f} ms/apply")
    t.row(f"speedup       : {speedup:.2f}x")
    t.record(
        column="plan_reuse_vs_rebuild",
        nranks=nranks,
        repeats=repeats,
        n_elem=mesh.n_elem,
        cached_seconds=t_cached,
        rebuild_seconds=t_rebuild,
        speedup=speedup,
    )
    t.save()
    assert np.array_equal(y_cached, y_rebuilt)
    assert speedup >= 3.0, f"plan reuse speedup {speedup:.2f}x < 3x"
