"""Ablation — traversal-based vs element-to-node-map MATVEC.

The paper's design choice (§3.5): traverse the tree so elemental nodes
become contiguous, instead of indirect gathers through an
element-to-node map.  Here both are flat array programs over the
operator plan: the map-based path is one sparse gather over every slot
+ batched matmul + scale pass + sparse scatter; the compiled traversal
(the operator every solver applies) is one index read for the identity
elements + one CSR product over the hanging rows + matmul + one
scale-folded CSR product.  This bench times both on the 848- and
18 224-element e2e meshes and requires compiled <= map-based on each,
reports the compiled path's phase breakdown from its merge spans next
to the map-based path's per-kernel seconds, and holds the production
traversal to the recursive tree walk it was derived from
(:mod:`repro.core.traversal_reference`, the test oracle): same answer
to 1e-10, at least 50x faster.
"""

import os
import time

import numpy as np
import pytest

from repro import Domain, build_mesh, obs
from repro.analysis import measured_kernel_points
from repro.core.matvec import (
    MapBasedMatVec,
    TraversalMatVec,
    TraversalPlan,
    traversal_matvec,
)
from repro.core.traversal_reference import recursive_traversal_matvec
from repro.geometry import SphereCarve
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


#: (sphere radius, base level, boundary level) in the unit cube: the
#: largest ``traversal_apply`` mesh and the ``matfree_solve`` mesh
ABLATION_MESHES = ((0.2, 3, 4), (0.3, 4, 6))


def _fastest(op, u, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        op(u)
        best = min(best, time.perf_counter() - t0)
    return best


def test_traversal_vs_map_ablation():
    """The paper's column: map-based vs compiled, whole apply and by
    phase.  Phases of the compiled path are its merge spans; the
    map-based path has no phases, so its three kernels stand in
    (gather ~ top-down, elem_apply ~ leaf incl. the scale pass,
    scatter ~ bottom-up)."""
    repeats = 50
    t = ResultTable(
        "ablation_matvec",
        "Ablation: map-based vs compiled traversal MATVEC "
        f"(fastest of {repeats} applies; phases: mean over {repeats} traced applies)",
    )
    # unpinned, the map path's `u_loc @ K_ref.T` (strided right operand)
    # goes multi-threaded and loses ~10x on the large mesh; the e2e
    # harness pins to 1, so that is the setting the committed rows use
    t.row(f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS', 'unset')}")
    for radius, base, boundary in ABLATION_MESHES:
        mesh = build_mesh(
            Domain(SphereCarve([0.5, 0.5, 0.5], radius)), base, boundary, p=1
        )
        u = np.random.default_rng(0).standard_normal(mesh.n_nodes)
        ops = {"map-based": MapBasedMatVec(mesh), "compiled": TraversalMatVec(mesh)}
        y = {name: op(u) for name, op in ops.items()}  # warm-up, compiles
        seconds = {name: _fastest(op, u, repeats) for name, op in ops.items()}
        obs.reset()
        obs.enable()
        try:
            for _ in range(repeats):
                for op in ops.values():
                    op(u)
            spans = obs.summary()["spans"]
            kernels = {m.kernel: m.seconds / m.calls
                       for m in measured_kernel_points()}
        finally:
            obs.disable()
        phases = {
            name: spans[f"matvec.traversal/matvec.{name}"]["duration"] / repeats
            for name in ("top_down", "leaf", "bottom_up")
        }
        err = np.abs(y["compiled"] - y["map-based"]).max()
        t.row(f"{mesh.n_elem} elements, {mesh.n_nodes} DOFs: "
              f"max |compiled - map| = {err:.3e}")
        t.row(f"  map-based {seconds['map-based'] * 1e3:8.4f} ms/apply  "
              f"(gather {kernels['gather'] * 1e3:.4f}, elem_apply "
              f"{kernels['elem_apply'] * 1e3:.4f}, scatter "
              f"{kernels['scatter'] * 1e3:.4f}; "
              f"{ops['map-based'].flops()} flop, "
              f"{ops['map-based'].traffic_bytes()} B)")
        t.row(f"  compiled  {seconds['compiled'] * 1e3:8.4f} ms/apply  "
              f"(top-down {phases['top_down'] * 1e3:.4f}, leaf "
              f"{phases['leaf'] * 1e3:.4f}, bottom-up "
              f"{phases['bottom_up'] * 1e3:.4f}; "
              f"{ops['compiled'].flops()} flop, "
              f"{ops['compiled'].traffic_bytes()} B)")
        t.row(f"  map / compiled = {seconds['map-based'] / seconds['compiled']:.2f}x")
        t.record(n_elem=mesh.n_elem, seconds=seconds, phases=phases,
                 map_kernels=kernels, max_abs_diff=float(err))
        assert np.allclose(y["compiled"], y["map-based"], atol=1e-10)
        assert seconds["compiled"] <= seconds["map-based"], (
            f"compiled apply slower than map-based on {mesh.n_elem} elements"
        )
    t.save()


def test_backend_ablation(mesh):
    """Production traversal MATVEC against the recursive oracle.

    Times the production (plan-compiled) traversal and the recursive
    oracle once on the same plan, asserts repeated runs are
    bit-identical and agree with the oracle to 1e-10, records the
    achieved fraction-of-peak per kernel into the bench.v1 sidecar, and
    requires the production traversal to beat the oracle by >= 50x."""
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    plan = TraversalPlan(mesh)
    mv = MapBasedMatVec(mesh)
    repeats = 20

    t = ResultTable(
        "backend_ablation_matvec",
        f"Production vs oracle: serial traversal MATVEC "
        f"({mesh.n_elem} elements, {mesh.n_nodes} DOFs, {repeats} applies)",
    )
    t0 = time.perf_counter()
    y_oracle = recursive_traversal_matvec(mesh, u, plan=plan)
    t_oracle = time.perf_counter() - t0
    t.row(f"{'oracle':10s}: {t_oracle * 1e3:9.3f} ms/apply (recursive walk, 1 apply)")
    t.record(column="oracle", seconds_per_apply=t_oracle)

    obs.reset()
    obs.enable()
    try:
        y0 = traversal_matvec(mesh, u, plan=plan)  # warm-up, compiles
        y = traversal_matvec(mesh, u, plan=plan)
        assert y0.tobytes() == y.tobytes(), "repeated runs are not bit-identical"
        t0 = time.perf_counter()
        for _ in range(repeats):
            y = traversal_matvec(mesh, u, plan=plan)
        dt = (time.perf_counter() - t0) / repeats
        mv(u)  # exercise gather/elem_apply/scatter counters too
        measured = measured_kernel_points()
    finally:
        obs.disable()
    speedup = t_oracle / dt
    t.row(f"{'production':10s}: {dt * 1e3:9.3f} ms/apply "
          f"({speedup:7.1f}x vs oracle, traced)")
    t.record(column="production_vs_oracle", seconds_per_apply=dt,
             repeats=repeats, speedup=speedup)
    assert np.allclose(y, y_oracle, atol=1e-10), (
        "production traversal disagrees with the recursive oracle"
    )
    # achieved fraction-of-peak per kernel (measured by the facade
    # counters of the runs above)
    for m in measured:
        t.row(
            f"  {m.kernel:10s} AI={m.arithmetic_intensity:6.3f} "
            f"achieved={m.achieved_gflops / 1e9:7.3f} GFLOP/s "
            f"fraction-of-peak={m.fraction_of_peak:.4f}"
        )
        t.record(column="measured_kernel", **m.to_doc())
    t.save()
    assert speedup >= 50.0, (
        f"production traversal only {speedup:.1f}x over the recursive "
        f"oracle (< 50x)"
    )


def test_plan_reuse_vs_rebuild(mesh):
    """Operator-plan ablation: 50 repeated distributed MATVEC applies
    with the cached :class:`ExchangePlan` vs rebuilding the plan on
    every call (re-deriving the exchange index arrays and recompiling
    every rank's apply program per apply).  The cached row is the
    distributed apply's cost: each rank runs its compiled program."""
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
