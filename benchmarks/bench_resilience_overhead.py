"""Resilience overhead — checkpoint cost, fault-gate tax, recovery latency.

Quantifies what the `repro.resilience` subsystem charges a solve:

* the fault gate on every collective (the per-op schedule check) —
  measured as distributed-MATVEC throughput with and without an
  installed (never-firing) fault schedule;
* checkpoint write/load/restore cost and on-disk volume for the
  Krylov state of the carved-sphere Poisson solve;
* end-to-end recovery latency: failure-free vs injected-crash solves
  of the same problem, including the answer-match check the recovery
  contract promises.

Rows land in ``benchmarks/results/resilience_overhead.{txt,json}``
(bench.v1 sidecar with structured records).
"""

import time

import numpy as np
import pytest

from repro import Domain, build_mesh, obs
from repro.fem.poisson import PoissonProblem
from repro.geometry import SphereCarve
from repro.parallel import (
    SimComm,
    analyze_partition,
    distributed_matvec,
    partition_mesh,
)
from repro.parallel.ghost import exchange_plan
from repro.resilience import FaultSchedule
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.recovery import resilient_poisson_solve

from _util import ResultTable

RANKS = 6


@pytest.fixture(scope="module")
def setup():
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 5, p=1)
    splits = partition_mesh(mesh, RANKS, load_tol=0.1)
    layout = analyze_partition(mesh, splits)
    plan = exchange_plan(mesh, layout)
    return dom, mesh, layout, plan


def test_resilience_overhead(setup, tmp_path):
    dom, mesh, layout, plan = setup
    table = ResultTable(
        "resilience_overhead",
        "Resilience overhead: fault gate, checkpoint cost, recovery latency",
    )
    table.row(f"mesh: {mesh.n_elem} elements, {mesh.n_nodes} DOFs, "
              f"{RANKS} ranks; exchange plan {plan.nbytes()} B resident")

    # -- fault-gate tax on the hot path (distributed MATVEC) ----------
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    reps = 20

    def run_matvecs(schedule):
        comm = SimComm(RANKS)
        comm.install_faults(schedule)
        distributed_matvec(mesh, layout, u, comm, plan=plan)  # warm
        t0 = time.perf_counter()
        for _ in range(reps):
            distributed_matvec(mesh, layout, u, comm, plan=plan)
        return (time.perf_counter() - t0) / reps

    t_plain = run_matvecs(None)
    # a pending-but-never-matching schedule: the worst-case gate check
    sched = FaultSchedule(seed=0).crash_rank(0, at_op=10**9)
    t_gated = run_matvecs(sched)
    tax = (t_gated / t_plain - 1.0) * 100.0
    table.row(f"distributed MATVEC: {t_plain * 1e3:.3f} ms plain, "
              f"{t_gated * 1e3:.3f} ms with armed schedule "
              f"({tax:+.1f}% gate tax)")
    table.record(kind="fault_gate", t_plain_s=t_plain, t_gated_s=t_gated,
                 tax_pct=tax)

    # -- checkpoint write / load / restore ----------------------------
    # the resilient solve's Krylov state: free-length vectors
    n_free = int((~mesh.dirichlet_mask).sum())
    vecs = {k: rng.standard_normal(n_free) for k in ("x", "r", "p")}
    t0 = time.perf_counter()
    path = save_checkpoint(tmp_path / "bench.ckpt.json", mesh, step=1,
                           splits=layout.splits, vectors=vecs, name="bench")
    t_save = time.perf_counter() - t0
    nbytes = path.stat().st_size
    t0 = time.perf_counter()
    ck = load_checkpoint(path)
    t_load = time.perf_counter() - t0
    t0 = time.perf_counter()
    ck.restore(dom)
    t_restore = time.perf_counter() - t0
    table.row(f"checkpoint ({n_free} free nodes): {nbytes} B on disk; "
              f"write {t_save * 1e3:.2f} ms, "
              f"load+verify {t_load * 1e3:.2f} ms, "
              f"full restore {t_restore * 1e3:.2f} ms")
    table.record(kind="checkpoint", n_free=n_free, bytes=nbytes,
                 t_save_s=t_save, t_load_s=t_load, t_restore_s=t_restore)

    # -- end-to-end recovery latency ----------------------------------
    prob = PoissonProblem(mesh, f=1.0)
    obs.reset()
    obs.enable()
    try:
        t0 = time.perf_counter()
        ref = resilient_poisson_solve(
            prob, ranks=RANKS, ckpt_dir=tmp_path / "ref", ckpt_interval=10,
        )
        t_ref = time.perf_counter() - t0
        sched = FaultSchedule(seed=1).crash_rank(2, at_op=30)
        t0 = time.perf_counter()
        res = resilient_poisson_solve(
            prob, ranks=RANKS, ckpt_dir=tmp_path / "faulted",
            ckpt_interval=10, fault_schedule=sched,
        )
        t_faulted = time.perf_counter() - t0
    finally:
        obs.disable()
    assert ref.converged and res.converged
    diff = float(np.abs(res.x - ref.x).max())
    assert diff <= 1e-12
    recovery_s = sum(e.elapsed for e in res.recoveries)
    table.row(f"failure-free solve: {t_ref * 1e3:.1f} ms "
              f"({ref.iterations} its, {ref.checkpoints_written} ckpts)")
    table.row(f"injected-crash solve: {t_faulted * 1e3:.1f} ms "
              f"({len(res.recoveries)} recovery, {recovery_s * 1e3:.1f} ms "
              f"in recovery, answer diff {diff:.1e})")
    table.record(kind="recovery", t_ref_s=t_ref, t_faulted_s=t_faulted,
                 recovery_s=recovery_s, answer_diff=diff,
                 iterations=res.iterations)
    table.save()
