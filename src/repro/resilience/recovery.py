"""Self-healing solver drivers: detect faults, shrink, restore, resume.

Two drivers exercise the full resilience stack end-to-end:

* :func:`resilient_poisson_solve` — the matrix-free Poisson solve with
  its apply through :func:`repro.parallel.dist_matvec.distributed_matvec`.
  When an injected :class:`~repro.resilience.faults.RankFailure`
  surfaces from a ghost-exchange leg, it contracts the partition onto
  the survivors (:func:`repro.parallel.partition.shrink_splits`),
  reloads the latest ``ckpt.v1`` snapshot from *disk* — in a real rank
  loss the dead rank's vector shards are gone — and resumes.

* :class:`ResilientNSDriver` — a checkpointed Navier–Stokes
  time-stepping driver.  Each step opens with a heartbeat collective
  (the failure-detection point of the simulated communicator); a rank
  crash rolls the run back to the latest checkpoint and replays.  The
  stepper itself is hardened separately with the dt-halving retry of
  :meth:`repro.fem.navier_stokes.NavierStokesProblem.advance`.

Recovery cost is observable: each recovery opens a
``resilience.recover`` span and bumps ``resilience.recoveries`` /
``resilience.recovery_ms``, landing next to the checkpoint byte
counters in the ``run.v1`` artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.plan import operator_context
from ..obs import add as obs_add
from ..obs import span
from ..parallel.dist_matvec import distributed_matvec
from ..parallel.ghost import analyze_partition, exchange_plan
from ..parallel.partition import partition_mesh, shrink_splits
from ..parallel.simmpi import SimComm
from ..solvers.krylov import _CGState, _tolerance
from .checkpoint import (
    CheckpointCorruption,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .faults import RankFailure, SolverBreakdown

__all__ = [
    "RecoveryEvent",
    "ResilientSolveResult",
    "ResilientNSResult",
    "resilient_poisson_solve",
    "ResilientNSDriver",
]


@dataclass
class RecoveryEvent:
    """One completed failure → shrink → restore → resume cycle."""

    kind: str                   # "rank_failure"
    op_index: int               # communicator collective index at detection
    failed_ranks: tuple[int, ...]
    ranks_after: int
    restored_step: int          # checkpoint step resumed from
    elapsed: float              # seconds spent recovering

    def describe(self) -> str:
        return (
            f"{self.kind} of ranks {list(self.failed_ranks)} at op "
            f"{self.op_index}: resumed from step {self.restored_step} on "
            f"{self.ranks_after} ranks in {self.elapsed * 1e3:.1f} ms"
        )


@dataclass
class ResilientSolveResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool
    reason: str
    recoveries: list[RecoveryEvent]
    checkpoints_written: int
    ranks_final: int


@dataclass
class ResilientNSResult:
    velocity: np.ndarray
    pressure: np.ndarray
    steps: int
    residual: float
    recoveries: list[RecoveryEvent]
    checkpoints_written: int
    ranks_final: int


def _recover(mesh, comm, layout, ckpt_dir, name, exc: RankFailure):
    """Shared shrink-and-restore after ``exc``: returns (comm, layout,
    plan, ckpt, event)."""
    t0 = time.perf_counter()
    with span("resilience.recover") as osp:
        failed = tuple(sorted(comm.failed_ranks))
        survivors = comm.size - len(failed)
        if survivors < 1:
            raise SolverBreakdown("recovery", "no_survivors",
                                  f"all {comm.size} ranks failed")
        layout = analyze_partition(mesh, shrink_splits(layout.splits, failed))
        plan = exchange_plan(mesh, layout)
        new_comm = SimComm(survivors)
        # the schedule is one-shot per fault, so handing it on lets later
        # scheduled faults still hit the rebuilt communicator; assigned,
        # not installed: faults on the ranks the shrink removed never fire
        new_comm.fault_schedule = comm.fault_schedule
        path = latest_checkpoint(ckpt_dir, name)
        if path is None:
            raise SolverBreakdown("recovery", "no_checkpoint",
                                  f"nothing to restore in {ckpt_dir}")
        ckpt = load_checkpoint(path)
        ctx = operator_context(mesh)
        if ckpt.fingerprint != ctx.fingerprint:
            raise CheckpointCorruption(
                f"{path}: checkpoint fingerprint {ckpt.fingerprint[:12]}… "
                f"does not match live mesh {ctx.fingerprint[:12]}…"
            )
        osp.add("failed_ranks", len(failed))
        osp.add("restored_step", ckpt.step)
    elapsed = time.perf_counter() - t0
    obs_add("resilience.recoveries", 1)
    obs_add("resilience.recovery_ms", elapsed * 1e3)
    event = RecoveryEvent("rank_failure", exc.op_index, failed, survivors,
                          ckpt.step, elapsed)
    return new_comm, layout, plan, ckpt, event


def resilient_poisson_solve(
    problem,
    *,
    ranks: int = 8,
    ckpt_dir,
    ckpt_interval: int = 10,
    fault_schedule=None,
    rtol: float = 1e-12,
    atol: float = 1e-12,
    maxiter: int | None = None,
    max_recoveries: int = 2,
    name: str = "poisson",
) -> ResilientSolveResult:
    """``PoissonProblem.solve(solver="matrix-free")`` on the simulated
    communicator, with checkpoint/restart.

    The same :class:`~repro.solvers.system.FreeSystem`
    (:meth:`~repro.fem.poisson.PoissonProblem.free_system`: load,
    Jacobi preconditioner, lifted boundary data, ``maxiter``), the same
    CG recurrence (:mod:`repro.solvers.krylov`) and the serial solve's
    ``atol``; only the operator differs.  It applies a
    free vector through :func:`distributed_matvec` in a zero-filled
    full-length array and reads the result back on the free rows, so
    one rank reproduces the serial solve bit for bit.

    The Krylov state ``(x, r, p, rz, rnorm, it)`` (free-length vectors)
    is checkpointed at the zero iterate — ``r = b``, before any
    collective — and every ``ckpt_interval`` iterations.  An injected
    rank crash shrinks the partition onto the survivors, reloads the
    latest checkpoint from disk and resumes, up to ``max_recoveries``
    times.
    """
    mesh = problem.mesh
    system, b = problem.free_system()
    free = system.bc.free_idx

    ckpt_dir = Path(ckpt_dir)
    layout = analyze_partition(mesh, partition_mesh(mesh, ranks, load_tol=0.1))
    plan = exchange_plan(mesh, layout)
    comm = SimComm(ranks)
    comm.install_faults(fault_schedule)

    if maxiter is None:
        maxiter = system.maxiter
    tol = _tolerance(b, rtol, atol)
    recoveries: list[RecoveryEvent] = []
    ckpts_written = 0

    def apply_free(v):
        # reads layout / comm / plan at call time: a recovery rebinds them
        u = np.zeros(mesh.n_nodes)
        u[free] = v
        return distributed_matvec(mesh, layout, u, comm, plan=plan)[free]

    def checkpoint():
        nonlocal ckpts_written
        save_checkpoint(
            ckpt_dir / f"{name}_step{s.it:06d}.ckpt.json", mesh,
            step=s.it, splits=layout.splits,
            vectors={"x": s.x, "r": s.r, "p": s.p},
            scalars={"rz": s.rz, "it": float(s.it), "rnorm": s.rnorm},
            name=name,
        )
        ckpts_written += 1

    with span("resilience.solve", case=name) as osp:
        s = _CGState(apply_free, system.M,
                     np.zeros(len(free)), b.copy())  # r = b − A·0, no apply
        checkpoint()
        reason = None
        while reason is None and s.rnorm > tol and s.it < maxiter:
            try:
                reason = s.step(tol)
            except RankFailure as exc:
                if len(recoveries) >= max_recoveries:
                    raise
                comm, layout, plan, ckpt, event = _recover(
                    mesh, comm, layout, ckpt_dir, name, exc)
                recoveries.append(event)
                s.x, s.r, s.p = (ckpt.vector(k) for k in ("x", "r", "p"))
                s.rz, s.rnorm = ckpt.scalars["rz"], ckpt.scalars["rnorm"]
                s.it = int(ckpt.scalars["it"])
                continue
            if reason is None and s.it % ckpt_interval == 0:
                checkpoint()
        reason = reason or ("converged" if s.rnorm <= tol else "maxiter")
        osp.add("iterations", s.it)
        osp.add("recoveries", len(recoveries))

    return ResilientSolveResult(
        x=system.bc.expand(s.x), iterations=s.it, residual=s.rnorm,
        converged=(reason == "converged"), reason=reason,
        recoveries=recoveries, checkpoints_written=ckpts_written,
        ranks_final=comm.size,
    )


class ResilientNSDriver:
    """Checkpointed, crash-surviving Navier–Stokes time stepping.

    Wraps a :class:`repro.fem.navier_stokes.NavierStokesProblem` with a
    finite ``dt``.  Each step opens with a heartbeat collective on the
    simulated communicator — the detection point for injected rank
    crashes.  State ``(U, P, step)`` is checkpointed every
    ``ckpt_interval`` steps; a crash contracts the partition onto the
    survivors and replays deterministically from the latest snapshot,
    so a recovered run reproduces the failure-free trajectory bit for
    bit.  Per-step solver breakdowns (non-finite states) are handled
    below this layer by the stepper's dt-halving retry
    (``max_dt_halvings``).
    """

    def __init__(
        self,
        problem,
        *,
        ranks: int = 4,
        ckpt_dir,
        ckpt_interval: int = 2,
        fault_schedule=None,
        max_recoveries: int = 2,
        max_dt_halvings: int = 3,
        name: str = "ns",
    ):
        if not np.isfinite(problem.dt):
            raise ValueError("ResilientNSDriver requires a finite dt")
        self.problem = problem
        self.mesh = problem.mesh
        self.ckpt_dir = Path(ckpt_dir)
        self.ckpt_interval = max(int(ckpt_interval), 1)
        self.max_recoveries = int(max_recoveries)
        self.max_dt_halvings = int(max_dt_halvings)
        self.name = name
        self.layout = analyze_partition(
            self.mesh, partition_mesh(self.mesh, ranks, load_tol=0.1))
        self.comm = SimComm(ranks)
        self.comm.install_faults(fault_schedule)
        self.checkpoints_written = 0
        self.recoveries: list[RecoveryEvent] = []

    def _save(self, U: np.ndarray, P: np.ndarray, step: int) -> None:
        save_checkpoint(
            self.ckpt_dir / f"{self.name}_step{step:06d}.ckpt.json",
            self.mesh,
            step=step, t=step * self.problem.dt, dt=self.problem.dt,
            splits=self.layout.splits,
            vectors={"U": U, "P": P},
            name=self.name,
        )
        self.checkpoints_written += 1

    def run(self, nsteps: int, picard_per_step: int = 2) -> ResilientNSResult:
        problem = self.problem
        U, P = problem.initial_state()
        step = 0
        residual = np.inf
        with span("resilience.ns_run", steps=nsteps) as osp:
            self._save(U, P, 0)
            while step < nsteps:
                try:
                    # heartbeat: the per-step failure-detection collective
                    self.comm.allreduce(
                        [np.float64(step)] * self.comm.size
                    )
                    out = problem.advance(
                        U, P, 1, picard_per_step=picard_per_step,
                        max_dt_halvings=self.max_dt_halvings,
                    )
                    U, P, residual = out.velocity, out.pressure, out.residual
                    step += 1
                    if step % self.ckpt_interval == 0 or step == nsteps:
                        self._save(U, P, step)
                except RankFailure as exc:
                    if len(self.recoveries) >= self.max_recoveries:
                        raise
                    self.comm, self.layout, _plan, ckpt, event = _recover(
                        self.mesh, self.comm, self.layout,
                        self.ckpt_dir, self.name, exc)
                    self.recoveries.append(event)
                    U = ckpt.vector("U")
                    P = ckpt.vector("P")
                    step = ckpt.step
            osp.add("recoveries", len(self.recoveries))
        return ResilientNSResult(
            velocity=U, pressure=P, steps=step, residual=float(residual),
            recoveries=self.recoveries,
            checkpoints_written=self.checkpoints_written,
            ranks_final=self.comm.size,
        )
