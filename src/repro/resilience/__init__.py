"""repro.resilience — fault injection, checkpoint/restart, recovery.

The robustness layer the paper's production context implies but never
spells out: 16K-core runs lose ranks and break solvers, so restartable
state and failure-aware drivers are first-class infrastructure here
(as in FEMPAR and the Badia–Martín–Neiva–Verdugo tree-AMR framework).

Three pieces:

* :mod:`repro.resilience.faults` — seeded deterministic
  :class:`FaultSchedule` installed on :class:`repro.parallel.SimComm`;
  typed :class:`RankFailure` / :class:`MessageCorruption` /
  :class:`SolverBreakdown` errors.
* :mod:`repro.resilience.checkpoint` — versioned snapshots (schema
  ``repro.resilience/ckpt.v1``) of mesh SFC state, partition layout,
  solver vectors and time-stepper state, with a sha256 integrity
  digest and fingerprint-verified restore.
* :mod:`repro.resilience.recovery` — self-healing drivers: a
  checkpointed distributed CG (:func:`resilient_poisson_solve`) and a
  Navier–Stokes time-stepping driver (:class:`ResilientNSDriver`) that
  survive injected rank crashes by shrinking the partition to the
  survivors and resuming from the latest checkpoint.

The package re-exports only :mod:`faults` (it is dependency-light and
is what :mod:`repro.parallel.simmpi` needs).  Checkpoint and recovery
names import the mesh and the simulated MPI, which would close a cycle
through ``simmpi``, so they are imported from their defining modules:
``from repro.resilience.recovery import resilient_poisson_solve``.
"""

from .faults import (
    Fault,
    FaultError,
    FaultSchedule,
    MessageCorruption,
    RankFailure,
    SolverBreakdown,
    corrupt_buffer,
)

__all__ = [
    "Fault",
    "FaultError",
    "FaultSchedule",
    "MessageCorruption",
    "RankFailure",
    "SolverBreakdown",
    "corrupt_buffer",
]
