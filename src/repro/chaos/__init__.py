"""repro.chaos — the fleet's chaos invariants, swept over seeded schedules.

Faults themselves are entries in the one seeded
:class:`repro.resilience.faults.FaultSchedule` (slowdown and stall
windows, shard crashes, bit-flipped artifacts, mangled handoffs), which
the fleet takes as ``chaos=``.  :mod:`repro.chaos.invariants` certifies
— as bit-level equalities, not statistics — that the defense layers
(hedged requests, circuit breakers, brownout, cache quarantine,
checkpointed fail-over) preserve exactly-once completion,
unaffected-request identity and deterministic health snapshots under
every schedule :meth:`FaultSchedule.random` draws.
"""

from .invariants import CHAOS_KINDS, check_schedule, run_sweep

__all__ = [
    "CHAOS_KINDS",
    "check_schedule",
    "run_sweep",
]
