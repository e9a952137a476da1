"""Deterministic fault model for the simulated communicator.

The paper's production context (16K-core Frontera runs) treats rank
loss and message corruption as routine operational hazards.  This
module gives :class:`repro.parallel.SimComm` a *seeded, deterministic*
fault plan: a :class:`FaultSchedule` names exactly which collective
step kills which rank, or which (src, dst) message is dropped or
bit-corrupted.  Determinism is the point — a recovery experiment must
replay the same fault under the same seed, or its answer-matching
acceptance check means nothing.

Faults surface as typed exceptions:

* :class:`RankFailure` — a rank died; the communicator is poisoned and
  every subsequent collective raises until the driver rebuilds it over
  the survivors (mirroring a broken MPI communicator).
* :class:`MessageCorruption` — a message was dropped or bit-flipped
  *and detected* (the transport-CRC model).  Schedules may mark a
  fault ``silent`` to deliver the damage instead, which is how the
  NaN/Inf guards downstream are exercised.
* :class:`SolverBreakdown` — a solver-level failure (non-finite state,
  exhausted retry budget) raised by the hardened Newton / NS drivers.

Every injected fault is recorded as a ``resilience.faults_injected``
counter and a span event on the innermost open :mod:`repro.obs` span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FaultError",
    "RankFailure",
    "MessageCorruption",
    "SolverBreakdown",
    "ArtifactCorruption",
    "Fault",
    "FaultSchedule",
    "corrupt_buffer",
    "corrupt_in_place",
]


class FaultError(RuntimeError):
    """Base class of all injected/detected resilience faults."""


class RankFailure(FaultError):
    """A rank crashed at a collective; the communicator is now broken."""

    def __init__(self, rank: int, op: str, op_index: int):
        self.rank = int(rank)
        self.op = op
        self.op_index = int(op_index)
        self.phase: str | None = None  # filled in by callers with context
        super().__init__(
            f"rank {rank} failed at collective #{op_index} ({op})"
        )


class MessageCorruption(FaultError):
    """A point-to-point message was dropped or bit-corrupted (detected)."""

    def __init__(self, src: int, dst: int, mode: str, op: str, op_index: int):
        self.src = int(src)
        self.dst = int(dst)
        self.mode = mode  # "drop" | "corrupt"
        self.op = op
        self.op_index = int(op_index)
        super().__init__(
            f"message {src}->{dst} {mode} at collective #{op_index} ({op})"
        )


class SolverBreakdown(FaultError):
    """A solver exhausted its retry budget or hit non-finite state."""

    def __init__(self, where: str, reason: str, detail: str = ""):
        self.where = where
        self.reason = reason
        msg = f"{where}: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ArtifactCorruption(FaultError):
    """A cached artifact failed its content-digest re-verification.

    Raised by :class:`repro.serve.cache.ArtifactCache` (and the fleet's
    shared second tier) when an entry's stored arrays no longer hash to
    the digest computed at build time — bit rot, a torn write, or the
    chaos harness flipping a byte.  The owning service quarantines the
    key and rebuilds from scratch.
    """

    def __init__(self, key: str, tier: str = "l1", detail: str = ""):
        self.key = key
        self.tier = tier
        msg = f"artifact {key[:16]}… failed digest verification ({tier})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``kind`` is ``"crash"`` (needs ``rank``), ``"drop"`` or
    ``"corrupt"`` (need ``src``/``dst``); ``at_op`` is the communicator
    collective index (0-based, every collective increments it) at which
    the fault fires.  ``silent`` message faults deliver the damaged
    payload instead of raising.
    """

    kind: str
    at_op: int
    rank: int | None = None
    src: int | None = None
    dst: int | None = None
    silent: bool = False

    def describe(self) -> str:
        if self.kind == "crash":
            return f"crash rank {self.rank} @ op {self.at_op}"
        tag = " (silent)" if self.silent else ""
        return f"{self.kind} msg {self.src}->{self.dst} @ op {self.at_op}{tag}"


class FaultSchedule:
    """A seeded, fully deterministic plan of faults to inject.

    Faults are either declared explicitly (:meth:`crash_rank`,
    :meth:`drop_message`, :meth:`corrupt_message`) or drawn
    deterministically from the seed (:meth:`random`).  The schedule is
    one-shot: a fault that fired is *consumed* and does not re-fire on
    a rebuilt communicator (the same schedule object is reinstalled by
    the recovery drivers so later faults still apply).
    """

    def __init__(self, seed: int = 0, faults: list[Fault] | None = None):
        self.seed = int(seed)
        self.faults: list[Fault] = list(faults or [])
        self._consumed: set[int] = set()

    # -- construction ---------------------------------------------------

    def crash_rank(self, rank: int, at_op: int) -> "FaultSchedule":
        self.faults.append(Fault("crash", int(at_op), rank=int(rank)))
        return self

    def drop_message(self, src: int, dst: int, at_op: int,
                     silent: bool = False) -> "FaultSchedule":
        self.faults.append(
            Fault("drop", int(at_op), src=int(src), dst=int(dst), silent=silent)
        )
        return self

    def corrupt_message(self, src: int, dst: int, at_op: int,
                        silent: bool = False) -> "FaultSchedule":
        self.faults.append(
            Fault("corrupt", int(at_op), src=int(src), dst=int(dst),
                  silent=silent)
        )
        return self

    @classmethod
    def random(cls, seed: int, nranks: int, max_op: int,
               n_faults: int = 1, kinds: tuple[str, ...] = ("crash",),
               ) -> "FaultSchedule":
        """Draw ``n_faults`` faults deterministically from ``seed``.

        The same (seed, nranks, max_op, n_faults, kinds) always yields
        the same schedule — the reproducibility contract of every
        fault-injection experiment.
        """
        rng = np.random.default_rng(seed)
        sched = cls(seed=seed)
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            at_op = int(rng.integers(0, max(max_op, 1)))
            if kind == "crash":
                sched.crash_rank(int(rng.integers(0, nranks)), at_op)
            else:
                src = int(rng.integers(0, nranks))
                dst = int(rng.integers(0, nranks))
                sched.faults.append(
                    Fault(kind, at_op, src=src, dst=dst % max(nranks, 1))
                )
        return sched

    # -- queries (used by SimComm) --------------------------------------

    def crashes_at(self, op_index: int) -> list[Fault]:
        """Unconsumed crash faults scheduled for this collective."""
        return [
            f for i, f in enumerate(self.faults)
            if f.kind == "crash" and f.at_op == op_index
            and i not in self._consumed
        ]

    def message_fault(self, op_index: int, src: int, dst: int) -> Fault | None:
        """Unconsumed drop/corrupt fault for this message, if any."""
        for i, f in enumerate(self.faults):
            if (f.kind in ("drop", "corrupt") and f.at_op == op_index
                    and f.src == src and f.dst == dst
                    and i not in self._consumed):
                return f
        return None

    def consume(self, fault: Fault) -> None:
        """Mark a fired fault so it never re-fires (one-shot semantics)."""
        for i, f in enumerate(self.faults):
            if f is fault:
                self._consumed.add(i)
                return

    def pending(self) -> list[Fault]:
        return [f for i, f in enumerate(self.faults) if i not in self._consumed]

    def describe(self) -> list[str]:
        return [f.describe() for f in self.faults]


def corrupt_buffer(buf: np.ndarray, key: tuple[int, ...]) -> np.ndarray:
    """Deterministically flip one bit of a C-ordered copy of ``buf``.

    The flipped (byte, bit) position is :func:`corrupt_in_place`'s draw
    for ``key`` — typically (schedule seed, op index, src, dst) — so
    the same schedule corrupts the same bit every run.
    """
    out = np.array(buf, order="C")
    corrupt_in_place(out.reshape(-1), key)  # a view; 1-d even for 0-d input
    return out


def corrupt_in_place(buf: np.ndarray, key: tuple[int, ...]) -> tuple[int, int]:
    """Deterministically flip one bit of ``buf`` *in place*.

    The chaos harness uses this to damage a live cached artifact (a
    shared array object the cache is already serving) rather than a
    message copy; returns the (byte, bit) flipped so the injection is
    auditable.
    """
    arr = np.asarray(buf)
    if arr.nbytes == 0:
        return (0, 0)
    rng = np.random.default_rng(list(key))
    byte = int(rng.integers(0, arr.nbytes))
    bit = int(rng.integers(0, 8))
    flat = arr.view(np.uint8).reshape(-1)
    flat[byte] ^= np.uint8(1 << bit)
    return (byte, bit)
