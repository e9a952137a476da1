"""The deterministic fault model: one seeded schedule for ranks and shards.

The paper's production context (16K-core Frontera runs) treats rank
loss, message corruption and degraded hosts as routine hazards.  One
*seeded, deterministic* :class:`FaultSchedule` names exactly which
collective of a :class:`repro.parallel.SimComm` kills which rank or
drops / bit-flips which message, and which fleet shard slows down,
stalls, crashes, serves a bit-flipped artifact or mangles a handoff on
the virtual clock.  Determinism is the point — a recovery experiment
must replay the same fault under the same seed, or its answer-matching
acceptance check means nothing.

:data:`KINDS` is the whole vocabulary.  Point faults are one-shot —
:meth:`FaultSchedule.take` consumes a fault as it fires, so a rebuilt
communicator, a replacement shard or a fleet run in chunks never sees
it again; ``slow`` and ``stall`` are windows ``[at, until)``.

Faults surface as typed exceptions:

* :class:`RankFailure` — a rank died; the communicator stays poisoned
  until the driver rebuilds it over the survivors (as in MPI).
* :class:`MessageCorruption` — a message was dropped or bit-flipped
  *and detected* (the transport-CRC model); a ``silent`` fault
  delivers the damage instead, exercising the NaN/Inf guards.
* :class:`SolverBreakdown` — a solver-level failure (non-finite state,
  exhausted retry budget) raised by the NS stepper, the serve batcher
  and the rank-failure recovery.

Every injected rank fault is recorded as a ``resilience.faults_injected``
counter and a span event on the innermost open :mod:`repro.obs` span;
fleet faults surface in the flight recorder's event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FaultError",
    "RankFailure",
    "MessageCorruption",
    "SolverBreakdown",
    "ArtifactCorruption",
    "KINDS",
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
    shared second tier) when an entry's arrays no longer hash to their
    build-time digest — bit rot, a torn write, a ``corrupt_cache``
    fault.  The service quarantines the key and rebuilds from scratch.
    """

    def __init__(self, key: str, tier: str = "l1", detail: str = ""):
        self.key = key
        self.tier = tier
        msg = f"artifact {key[:16]}… failed digest verification ({tier})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class Kind(NamedTuple):
    scope: str  # "rank": SimComm; "shard" / "fleet": FleetService
    clock: str  # what ``at`` counts (a lookup from 1, a handoff from 0)
    line: str   # the describe() format over the fault's fields


#: the fault vocabulary, in :meth:`FaultSchedule.describe` order.  A
#: fault's ``who`` is its rank, its (src, dst) pair or its shard id; a
#: handoff names no one — its victims surface in the event stream
KINDS: dict[str, Kind] = {
    "crash_rank": Kind("rank", "op", "crash rank {who} @ op {at}"),
    "drop": Kind("rank", "op", "drop msg {who[0]}->{who[1]} @ op {at}{silent}"),
    "corrupt": Kind("rank", "op", "corrupt msg {who[0]}->{who[1]} @ op {at}{silent}"),
    "slow": Kind("shard", "tick", "slowdown {who} x{factor} @ [{at}, {until})"),
    "stall": Kind("shard", "tick", "stall {who} @ [{at}, {until})"),
    "crash": Kind("shard", "tick", "crash {who} @ {at}"),
    "corrupt_cache": Kind("shard", "lookup", "corrupt cache {who} @ lookup {at}"),
    "handoff": Kind("fleet", "handoff", "{mode} handoff #{at}"),
}
_WINDOWS = ("slow", "stall")


@dataclass(frozen=True, eq=False)  # identity: two equal faults fire twice
class Fault:
    """One scheduled fault; :data:`KINDS` says what ``at`` counts.

    ``until`` closes a ``slow`` / ``stall`` window, ``factor`` is a
    slowdown's work multiplier, ``mode`` a handoff's ``"dup"`` or
    ``"drop"``, and a ``silent`` message fault delivers the damaged
    payload instead of raising.
    """

    kind: str
    at: int
    who: object = None
    until: int | None = None
    factor: int = 1
    mode: str = ""
    silent: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        window = self.kind in _WINDOWS
        if window and (self.until is None or self.until <= self.at
                       or self.factor < 1):
            raise ValueError("need t1 > t0 and factor >= 1")
        if self.kind == "corrupt_cache" and self.at < 1:
            raise ValueError("at_lookup is 1-based")
        if self.kind == "handoff" and self.mode not in ("dup", "drop"):
            raise ValueError("mode must be 'dup' or 'drop'")

    def describe(self) -> str:
        return KINDS[self.kind].line.format(
            **{**vars(self), "silent": " (silent)" if self.silent else ""})


class FaultSchedule:
    """A seeded, fully deterministic plan of faults to inject.

    Built with the chaining builders or drawn from the seed
    (:meth:`random`); consumers hold one unconditionally (:meth:`of`)
    and query it with :meth:`take` (point faults), :meth:`slow_factor`
    and :meth:`stall_until` (windows).  Faults are kept per kind, so a
    query about a kind the schedule lacks is answered at once.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._by_kind: dict[str, list[Fault]] = {k: [] for k in KINDS}
        self._consumed: set[Fault] = set()

    @classmethod
    def of(cls, schedule: FaultSchedule | None) -> FaultSchedule:
        """``schedule`` itself, or an empty schedule for ``None``."""
        return cls() if schedule is None else schedule

    def _add(self, fault: Fault) -> FaultSchedule:
        self._by_kind[fault.kind].append(fault)
        return self

    # -- builders ---------------------------------------------------------

    def crash_rank(self, rank: int, at_op: int) -> FaultSchedule:
        return self._add(Fault("crash_rank", int(at_op), int(rank)))

    def slow(self, shard: str, t0: int, t1: int,
             factor: int = 10) -> FaultSchedule:
        return self._add(Fault("slow", int(t0), shard, int(t1), int(factor)))

    def stall(self, shard: str, t0: int, t1: int) -> FaultSchedule:
        return self._add(Fault("stall", int(t0), shard, int(t1)))

    def crash(self, tick: int, shard: str) -> FaultSchedule:
        return self._add(Fault("crash", int(tick), shard))

    def corrupt_cache(self, shard: str, at_lookup: int) -> FaultSchedule:
        return self._add(Fault("corrupt_cache", int(at_lookup), shard))

    def handoff(self, index: int, mode: str) -> FaultSchedule:
        return self._add(Fault("handoff", int(index), mode=mode))

    @classmethod
    def random(cls, seed: int, shard_ids: list[str], horizon: int, *,
               n_slow: int = 1, n_stall: int = 1, n_crash: int = 0,
               n_corrupt: int = 1, n_handoff: int = 0,
               slow_factor: int = 10) -> FaultSchedule:
        """Draw a mixed fleet schedule deterministically from ``seed``:
        the same arguments always yield the same schedule.  Windows
        start inside ``[0, horizon)``; crashes land in its back half so
        checkpoints and logs have something to replay."""
        rng = np.random.default_rng(seed)
        sched = cls(seed=seed)
        ids = list(shard_ids)

        def pick_shard() -> str:
            return ids[int(rng.integers(0, len(ids)))]

        def window(max_len: int) -> tuple[int, int]:
            t0 = int(rng.integers(0, max(horizon - 1, 1)))
            length = int(rng.integers(max_len // 4 + 1, max_len + 1))
            return t0, t0 + length

        for _ in range(n_slow):
            t0, t1 = window(horizon // 2)
            sched.slow(pick_shard(), t0, t1, factor=slow_factor)
        for _ in range(n_stall):
            t0, t1 = window(horizon // 4)
            sched.stall(pick_shard(), t0, t1)
        for _ in range(n_crash):
            tick = int(rng.integers(horizon // 2, horizon))
            sched.crash(tick, pick_shard())
        for _ in range(n_corrupt):
            sched.corrupt_cache(pick_shard(), int(rng.integers(1, 9)))
        for _ in range(n_handoff):
            mode = ("dup", "drop")[int(rng.integers(0, 2))]
            sched.handoff(int(rng.integers(0, 6)), mode)
        return sched

    # -- queries ----------------------------------------------------------

    def take(self, kind: str, at: int, who=None) -> Fault | None:
        """One-shot: the first pending ``kind`` fault due at ``at`` on
        ``who``, consumed on return — or ``None`` when none is due."""
        for f in self._by_kind[kind]:
            if f.at == at and f.who == who and f not in self._consumed:
                self._consumed.add(f)
                return f
        return None

    def slow_factor(self, shard: str, now: int) -> int:
        """Combined slowdown factor for work starting at ``now``."""
        factor = 1
        for s in self._by_kind["slow"]:
            if s.who == shard and s.at <= now < s.until:
                factor = max(factor, s.factor)
        return factor

    def stall_until(self, shard: str, t: int) -> int:
        """Earliest tick at or after ``t`` at which ``shard`` may
        execute (``t`` itself when no stall window covers it)."""
        for s in self._by_kind["stall"]:
            if s.who == shard and s.at <= t < s.until:
                return self.stall_until(shard, s.until)  # windows may chain
        return t

    # -- reporting --------------------------------------------------------

    @property
    def faults(self) -> list[Fault]:
        """Every scheduled fault, grouped in :data:`KINDS` order."""
        return [f for group in self._by_kind.values() for f in group]

    def pending(self) -> list[Fault]:
        """The point faults still to fire (windows never fire)."""
        return [f for f in self.faults
                if f.kind not in _WINDOWS and f not in self._consumed]

    def affected_shards(self) -> set[str]:
        """Shards named by any scheduled fault."""
        return {f.who for f in self.faults if KINDS[f.kind].scope == "shard"}

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

    A ``corrupt_cache`` fault damages a live cached artifact (a shared
    array the cache is already serving) this way; returns the (byte,
    bit) flipped so the injection is auditable.
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
