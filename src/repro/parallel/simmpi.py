"""Simulated MPI: a deterministic in-process virtual communicator.

The paper's distributed algorithms (DistTreeSort partitioning, ghost
exchange, traversal restriction to owned octants) are data-driven and
rank-local; executing the rank programs sequentially over partitioned
data yields bit-identical results while letting us *measure* exact
communication volumes and message counts.  Real mpi4py is deliberately
not used: Python process-level MPI is far too slow for the core tree
algorithms (see DESIGN.md), and wall-clock scaling is produced by the
explicit performance model in :mod:`repro.parallel.perfmodel` fed with
the measurements collected here.

The API mirrors the phased collective style of the algorithms: each
call takes per-rank inputs and returns per-rank outputs, updating the
per-rank traffic counters.

Fault injection (:mod:`repro.resilience.faults`): every communicator
holds a :class:`~repro.resilience.faults.FaultSchedule` (empty unless
one is installed) and takes its rank-scope faults — ``crash_rank``,
message ``drop`` and ``corrupt`` — as typed :class:`RankFailure` /
:class:`MessageCorruption` errors at exactly the scheduled collective
steps.  A crashed rank poisons the communicator — every later
collective keeps raising until a recovery driver rebuilds a fresh one
over the survivors — matching real MPI semantics where a communicator
with a dead rank is unusable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import add as obs_add
from ..obs import record as obs_record
from ..obs.trace import TRACER
from ..resilience.faults import (
    KINDS,
    FaultSchedule,
    MessageCorruption,
    RankFailure,
    corrupt_buffer,
)

__all__ = ["SimComm", "TrafficCounters"]


@dataclass
class TrafficCounters:
    """Per-rank accumulated communication statistics."""

    bytes_sent: np.ndarray
    bytes_recv: np.ndarray
    messages_sent: np.ndarray
    collectives: int = 0

    @classmethod
    def zeros(cls, size: int) -> "TrafficCounters":
        return cls(
            np.zeros(size, np.int64), np.zeros(size, np.int64), np.zeros(size, np.int64)
        )

    def total_bytes(self) -> int:
        return int(self.bytes_sent.sum())


def _nbytes(obj) -> int:
    """Payload size in bytes for any message the collectives accept:
    numpy arrays, scalars, bytes-likes, and (nested) list/tuple/dict
    containers.  Dict payloads count both keys and values — the
    rank-local index maps some algorithms ship are real traffic."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(k) + _nbytes(v) for k, v in obj.items())
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if obj is None:
        return 0
    return np.asarray(obj).nbytes


class SimComm:
    """A virtual communicator over ``size`` ranks.

    All collectives are phased: inputs and outputs are length-``size``
    lists indexed by rank.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = size
        self.counters = TrafficCounters.zeros(size)
        #: monotonically increasing collective index (fault-schedule clock)
        self.op_index = 0
        #: ranks that have crashed; non-empty == communicator is broken
        self.failed_ranks: set[int] = set()
        self.fault_schedule = FaultSchedule()

    # -- fault injection ------------------------------------------------

    def install_faults(self, schedule: FaultSchedule | None) -> None:
        """Attach a deterministic fault schedule (``None`` clears it).

        A pending rank fault naming a rank this communicator lacks
        would never fire, so it is refused with ``ValueError``.  (The
        recovery drivers hand a shrunk communicator the same schedule
        without this check: faults on the ranks it lost never fire.)"""
        schedule = FaultSchedule.of(schedule)
        for f in schedule.pending():
            if KINDS[f.kind].scope != "rank":
                continue
            for r in f.who if isinstance(f.who, tuple) else (f.who,):
                if not 0 <= r < self.size:
                    raise ValueError(
                        f"fault names unknown rank {r} ({f.describe()}; "
                        f"communicator has ranks 0..{self.size - 1})"
                    )
        self.fault_schedule = schedule

    def _record_fault(self, kind: str, op: str, idx: int, **labels) -> None:
        """Publish one injected fault: counter + zero-duration span +
        event on the innermost open span (no-ops while obs disabled)."""
        obs_add("resilience.faults_injected", 1, kind=kind)
        obs_record(f"resilience.fault.{kind}", 0.0)
        sp = TRACER.current() if TRACER.enabled else None
        if sp is not None:
            sp.event("fault", kind=kind, op=op, op_index=idx, **labels)

    def _fault_gate(self, op: str) -> int:
        """Advance the collective clock and apply crash faults.

        Raises :class:`RankFailure` when a rank dies at this step or
        the communicator already lost a rank earlier."""
        idx = self.op_index
        self.op_index += 1
        for rank in range(self.size):
            if self.fault_schedule.take("crash_rank", idx, rank):
                self.failed_ranks.add(rank)
                self._record_fault("crash", op, idx, rank=rank)
        if self.failed_ranks:
            raise RankFailure(min(self.failed_ranks), op, idx)
        return idx

    def _has_message_faults(self, idx: int) -> bool:
        """Once-per-collective fast path: only walk the per-message
        filter when some unconsumed drop/corrupt fault targets this
        collective index (keeps the armed-schedule tax off the
        per-message hot path)."""
        return any(
            f.kind in ("drop", "corrupt") and f.at == idx
            for f in self.fault_schedule.pending()
        )

    def _message_filter(self, idx: int, op: str, src: int, dst: int, buf):
        """Apply drop/corrupt faults to one message.

        Returns ``(deliver, buf)``; raises :class:`MessageCorruption`
        for detected (non-silent) faults."""
        sched = self.fault_schedule
        f = (sched.take("drop", idx, (src, dst))
             or sched.take("corrupt", idx, (src, dst)))
        if f is None:
            return True, buf
        self._record_fault(f.kind, op, idx, src=src, dst=dst)
        if not f.silent:
            raise MessageCorruption(src, dst, f.kind, op, idx)
        if f.kind == "drop":
            return False, buf
        return True, corrupt_buffer(buf, (sched.seed, idx, src, dst))

    def _count_p2p(self, src: int, dst: int, nb: int) -> None:
        """Tally one cross-rank message in the local counters and the
        global :mod:`repro.obs` registry (no-op while obs is disabled)."""
        self.counters.bytes_sent[src] += nb
        self.counters.bytes_recv[dst] += nb
        self.counters.messages_sent[src] += 1
        obs_add("comm.bytes_sent", nb, rank=src)
        obs_add("comm.bytes_recv", nb, rank=dst)
        obs_add("comm.messages_sent", 1, rank=src)

    def _count_collective(self) -> None:
        self.counters.collectives += 1
        obs_add("comm.collectives", 1)

    # -- collectives ----------------------------------------------------

    def allreduce(self, values: list, op=np.add):
        """Elementwise reduction of per-rank arrays/scalars."""
        if len(values) != self.size:
            raise ValueError("one value per rank required")
        self._fault_gate("allreduce")
        self._count_collective()
        arrs = [np.asarray(v) for v in values]
        out = arrs[0].copy()
        for a in arrs[1:]:
            out = op(out, a)
        per = _nbytes(arrs[0])
        self.counters.bytes_sent += per
        self.counters.bytes_recv += per
        self.counters.messages_sent += 1
        for r in range(self.size):
            obs_add("comm.bytes_sent", per, rank=r)
            obs_add("comm.bytes_recv", per, rank=r)
            obs_add("comm.messages_sent", 1, rank=r)
        return [out.copy() for _ in range(self.size)]

    def exchange(
        self,
        messages: dict[tuple[int, int], np.ndarray],
        allow_self: bool = True,
    ) -> dict[tuple[int, int], np.ndarray]:
        """Batched point-to-point: {(src, dst): array} → delivered
        mapping, with traffic counted (self-messages are free).

        Keys are validated: src/dst must be in-range ranks, and
        self-sends are rejected when ``allow_self`` is False (the ghost
        exchange legs never legitimately self-send, so corrupted keys
        fail loudly there instead of silently skewing counters).
        Callers must consume the *returned* mapping — under an
        installed fault schedule it may differ from the input
        (dropped or corrupted entries).
        """
        for key in messages:
            if (
                not isinstance(key, tuple) or len(key) != 2
                or not all(isinstance(k, (int, np.integer)) for k in key)
            ):
                raise ValueError(f"exchange: malformed message key {key!r}")
            src, dst = int(key[0]), int(key[1])
            if not (0 <= src < self.size and 0 <= dst < self.size):
                raise ValueError(
                    f"exchange: message key ({src}, {dst}) outside "
                    f"communicator of size {self.size}"
                )
            if src == dst and not allow_self:
                raise ValueError(
                    f"exchange: self-send ({src}->{dst}) is not allowed here"
                )
        idx = self._fault_gate("exchange")
        filtering = self._has_message_faults(idx)
        self._count_collective()
        out: dict[tuple[int, int], np.ndarray] = {}
        for (src, dst), buf in messages.items():
            if src != dst:
                if filtering:
                    deliver, buf = self._message_filter(
                        idx, "exchange", int(src), int(dst), buf
                    )
                    if not deliver:
                        continue
                self._count_p2p(src, dst, _nbytes(buf))
            out[(src, dst)] = buf
        return out
