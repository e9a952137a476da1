"""Replica fail-over: checkpointed shard state, bit-identical replay.

The durability model mirrors a real serving fleet:

* **Responses are durable at completion** — a batch dispatched before
  the kill was already delivered; the failure can't unsend it.
* **Queued work is recoverable** — each shard periodically seals a
  :mod:`repro.resilience` ``state.v1`` checkpoint (the same
  canonical-JSON + sha256 machinery as the solver ``ckpt.v1`` files)
  of its pending items, and the fleet keeps append-only per-shard logs
  of deliveries, migrations-out and completions.

When a shard dies, :func:`rebuild_queue` reconstructs the exact
kill-time queue from ``checkpoint.pending`` plus the log tails past
the checkpoint's watermarks::

    queue = ckpt.pending
          + arrivals[arrivals_seen:]        (deliveries + adopted steals)
          - stolen_away[steals_seen:]       (migrated to another shard)
          - completed[completed_seen:]      (already durable)

A replacement shard hosted on a survivor adopts that queue with the
original submission ticks and retry counts.  Because the scheduler's
dispatch order and batch grouping are keyed by (priority, digest) —
never by arrival interleaving or the clock — the replacement forms the
*same batches* the dead shard would have, and the unit solves are
bit-deterministic, so every replayed response carries the identical
solution digest: the fleet's canonical digest over a killed run equals
the failure-free run's, which is what the recovery tests and the
scaling bench assert.  (The certified invariant assumes no deadlines
on replayed requests and stealing quiesced at the kill; both hold in
the demo/bench kill scenarios.)

Checkpoints bound the replay log scan but are not load-bearing for
correctness: with no checkpoint yet written, the rebuild degrades to a
full log replay and produces the same queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..obs import add as obs_add
from ..resilience.checkpoint import (
    latest_checkpoint,
    load_state_checkpoint,
    save_state_checkpoint,
)
from ..serve.api import SolveRequest
from ..serve.scheduler import PendingItem

__all__ = ["ShardLog", "FailoverEvent", "ShardCheckpointer",
           "item_doc", "rebuild_queue"]


def item_doc(item: PendingItem) -> dict:
    """Canonical JSON document of one queued item (checkpoint/replay
    currency): the request's own document plus the serving state that
    must survive migration."""
    return {
        "request": item.request.to_doc(),
        "digest": item.digest,
        "t_submit": int(item.t_submit),
        "retries": int(item.retries),
        "instance": int(item.instance),
        "hedge": bool(item.hedge),
    }


def _arrival_doc(tick: int, request: SolveRequest, retries: int,
                 instance: int, hedge: bool) -> dict:
    return {
        "request": request.to_doc(),
        "digest": request.digest,
        "t_submit": int(tick),
        "retries": int(retries),
        "instance": int(instance),
        "hedge": bool(hedge),
    }


@dataclass
class ShardLog:
    """Fleet-side append-only bookkeeping for one shard slot.

    The fleet (not the shard) owns these: they survive the shard's
    death.  ``arrivals`` holds every delivery *and* every adopted
    stolen item; ``stolen_away`` / ``completed`` hold request digests
    in event order.  Checkpoint watermarks are plain list lengths.
    """

    arrivals: list[dict] = field(default_factory=list)
    stolen_away: list[str] = field(default_factory=list)
    completed: list[str] = field(default_factory=list)

    def record_arrival(self, tick: int, request: SolveRequest,
                       retries: int = 0, *, instance: int = -1,
                       hedge: bool = False) -> None:
        self.arrivals.append(
            _arrival_doc(tick, request, retries, instance, hedge)
        )

    def watermarks(self) -> dict:
        return {
            "arrivals_seen": len(self.arrivals),
            "steals_seen": len(self.stolen_away),
            "completed_seen": len(self.completed),
        }


@dataclass(frozen=True)
class FailoverEvent:
    """One executed fail-over (fleet log entry)."""

    tick: int
    shard_id: str
    host: str | None
    replayed: int
    ckpt_step: int | None

    def describe(self) -> str:
        src = (f"checkpoint step {self.ckpt_step} + log tail"
               if self.ckpt_step is not None else "full log replay")
        host = f"on {self.host}" if self.host else "on a cold standby"
        return (f"shard {self.shard_id} killed at tick {self.tick}: "
                f"{self.replayed} in-flight requests replayed {host} "
                f"({src})")


class ShardCheckpointer:
    """Periodic ``state.v1`` snapshots of one shard's pending queue.

    A checkpoint is taken every ``interval`` completed responses (the
    natural event boundary: batches are atomic).  With ``directory``
    set, snapshots are sealed to disk through
    :func:`repro.resilience.checkpoint.save_state_checkpoint` with
    ``keep_last`` retention and restored — integrity-checked — through
    :func:`load_state_checkpoint`; without it the latest state is held
    in memory only (same rebuild semantics, no persistence).
    """

    def __init__(self, shard_id: str, directory=None, *,
                 interval: int = 8, keep_last: int = 3):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.shard_id = shard_id
        self.directory = Path(directory) if directory else None
        self.interval = int(interval)
        self.keep_last = int(keep_last)
        self.step = 0
        self._since = 0
        self._memory: dict | None = None

    def _state(self, shard, log: ShardLog) -> dict:
        return {
            "shard": self.shard_id,
            "clock": int(shard.clock.now),
            "pending": [item_doc(it) for it in sorted(
                shard.scheduler.pending, key=lambda it: it.sort_key)],
            **log.watermarks(),
        }

    def on_response(self, shard, log: ShardLog) -> bool:
        """Count one completion; checkpoint when the interval is due."""
        self._since += 1
        if self._since < self.interval:
            return False
        self.checkpoint(shard, log)
        return True

    def checkpoint(self, shard, log: ShardLog) -> None:
        self._since = 0
        self.step += 1
        state = self._state(shard, log)
        if self.directory is not None:
            save_state_checkpoint(
                self.directory / f"{self.shard_id}_step{self.step}.ckpt.json",
                name=self.shard_id, step=self.step, state=state,
                keep_last=self.keep_last,
            )
        else:
            self._memory = state
        obs_add("fleet.ckpt.writes", 1)

    def latest_state(self) -> dict | None:
        """The newest surviving snapshot (integrity-checked when read
        from disk); ``None`` before the first checkpoint."""
        if self.directory is not None:
            path = latest_checkpoint(self.directory, name=self.shard_id)
            if path is None:
                return None
            return load_state_checkpoint(path).state
        return self._memory

    def reset_after_failover(self) -> None:
        """Restart the completion counter for the replacement shard."""
        self._since = 0


def rebuild_queue(ckpt_state: dict | None, log: ShardLog) -> list[dict]:
    """Reconstruct a dead shard's kill-time queue as item documents.

    Multiset semantics: each digest in the stolen/completed log tails
    cancels exactly one matching queued document (duplicate requests
    differ at most in ``t_submit``, which is timing metadata — the
    canonical fleet digest never sees it).
    """
    if ckpt_state is None:
        pending = []
        arrivals_seen = steals_seen = completed_seen = 0
    else:
        pending = [dict(d) for d in ckpt_state["pending"]]
        arrivals_seen = int(ckpt_state["arrivals_seen"])
        steals_seen = int(ckpt_state["steals_seen"])
        completed_seen = int(ckpt_state["completed_seen"])
    pending.extend(dict(d) for d in log.arrivals[arrivals_seen:])
    gone: dict[str, int] = {}
    for digest in log.stolen_away[steals_seen:]:
        gone[digest] = gone.get(digest, 0) + 1
    for digest in log.completed[completed_seen:]:
        gone[digest] = gone.get(digest, 0) + 1
    out: list[dict] = []
    for doc in pending:
        d = doc["digest"]
        if gone.get(d, 0) > 0:
            gone[d] -= 1
            continue
        out.append(doc)
    leftover = {d: c for d, c in gone.items() if c > 0}
    if leftover:
        raise RuntimeError(
            f"shard log inconsistency: {sum(leftover.values())} "
            f"completions/steals with no matching queued item"
        )
    return out
