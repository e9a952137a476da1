"""Deterministic virtual-clock scheduling: priorities, admission, retry.

The serving loop runs on a **virtual clock** (integer ticks, no wall
time anywhere — the simmpi style): every unit of work advances the
clock by a deterministic cost derived from the work's own discrete
outputs (elements built, operator applications, columns solved).  Two
runs of the same request stream therefore see identical timestamps,
identical deadline outcomes and identical backoff windows — which is
what lets the response digests be bit-identical.

Mechanics, all bounded and typed:

* **Priority queue** — dispatch picks the eligible item minimising
  ``(priority, request digest, arrival seq)``.  Tie-breaking by
  *digest* rather than arrival order means any interleaving of the
  same request set produces the same schedule (asserted by the cache
  determinism tests); the arrival sequence only separates byte-equal
  duplicates, which are interchangeable anyway.
* **Bounded admission** — at most ``max_pending`` queued items; the
  service turns an admission refusal into a typed
  :class:`repro.serve.api.Rejected` (``queue_full``) response.
* **Deadlines** — an item whose dispatch would not start strictly
  before ``t_submit + deadline`` is expired with ``deadline_exceeded``
  (a deadline equal to the current tick is already missed: the solve
  would take at least one tick, so dispatching it could never finish
  in time).
* **Retry with backoff** — when a batch dies with
  :class:`repro.resilience.faults.SolverBreakdown`, its members are
  re-queued ``backoff * 2**retries`` ticks into the virtual future (up
  to ``max_retries``); the clock jumps forward when only backed-off
  work remains.
* **Deadline-aware brownout** — under overload (queue depth past a
  watermark) or external pressure (open circuit breakers upstream),
  :meth:`Scheduler.shed_overload` drops the lowest-priority tail of
  the dispatch order instead of letting queue wait blow every
  deadline, and :meth:`BrownoutPolicy.degrades` loosens solve
  tolerances for the batches that remain.  Both knobs live in
  :class:`BrownoutPolicy` and both decisions are pure functions of
  (queue state, policy), so browned-out runs stay bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import EventLog
from .api import SolveRequest

__all__ = [
    "VirtualClock",
    "PendingItem",
    "Scheduler",
    "BrownoutPolicy",
    "cost_build",
    "cost_factor",
    "cost_solve",
]

# -- deterministic cost model (ticks) -----------------------------------
#
# The absolute scale is arbitrary; only the *ratios* matter for the
# scheduling semantics.  Mesh construction dominates (the paper's whole
# point is amortizing it), factorization is cheaper, and a batched
# solve pays one traversal-scale term per operator application plus a
# small per-column term.

TICKS_PER_ELEMENT_BUILD = 8
TICKS_PER_NODE_FACTOR = 2
TICKS_PER_NODE_MATVEC = 1
TICKS_PER_COLUMN = 16


def cost_build(n_elem: int) -> int:
    return TICKS_PER_ELEMENT_BUILD * int(n_elem)


def cost_factor(n_nodes: int) -> int:
    return TICKS_PER_NODE_FACTOR * int(n_nodes)


def cost_solve(n_nodes: int, matvecs: int, columns: int) -> int:
    return (
        TICKS_PER_NODE_MATVEC * int(n_nodes) * max(int(matvecs), 1)
        + TICKS_PER_COLUMN * int(columns)
    )


class VirtualClock:
    """Monotonic integer tick counter — the service's only notion of time."""

    def __init__(self) -> None:
        self.now = 0

    def advance(self, ticks: int) -> int:
        if ticks < 0:
            raise ValueError("the virtual clock cannot run backwards")
        self.now += int(ticks)
        return self.now

    def jump_to(self, t: int) -> int:
        self.now = max(self.now, int(t))
        return self.now


@dataclass(eq=False)  # an identity: ``seq`` is unique per scheduler
class PendingItem:
    """One admitted request waiting for dispatch.

    ``instance`` is the fleet-assigned delivery id used for
    exactly-once accounting when a request has more than one live copy
    (hedging, duplicated handoffs, fail-over replay); ``-1`` for bare
    services that never duplicate.  ``hedge`` marks a speculative copy:
    it never expires — the primary owns the deadline — and its
    completion only counts if it wins the race.
    """

    request: SolveRequest
    digest: str
    t_submit: int
    seq: int
    not_before: int = 0
    retries: int = 0
    instance: int = -1
    hedge: bool = False

    @property
    def sort_key(self) -> tuple:
        return (self.request.priority, self.digest, self.seq)

    def expired(self, now: int) -> bool:
        if self.hedge:
            return False
        d = self.request.deadline
        return d is not None and now >= self.t_submit + d


@dataclass(frozen=True)
class BrownoutPolicy:
    """Knobs for deadline-aware load shedding and solve degradation.

    ``shed_depth`` is the queue-depth watermark past which the
    dispatch-order tail sheds; under ``pressure`` (open breakers
    upstream concentrating traffic here) the tighter
    ``pressure_depth`` applies instead.  Only items with
    ``priority >= shed_priority`` are sheddable — latency-critical
    low-priority-number work is never dropped.  ``degrade_depth`` is
    the depth at batch formation past which solves run at
    ``tol * degrade_tol_factor`` and responses carry
    ``degraded=True``.
    """

    shed_depth: int = 24
    pressure_depth: int = 12
    shed_priority: int = 2
    degrade_depth: int = 12
    degrade_tol_factor: float = 1e3

    def depth_limit(self, *, pressure: bool = False) -> int:
        return self.pressure_depth if pressure else self.shed_depth

    def degrades(self, depth: int, *, pressure: bool = False) -> bool:
        return depth > self.degrade_depth or (
            pressure and depth > self.degrade_depth // 2
        )


class Scheduler:
    """Bounded, deterministic dispatch queue over :class:`PendingItem`."""

    def __init__(self, *, max_pending: int = 128, max_batch: int = 8,
                 max_retries: int = 2, backoff: int = 1000):
        if max_batch < 1 or max_pending < 1:
            raise ValueError("max_pending and max_batch must be >= 1")
        self.max_pending = int(max_pending)
        self.max_batch = int(max_batch)
        self.max_retries = int(max_retries)
        self.backoff = int(backoff)
        self.pending: list[PendingItem] = []
        self._seq = 0
        #: flight recorder (:class:`repro.obs.EventLog`, disabled until
        #: the owning service wires its own in) and the shard name
        #: stamped onto emitted events
        self.recorder = EventLog(enabled=False)
        self.shard: str | None = None

    @property
    def depth(self) -> int:
        return len(self.pending)

    def submit(self, request: SolveRequest, clock: VirtualClock, *,
               t_submit: int | None = None, instance: int = -1,
               hedge: bool = False) -> PendingItem | None:
        """Admit a request; None means the queue is full (backpressure).

        ``t_submit`` overrides the recorded submission tick — the fleet
        layer passes the *arrival* tick, which can trail the shard's
        own clock when the shard is busy (latency is measured from
        arrival, not from when the shard got around to looking).
        """
        if len(self.pending) >= self.max_pending:
            return None
        self._seq += 1
        item = PendingItem(
            request=request, digest=request.digest,
            t_submit=clock.now if t_submit is None else int(t_submit),
            seq=self._seq, not_before=clock.now,
            instance=int(instance), hedge=bool(hedge),
        )
        self.pending.append(item)
        self.recorder.emit(
            "enqueue", item.digest, tick=clock.now, shard=self.shard,
            t_submit=item.t_submit, retries=item.retries,
            depth=len(self.pending),
        )
        return item

    def adopt(self, request: SolveRequest, clock: VirtualClock, *,
              t_submit: int, retries: int = 0,
              not_before: int | None = None, instance: int = -1,
              hedge: bool = False) -> PendingItem | None:
        """Admit an item that already lived on another scheduler.

        Used by cross-shard work stealing, hedged re-dispatch and
        checkpointed fail-over replay: the original submission tick,
        retry count and delivery instance are preserved (latency,
        retry budgets and exactly-once identity carry over), only the
        dispatch sequence number is local.
        """
        item = self.submit(request, clock, t_submit=t_submit,
                           instance=instance, hedge=hedge)
        if item is None:
            return None
        item.retries = int(retries)
        if not_before is not None:
            item.not_before = max(item.not_before, int(not_before))
        return item

    def cancel_instance(self, instance: int) -> list[PendingItem]:
        """Remove every still-queued copy of a delivery instance (the
        losers of a hedge race).  In-flight copies — already popped
        into a dispatched batch — are not reachable here; the owning
        service suppresses their completion instead."""
        if instance < 0:
            return []
        gone = [it for it in self.pending if it.instance == instance]
        for it in gone:
            self.pending.remove(it)
        return gone

    def shed_overload(self, clock: VirtualClock, policy: BrownoutPolicy,
                      *, pressure: bool = False) -> list[PendingItem]:
        """Brownout: pop the sheddable dispatch-order tail while the
        queue sits past the policy's depth watermark.

        Returns the shed items (the service finalizes each as a typed
        ``rejected/shed`` response).  Hedge copies are never shed here
        — cancelling them is the hedging layer's call — and items
        below ``shed_priority`` are protected.  Purely a function of
        (queue state, policy, pressure flag), hence deterministic.
        """
        limit = policy.depth_limit(pressure=pressure)
        if len(self.pending) <= limit:
            return []
        sheddable = sorted(
            (it for it in self.pending
             if not it.hedge and it.request.priority >= policy.shed_priority),
            key=lambda it: it.sort_key,
        )
        out: list[PendingItem] = []
        while sheddable and len(self.pending) > limit:
            it = sheddable.pop()
            self.pending.remove(it)
            out.append(it)
        return out

    def steal_items(self, n: int, now: int) -> list[PendingItem]:
        """Remove up to ``n`` pending items for migration to another
        shard — the *tail* of the dispatch order (the work this queue
        would get to last), skipping expired and backed-off items.

        Taking from the tail keeps the head batch intact (the items
        about to dispatch here stay here) and is deterministic: the
        dispatch order is keyed by (priority, digest, seq), so any run
        of the same fleet state steals the same items.
        """
        if n <= 0:
            return []
        eligible = [it for it in self.pending
                    if it.not_before <= now and not it.expired(now)]
        victims = sorted(eligible, key=lambda it: it.sort_key)[-n:]
        for it in victims:
            self.pending.remove(it)
        return victims

    def ready_time(self, clock: VirtualClock) -> int | None:
        """The earliest virtual tick this queue could act: ``None``
        when empty, ``clock.now`` if anything is dispatchable or
        already expired, else the earliest backed-off ``not_before``.
        The fleet's discrete-event loop uses this to pick which shard
        moves next."""
        if not self.pending:
            return None
        if any(it.not_before <= clock.now or it.expired(clock.now)
               for it in self.pending):
            return clock.now
        return min(it.not_before for it in self.pending)

    def requeue(self, item: PendingItem, clock: VirtualClock) -> None:
        """Back off a broken-down item: eligible again at
        ``now + backoff * 2**retries``."""
        item.retries += 1
        item.not_before = clock.now + self.backoff * 2 ** (item.retries - 1)
        self.pending.append(item)
        self.recorder.emit(
            "retry", item.digest, tick=clock.now, shard=self.shard,
            retries=item.retries, not_before=item.not_before,
        )

    def next_batch(self, clock: VirtualClock
                   ) -> tuple[list[PendingItem], list[PendingItem]]:
        """Pop the next batch to execute plus any expired items.

        Expired items (deadline already missed at ``clock.now``) are
        removed first.  If every survivor is backed off into the
        future, the clock jumps to the earliest ``not_before`` (virtual
        time has nothing else to do).  The batch is every eligible item
        sharing the head item's batch key, in dispatch order, capped at
        ``max_batch``.
        """
        expired = [it for it in self.pending if it.expired(clock.now)]
        for it in expired:
            self.pending.remove(it)
        if not self.pending:
            return [], expired
        eligible = [it for it in self.pending if it.not_before <= clock.now]
        if not eligible:
            clock.jump_to(min(it.not_before for it in self.pending))
            eligible = [it for it in self.pending
                        if it.not_before <= clock.now]
        head = min(eligible, key=lambda it: it.sort_key)
        key = head.request.batch_key
        batch = sorted(
            (it for it in eligible if it.request.batch_key == key),
            key=lambda it: it.sort_key,
        )[: self.max_batch]
        for it in batch:
            self.pending.remove(it)
        return batch, expired
