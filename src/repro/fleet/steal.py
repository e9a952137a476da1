"""Cross-shard work stealing: deterministic migration planning.

Consistent-hash routing by discretization identity is cache-optimal
but load-oblivious: a zipf-popular mesh sends a disproportionate share
of traffic to one shard while its neighbours idle.  Stealing is the
corrective: whenever a shard's queue depth exceeds ``threshold`` and
another shard is idle, up to half the victim's backlog migrates.

Everything is deterministic given the fleet state:

* :func:`plan_steals` pairs the deepest overloaded shard with the
  idle shard of lowest id, repeatedly, until no shard is over
  threshold or no idle shard remains (ties broken by shard id);
* the items taken are the *tail* of the victim's dispatch order
  (see :meth:`repro.serve.scheduler.Scheduler.steal_items`), so the
  batch about to dispatch on the victim is never broken up;
* a stolen item keeps its submission tick and retry count, and becomes
  eligible on the thief ``latency`` virtual ticks after the steal (the
  migration is not free).

Stolen items usually share a batch key (they are the popular mesh's
backlog), so they batch on the thief exactly as they would have on the
victim — and the thief finds the mesh artifacts in the shared second
tier, paying a fetch instead of a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StealPlan", "StealEvent", "plan_steals"]


@dataclass(frozen=True)
class StealPlan:
    """One planned migration: move ``n`` items from ``src`` to ``dst``."""

    src: str
    dst: str
    n: int


@dataclass(frozen=True)
class StealEvent:
    """One executed migration (fleet log entry)."""

    tick: int
    src: str
    dst: str
    digests: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.digests)


def plan_steals(depths: dict[str, int], *, threshold: int,
                capacity: dict[str, int] | None = None,
                max_items: int | None = None,
                exclude=None) -> list[StealPlan]:
    """Plan migrations for the current fleet queue depths.

    ``depths`` maps shard id → pending count for *alive* shards.
    A shard is overloaded when ``depth > threshold`` and a target when
    ``depth == 0``.  Each plan moves ``min(depth // 2, max_items,
    capacity[dst])`` items; depths are updated between pairings so one
    deep victim can feed several idle shards deterministically.

    ``exclude`` removes shards from the *thief* pool — the fleet passes
    its open-circuit-breaker set, so an unhealthy shard that happens to
    have an empty queue (because nothing routes to it) never receives
    migrated work.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    work = dict(depths)
    free = dict(capacity) if capacity else None
    banned = frozenset(exclude or ())
    idle = sorted(sid for sid, d in work.items()
                  if d == 0 and sid not in banned)
    plans: list[StealPlan] = []
    for dst in idle:
        over = [(d, sid) for sid, d in work.items() if d > threshold]
        if not over:
            break
        depth, src = sorted(over, key=lambda t: (-t[0], t[1]))[0]
        n = depth // 2
        if max_items is not None:
            n = min(n, max_items)
        if free is not None:
            n = min(n, free.get(dst, n))
        if n < 1:
            continue
        plans.append(StealPlan(src=src, dst=dst, n=n))
        work[src] -= n
        work[dst] += n
        if free is not None:
            free[dst] = free.get(dst, n) - n
    return plans
