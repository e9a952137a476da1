"""repro.fleet — deterministic sharded serving fleet.

Scales :mod:`repro.serve` from one service to N shards behind a
consistent-hash ring keyed by operator-plan fingerprint, with a shared
second-tier artifact cache (hit-rate-driven promote/demote), cross-
shard work stealing when queues spike, and checkpointed replica
fail-over that replays a killed shard's in-flight requests
bit-identically on a survivor.  The whole fleet — faults, steals and
all — runs as a discrete-event simulation on integer virtual clocks
and is certified by stream digests.  Every fault, a shard kill
included, is an entry in one seeded
:class:`repro.resilience.faults.FaultSchedule` passed as ``chaos=``.
"""

from .defense import BreakerPolicy, CircuitBreaker, HedgePolicy
from .failover import (
    FailoverEvent,
    ShardCheckpointer,
    ShardLog,
    item_doc,
    rebuild_queue,
)
from .router import HashRing
from .service import FleetService, FleetShard, core_digest, core_doc
from .steal import StealEvent, StealPlan, plan_steals
from .tiercache import TierCache
from .workload import Arrival, mesh_catalog, synthetic_workload

__all__ = [
    "HashRing",
    "TierCache",
    "HedgePolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "StealPlan",
    "StealEvent",
    "plan_steals",
    "ShardLog",
    "ShardCheckpointer",
    "FailoverEvent",
    "item_doc",
    "rebuild_queue",
    "Arrival",
    "mesh_catalog",
    "synthetic_workload",
    "FleetShard",
    "FleetService",
    "core_doc",
    "core_digest",
]

