"""repro.serve — deterministic solver-as-a-service.

Turns the repo's one-shot pipeline (carve → refine → assemble → solve)
into a bounded, observable service: typed versioned requests, a
content-addressed artifact cache keyed by the operator-plan
fingerprint, fingerprint batching (a batch solves the unit problems its
requests are linear in once and combines them per request), and a
virtual-clock scheduler with admission control, deadlines and
retry-with-backoff.  Everything is deterministic — identical request
streams produce bit-identical response digests.
"""

from .api import (
    PDE_KINDS,
    REQ_SCHEMA_ID,
    RESP_SCHEMA_ID,
    Rejected,
    SolveRequest,
    SolveResponse,
    canonical_geometry,
    solution_digest,
)
from .batcher import BatchOutcome, build_entry, ensure_factor, solve_batch
from .cache import ArtifactCache, CacheEntry
from .scheduler import PendingItem, Scheduler, VirtualClock
from .service import SolverClient, SolverService, demo_workload

__all__ = [
    "REQ_SCHEMA_ID",
    "RESP_SCHEMA_ID",
    "PDE_KINDS",
    "SolveRequest",
    "SolveResponse",
    "Rejected",
    "canonical_geometry",
    "solution_digest",
    "ArtifactCache",
    "CacheEntry",
    "BatchOutcome",
    "build_entry",
    "ensure_factor",
    "solve_batch",
    "Scheduler",
    "VirtualClock",
    "PendingItem",
    "SolverService",
    "SolverClient",
    "demo_workload",
]
