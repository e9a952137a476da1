"""Content-addressed artifact cache with byte-budgeted LRU eviction.

The cache is what turns the repo's one-shot pipeline into a service:
the expensive artifacts of a discretization — the carved mesh, its
:class:`repro.core.plan.OperatorContext` and any factorized operators
(assembled stiffness + Jacobi diagonal, SBM LU, transport LU) — are
built once and then served to every request that shares the
operator-plan fingerprint.  A cache-hot request never opens a
``build_mesh`` / ``plan.context_build`` span at all; the smoke tests
assert that.

Keying is two-level, both content-addressed:

* entries are stored under the **plan fingerprint** of
  :func:`repro.core.plan.mesh_fingerprint` (the post-build truth);
* the request-side **mesh digest** (geometry + depth + order, known
  before any build) is aliased to the fingerprint on first insert, so
  later requests resolve without rebuilding anything.

Eviction is deterministic LRU over a byte budget: entries are ranked
by a monotonically increasing use sequence (no wall clock anywhere),
so identical request streams evict identically — the determinism tests
replay a stream under different arrival interleavings and assert the
eviction order matches.  The use sequence is cache-private (not stored
on the entry), so one :class:`CacheEntry` object can be shared by
several caches — the fleet layer keeps the same entry in a shard's L1
and the shared second tier simultaneously.

Integrity is checked where the bytes are read.  An entry seals its
base arrays at construction and every factor seals each unit response
it stores; a hit re-hashes exactly what the request's batch key will
read (:meth:`CacheEntry.reads`) — the sealed units of a hot key, the
base arrays of a key whose factor has yet to be built or solved.  The
fleet's L2 fetch re-hashes everything (:meth:`CacheEntry.verify`),
since the tiers share entry objects.

Metrics: ``serve.cache.{hits,misses,evictions}`` counters and
``serve.cache.{bytes,entries}`` gauges.  A *named* cache (the fleet
gives each shard's L1 its shard id) labels every metric with
``cache="<name>"``, so per-shard cache pressure — bytes and entries
against the budget — is separable in one registry snapshot; tier
promotion decisions and ``fleet-stats`` read exactly these gauges.

``on_evict(entry)``, when set, observes every eviction — the fleet's
demotion hook: an entry falling out of a shard's L1 is offered to the
shared second tier instead of being dropped.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from typing import NamedTuple

import scipy.sparse as sp

from ..obs import add as obs_add
from ..obs import set_gauge
from ..resilience.faults import ArtifactCorruption
from .api import solution_digest

__all__ = ["CacheEntry", "ArtifactCache", "ArtifactCorruption"]


def _obj_nbytes(obj) -> int:
    """Best-effort byte size of a cached artifact."""
    if obj is None:
        return 0
    if sp.issparse(obj):
        return sum(
            getattr(obj, a).nbytes
            for a in ("data", "indices", "indptr")
            if hasattr(obj, a)
        )
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    return 0


def _entry_base_nbytes(mesh, ctx) -> int:
    total = sum(a.nbytes for a in _base_arrays(mesh, ctx))
    return int(total + _obj_nbytes(ctx.gather))


def _base_arrays(mesh, ctx) -> tuple:
    """The entry's base arrays, in sealing order: the leaf octants,
    nodal coordinates and the operator context's per-node metadata."""
    return (mesh.leaves.anchors, mesh.leaves.levels, mesh.nodes.coords,
            ctx.h, ctx.levels)


def _entry_content_digest(mesh, ctx) -> str:
    """sha256 over the entry's base arrays — its birth certificate.

    Factors are built from these, so verifying the base before a factor
    build is what guards every solve the factor will serve.
    """
    h = hashlib.sha256()
    for arr in _base_arrays(mesh, ctx):
        h.update(f"{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class Sealed(NamedTuple):
    """Arrays a cache hit reads and the sha256 they were sealed under."""

    arrays: tuple
    digest: str
    rehash: Callable[[], str]   # the digest of the arrays as they are now


def _unit_seals(factor) -> list[Sealed]:
    """A factor's sealed unit responses, each under its
    :func:`~repro.serve.api.solution_digest`."""
    return [Sealed((u,), seal, lambda u=u: solution_digest(u))
            for u, seal in factor.sealed()]


class CacheEntry:
    """One discretization's artifacts: mesh + operator context + factors.

    ``factors`` maps a solver-parameter digest
    (:attr:`repro.serve.api.SolveRequest.batch_key`) to a factor object
    built by :mod:`repro.serve.batcher`; each factor reports its own
    byte estimate so the cache can account for it.  ``content_digest``
    seals the base arrays at construction, and each factor seals the
    unit responses it stores: :meth:`reads` names what a hit on one
    batch key reads and :meth:`verify` re-hashes everything the entry
    holds.
    """

    __slots__ = ("fingerprint", "mesh", "ctx", "factors", "nbytes",
                 "content_digest")

    def __init__(self, fingerprint: str, mesh, ctx):
        self.fingerprint = fingerprint
        self.mesh = mesh
        self.ctx = ctx
        self.factors: dict[str, object] = {}
        self.nbytes = _entry_base_nbytes(mesh, ctx)
        self.content_digest = _entry_content_digest(mesh, ctx)

    def add_factor(self, key: str, factor, nbytes: int) -> None:
        """A factor's bytes are fixed at build, so the sum is kept."""
        self.factors[key] = factor
        self.nbytes += int(nbytes)

    def _base(self) -> Sealed:
        mesh, ctx = self.mesh, self.ctx
        return Sealed(_base_arrays(mesh, ctx), self.content_digest,
                      lambda: _entry_content_digest(mesh, ctx))

    def reads(self, batch_key: str) -> list[Sealed]:
        """What a hit on ``batch_key`` reads, piece by piece.

        A hot hit serves the sealed unit responses of the key's factor
        and touches nothing else; a key with no factor yet, or with an
        empty memo, reads the base arrays its factor solves from.
        """
        factor = self.factors.get(batch_key)
        units = _unit_seals(factor) if factor is not None else []
        return units or [self._base()]

    def check(self, pieces: list[Sealed], *, tier: str = "l1") -> None:
        """Re-hash each piece; raise on the first mismatch."""
        for piece in pieces:
            actual = piece.rehash()
            if actual != piece.digest:
                raise ArtifactCorruption(
                    self.fingerprint, tier=tier,
                    detail=f"stored {piece.digest[:12]}… "
                           f"recomputed {actual[:12]}…",
                )

    def verify(self, *, tier: str = "l1") -> None:
        """Re-hash the base and every sealed unit of every factor."""
        self.check([self._base(), *(s for f in self.factors.values()
                                     for s in _unit_seals(f))], tier=tier)


class ArtifactCache:
    """Deterministic byte-budgeted LRU over :class:`CacheEntry` objects."""

    def __init__(self, byte_budget: int = 256 << 20, name: str | None = None):
        if byte_budget < 0:
            raise ValueError(f"byte_budget must be >= 0 (got {byte_budget})")
        self.byte_budget = int(byte_budget)
        self.name = name
        self._labels = {} if name is None else {"cache": name}
        self._entries: dict[str, CacheEntry] = {}   # fingerprint → entry
        self._alias: dict[str, str] = {}            # mesh digest → fingerprint
        self._lru: dict[str, int] = {}              # fingerprint → use seq
        self._seq = 0
        self.hits = 0
        self.misses = 0
        #: fingerprints in eviction order — asserted bit-identical by
        #: the interleaving-determinism tests
        self.eviction_log: list[str] = []
        #: observer called with each evicted entry (fleet demotion hook)
        self.on_evict = None
        #: fingerprints whose entries failed digest re-verification —
        #: evicted, counted (``serve.cache.quarantined``) and remembered
        #: so operators can audit which artifacts went bad
        self.quarantined: set[str] = set()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def _touch(self, entry: CacheEntry) -> None:
        self._seq += 1
        self._lru[entry.fingerprint] = self._seq

    def peek(self, mesh_digest: str) -> CacheEntry | None:
        """Resolve without touching LRU state or hit/miss counters —
        the inspection hook the chaos harness uses to find (and damage)
        a live entry without perturbing cache determinism."""
        fp = self._alias.get(mesh_digest)
        return self._entries.get(fp) if fp is not None else None

    def lookup(self, mesh_digest: str, batch_key: str) -> CacheEntry | None:
        """Resolve a request-side mesh digest; publishes hit/miss.

        Every hit re-verifies what it will read for ``batch_key``
        (:meth:`CacheEntry.reads`): the sealed unit responses a hot batch
        is formed from, or the base arrays a factor is built from.  A
        mismatch evicts + quarantines the artifact and raises
        :class:`ArtifactCorruption` — the owning service treats it as a
        miss and rebuilds, so a flipped byte costs one rebuild, never a
        wrong solve.
        """
        fp = self._alias.get(mesh_digest)
        entry = self._entries.get(fp) if fp is not None else None
        if entry is None:
            self.misses += 1
            obs_add("serve.cache.misses", 1, **self._labels)
            return None
        try:
            entry.check(entry.reads(batch_key))
        except ArtifactCorruption:
            self.misses += 1
            obs_add("serve.cache.misses", 1, **self._labels)
            self.quarantine(entry)
            raise
        self.hits += 1
        obs_add("serve.cache.hits", 1, **self._labels)
        self._touch(entry)
        return entry

    def quarantine(self, entry: CacheEntry) -> None:
        """Evict a corrupted entry and remember its fingerprint.

        The eviction bypasses ``on_evict`` — a corrupted artifact must
        never be demoted into the shared second tier.
        """
        self.quarantined.add(entry.fingerprint)
        obs_add("serve.cache.quarantined", 1, **self._labels)
        if entry.fingerprint in self._entries:
            self._evict(entry, demote=False)
        self._publish_gauges()

    def insert(self, mesh_digest: str, entry: CacheEntry) -> CacheEntry:
        """Insert (or re-alias to an existing fingerprint) and enforce
        the byte budget.  The inserted entry itself is never evicted by
        its own insertion."""
        existing = self._entries.get(entry.fingerprint)
        if existing is not None:
            # two mesh specs can legitimately hash to the same carved
            # discretization — share the entry, keep one copy
            self._alias[mesh_digest] = existing.fingerprint
            self._touch(existing)
            return existing
        self._entries[entry.fingerprint] = entry
        self._alias[mesh_digest] = entry.fingerprint
        self._touch(entry)
        self.enforce_budget(protect=entry.fingerprint)
        self._publish_gauges()
        return entry

    def enforce_budget(self, protect: str | None = None) -> None:
        """Evict least-recently-used entries until within budget.

        ``protect`` pins one fingerprint (the entry being served right
        now); if that single entry alone exceeds the budget it stays —
        a service cannot refuse to hold the discretization it is
        actively solving on.
        """
        while self.nbytes > self.byte_budget and len(self._entries) > 1:
            victim = min(
                (e for e in self._entries.values()
                 if e.fingerprint != protect),
                key=lambda e: self._lru[e.fingerprint],
                default=None,
            )
            if victim is None:
                break
            self._evict(victim)
        self._publish_gauges()

    def _evict(self, entry: CacheEntry, demote: bool = True) -> None:
        del self._entries[entry.fingerprint]
        del self._lru[entry.fingerprint]
        for k in [k for k, fp in self._alias.items()
                  if fp == entry.fingerprint]:
            del self._alias[k]
        self.eviction_log.append(entry.fingerprint)
        obs_add("serve.cache.evictions", 1, **self._labels)
        if demote and self.on_evict is not None:
            self.on_evict(entry)

    def _publish_gauges(self) -> None:
        set_gauge("serve.cache.bytes", self.nbytes, **self._labels)
        set_gauge("serve.cache.entries", len(self._entries), **self._labels)

    def stats(self) -> dict:
        return {
            "name": self.name,
            "entries": len(self._entries),
            "bytes": self.nbytes,
            "byte_budget": self.byte_budget,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": len(self.eviction_log),
            "quarantined": len(self.quarantined),
        }
