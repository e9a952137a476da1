"""Shared second-tier artifact cache with hit-rate promotion/demotion.

Each shard's :class:`repro.serve.cache.ArtifactCache` is its private
L1; the fleet shares one :class:`TierCache` (L2) behind all of them.
The tiers interact at exactly three points:

* **write-through on build** — the shard that pays a cold mesh build
  publishes the entry here, so every other shard (work stealing,
  fail-over replacements) can fetch it for a transfer cost instead of
  rebuilding: each discretization is built at most once fleet-wide;
* **demotion on L1 eviction** — an entry falling out of a shard's L1
  byte budget is offered back (victim caching) rather than dropped;
* **fetch on L1 miss** — the shard adapter consults L2 between its L1
  miss and a cold build, paying :meth:`fetch_cost` virtual ticks
  (size-proportional, ~1/16 of the build cost).

Promotion/demotion is hit-rate driven and fully deterministic: L2
counts per-fingerprint fetch hits in a sliding window (counts halve
every ``window`` operations — integer decay, no wall clock).  An entry
whose windowed hit count reaches ``promote_after`` is **promoted**
(pinned: the byte-budget eviction scan skips it), and a pinned entry
whose count decays below ``demote_below`` is **demoted** back to
evictable.  Eviction among evictable entries is LRU by operation
sequence, so identical fleet runs evict identically.

Metrics: ``fleet.l2.{hits,misses,evictions,promotions,demotions}``
counters and ``fleet.l2.{bytes,entries}`` gauges.
"""

from __future__ import annotations

from ..obs import add as obs_add
from ..obs import set_gauge
from ..serve.cache import CacheEntry
from ..serve.scheduler import cost_build

__all__ = ["TierCache"]


class TierCache:
    """Deterministic shared L2 over :class:`CacheEntry` objects."""

    def __init__(self, byte_budget: int = 512 << 20, *,
                 promote_after: int = 4, demote_below: int = 2,
                 window: int = 32, fetch_cost_divisor: int = 16):
        if promote_after < 1 or window < 1:
            raise ValueError("promote_after and window must be >= 1")
        if byte_budget < 0:
            raise ValueError(f"byte_budget must be >= 0 (got {byte_budget})")
        self.byte_budget = int(byte_budget)
        self.promote_after = int(promote_after)
        self.demote_below = int(demote_below)
        self.window = int(window)
        self.fetch_cost_divisor = int(fetch_cost_divisor)
        self._entries: dict[str, CacheEntry] = {}   # fingerprint → entry
        #: mesh digest → fingerprint; kept even after eviction so a
        #: re-published victim stays fetchable by request-side digest
        self._alias: dict[str, str] = {}
        self._lru: dict[str, int] = {}
        self._counts: dict[str, int] = {}
        self._pinned: set[str] = set()
        self._seq = 0
        self._ops = 0
        self.hits = 0
        self.misses = 0
        self.promotions = 0
        self.demotions = 0
        self.eviction_log: list[str] = []
        #: fingerprints dropped after failing digest re-verification on
        #: fetch (a shard's write-through shares the entry object, so
        #: damage in one tier is visible — and quarantined — in both)
        self.quarantined: set[str] = set()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    @property
    def pinned(self) -> frozenset[str]:
        return frozenset(self._pinned)

    def fetch_cost(self, entry: CacheEntry) -> int:
        """Virtual ticks to pull an entry out of the shared tier."""
        return max(1, cost_build(entry.mesh.n_elem) // self.fetch_cost_divisor)

    # -- internal bookkeeping --------------------------------------------

    def _touch(self, fp: str) -> None:
        self._seq += 1
        self._lru[fp] = self._seq

    def _tick(self) -> None:
        """One cache operation: drives the deterministic promote/demote
        window (counts halve; pins recomputed from the decayed rates)."""
        self._ops += 1
        if self._ops % self.window:
            return
        for fp in sorted(self._counts):
            c = self._counts[fp]
            if fp in self._entries and c >= self.promote_after \
                    and fp not in self._pinned:
                self._pinned.add(fp)
                self.promotions += 1
                obs_add("fleet.l2.promotions", 1)
            elif fp in self._pinned and c < self.demote_below:
                self._pinned.discard(fp)
                self.demotions += 1
                obs_add("fleet.l2.demotions", 1)
            self._counts[fp] = c >> 1

    # -- the tier interface ----------------------------------------------

    def fetch(self, mesh_digest: str) -> CacheEntry | None:
        """Resolve a shard's L1 miss; publishes fleet.l2 hit/miss."""
        self._tick()
        fp = self._alias.get(mesh_digest)
        entry = self._entries.get(fp) if fp is not None else None
        if entry is None:
            self.misses += 1
            obs_add("fleet.l2.misses", 1)
            return None
        self.hits += 1
        obs_add("fleet.l2.hits", 1)
        self._counts[fp] = self._counts.get(fp, 0) + 1
        self._touch(fp)
        return entry

    def quarantine(self, entry: CacheEntry) -> None:
        """Drop a corruption-flagged entry from the tier.

        The alias stays (a rebuilt replacement re-publishes under the
        same fingerprint); the fingerprint is remembered for audit and
        counted as ``fleet.l2.quarantined``.
        """
        fp = entry.fingerprint
        self.quarantined.add(fp)
        obs_add("fleet.l2.quarantined", 1)
        if fp in self._entries:
            del self._entries[fp]
            del self._lru[fp]
            self._pinned.discard(fp)
        self._publish_gauges()

    def publish(self, mesh_digest: str, entry: CacheEntry) -> None:
        """Write-through from a shard's cold build (registers the
        request-side alias)."""
        self._alias[mesh_digest] = entry.fingerprint
        self.publish_entry(entry)

    def publish_entry(self, entry: CacheEntry) -> None:
        """(Re-)insert an entry — the L1 victim-demotion hook.  The
        alias learned at first publish persists, so the entry stays
        fetchable."""
        self._tick()
        fp = entry.fingerprint
        if fp not in self._entries:
            self._entries[fp] = entry
            self._counts.setdefault(fp, 0)
        self._touch(fp)
        self.enforce_budget(protect=fp)
        self._publish_gauges()

    def enforce_budget(self, protect: str | None = None) -> None:
        """Evict until within budget: unpinned LRU first, pinned LRU
        only if the unpinned set alone cannot make room."""
        while self.nbytes > self.byte_budget and len(self._entries) > 1:
            pool = [fp for fp in self._entries
                    if fp != protect and fp not in self._pinned]
            if not pool:
                pool = [fp for fp in self._entries if fp != protect]
            if not pool:
                break
            victim = min(pool, key=lambda fp: self._lru[fp])
            del self._entries[victim]
            del self._lru[victim]
            self._pinned.discard(victim)
            self.eviction_log.append(victim)
            obs_add("fleet.l2.evictions", 1)
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        set_gauge("fleet.l2.bytes", self.nbytes)
        set_gauge("fleet.l2.entries", len(self._entries))

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes": self.nbytes,
            "byte_budget": self.byte_budget,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": len(self.eviction_log),
            "promotions": self.promotions,
            "demotions": self.demotions,
            "pinned": len(self._pinned),
            "quarantined": len(self.quarantined),
        }
