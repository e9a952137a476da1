"""Consistent-hash request routing by operator-plan fingerprint.

Requests are routed by their :attr:`repro.serve.api.SolveRequest.mesh_digest`
— the request-side proxy of the operator-plan fingerprint (it is the
key the artifact caches alias to the post-build fingerprint of
:func:`repro.core.plan.mesh_fingerprint`).  Routing by discretization
identity is what makes a sharded fleet cache-efficient: every request
for the same carved mesh lands on the same shard, so that shard's L1
holds the mesh/operator artifacts exactly once fleet-wide (modulo
stolen work, which the shared second tier covers).

The ring is the classic construction: each shard owns ``vnodes``
pseudo-random points on a sha256 ring; a key routes to the first shard
point at or clockwise-after the key's own hash.  Everything is derived
from sha256 of stable strings — no RNG, no insertion-order dependence —
so any process that builds the same ring routes identically.  Removing
a shard (fail-over) only remaps the keyspace the dead shard owned;
every other key keeps its shard, which is why a kill does not
invalidate the survivors' caches.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing"]


def _point(data: str) -> int:
    """64-bit ring position of a string."""
    return int.from_bytes(
        hashlib.sha256(data.encode()).digest()[:8], "big"
    )


class HashRing:
    """Deterministic consistent-hash ring over named shards."""

    def __init__(self, shard_ids: list[str], vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self._points: list[tuple[int, str]] = []
        self._ids: list[str] = []
        for sid in shard_ids:
            self.add(sid)

    @property
    def shard_ids(self) -> list[str]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def add(self, shard_id: str) -> None:
        if shard_id in self._ids:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._ids.append(shard_id)
        for v in range(self.vnodes):
            self._points.append((_point(f"{shard_id}#{v}"), shard_id))
        self._points.sort()

    def remove(self, shard_id: str) -> None:
        if shard_id not in self._ids:
            raise ValueError(f"shard {shard_id!r} not on the ring")
        self._ids.remove(shard_id)
        self._points = [(p, s) for p, s in self._points if s != shard_id]

    def route(self, key: str) -> str:
        """The shard owning ``key`` (first point clockwise of its hash)."""
        if not self._points:
            raise RuntimeError("cannot route on an empty ring")
        h = _point(key)
        i = bisect.bisect_right(self._points, (h, ""))
        if i == len(self._points):
            i = 0
        return self._points[i][1]

    def successors(self, key: str) -> list[str]:
        """Every live shard in ring order starting at ``key``'s owner.

        The fall-back order for breaker-aware routing and hedged
        re-dispatch: element 0 is :meth:`route`'s answer, element 1 is
        the shard that would inherit the key if the owner left the
        ring, and so on — the same deterministic construction, so any
        process that builds the same ring walks identically.
        """
        if not self._points:
            return []
        h = _point(key)
        i = bisect.bisect_right(self._points, (h, ""))
        out: list[str] = []
        n = len(self._points)
        for k in range(n):
            sid = self._points[(i + k) % n][1]
            if sid not in out:
                out.append(sid)
                if len(out) == len(self._ids):
                    break
        return out
