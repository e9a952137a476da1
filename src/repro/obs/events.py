"""Request-scoped flight recorder: a typed, append-only event log.

Where :mod:`repro.obs.trace` answers "where did this *run* spend time",
the event log answers "what happened to request *X*": every hop a
request takes through the serving stack — submission, routing, queue
admission, batch formation, cache lookups, steals, retries, fail-over
replays, completion — is one :class:`Event` on the **virtual clock**,
carrying the request's causal id (its canonical request digest) and a
deterministic sequence number.

Because the serve/fleet layers run entirely on integer virtual clocks,
the event stream of a run is a pure function of (config, workload,
kill schedule): two identical runs produce bit-identical streams, and
the chained sha256 :attr:`EventLog.digest` certifies it.  The recorder
is therefore a *correctness gate*, not just a debugging aid — the
fail-over tests assert that a killed-and-recovered fleet reproduces
the exact per-request timelines of the failure-free run for every
request on a surviving shard.

Overhead contract: a service's recorder is always an
:class:`EventLog`.  ``recorder=None``, the constructor default, is
normalised once by :meth:`EventLog.of` to a log with ``enabled =
False``, and every instrumentation site is one unconditional
``recorder.emit(...)`` whose disabled path returns after a single
attribute check (measured at 0.2–0.8 µs per site, by keyword count;
EXPERIMENTS.md).  ``enabled`` is the one off-switch.

Event streams serialise to ``repro.obs/events.v1`` documents whose
stream digest is re-verified on load (the same integrity discipline as
the ``ckpt.v1`` checkpoints).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "EVENTS_SCHEMA_ID",
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "EventStreamCorruption",
    "save_events",
    "load_events",
]

EVENTS_SCHEMA_ID = "repro.obs/events.v1"

#: The closed vocabulary of the ``repro.obs/events.v1`` schema.  Every
#: site in the serving stack emits one of these:
#:
#: ``submit``          request reached a service (tick = arrival)
#: ``route``           consistent-hash ring picked the owning shard
#: ``enqueue``         the scheduler queued the item (also fired on
#:                     steal adoption and fail-over replay)
#: ``admit``           bounded admission accepted the request
#: ``reject``          admission refusal (``queue_full``) or deadline
#:                     expiry (``deadline_exceeded``)
#: ``batch_form``      the item joined a dispatched batch (attr ``bid``)
#: ``cache_hit``       artifact cache hit (attr ``tier`` = l1/l2;
#:                     ``ticks`` carries the l2 transfer cost)
#: ``cache_miss``      artifact cache miss (attr ``tier``)
#: ``build``           cold mesh/operator build (attr ``ticks``)
#: ``factor``          batch-key factorization built (attr ``ticks``)
#: ``solve_start``     the member's block solve began
#: ``solve_exec``      the batch solve executed (columns, matvecs)
#: ``steal_plan``      the stealing planner paired victim and thief
#: ``steal``           one item migrated between shards
#: ``retry``           breakdown re-queue with backoff
#: ``failover``        a shard was killed and a replacement rebuilt
#: ``failover_replay`` one in-flight request replayed onto the
#:                     replacement shard
#: ``complete``        the response was finalized (status, reason)
#: ``hedge``           a speculative copy was dispatched to the ring
#:                     successor (attrs ``src``, ``delay``)
#: ``hedge_win``       a hedged request completed; the losing copies
#:                     were cancelled (attr ``cancelled``)
#: ``breaker_open``    a shard's circuit breaker tripped open
#:                     (attrs ``failures``, ``window``)
#: ``breaker_half_open``  cooldown elapsed; the breaker admits one
#:                     probe request
#: ``breaker_close``   the half-open probe succeeded; traffic restored
#: ``shed``            brownout dropped a low-priority item before
#:                     dispatch (attrs ``depth``, ``priority``)
#: ``degrade``         an overloaded batch solved at loosened
#:                     tolerance (attr ``tol_scale``)
#: ``corrupt_detect``  an artifact failed its content-digest
#:                     re-verification (attr ``tier``)
#: ``quarantine``      the corrupted artifact was evicted and its key
#:                     quarantined pending rebuild
EVENT_KINDS = (
    "submit",
    "route",
    "enqueue",
    "admit",
    "reject",
    "batch_form",
    "cache_hit",
    "cache_miss",
    "build",
    "factor",
    "solve_start",
    "solve_exec",
    "steal_plan",
    "steal",
    "retry",
    "failover",
    "failover_replay",
    "complete",
    "hedge",
    "hedge_win",
    "breaker_open",
    "breaker_half_open",
    "breaker_close",
    "shed",
    "degrade",
    "corrupt_detect",
    "quarantine",
)

_KIND_SET = frozenset(EVENT_KINDS)


class EventStreamCorruption(RuntimeError):
    """A persisted event stream failed its digest re-verification."""


@dataclass(frozen=True)
class Event:
    """One flight-recorder event.

    ``seq`` is the 1-based emission index (deterministic: the event
    loop that produced it is), ``tick`` the emitting layer's virtual
    clock, ``rid`` the causal request id (the canonical request digest;
    empty for batch-/shard-scoped events, which join a request's
    timeline through their ``bid`` attr), ``shard`` the emitting shard
    (``None`` for a bare :class:`repro.serve.SolverService`).
    """

    seq: int
    tick: int
    kind: str
    rid: str = ""
    shard: str | None = None
    attrs: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "seq": self.seq,
            "tick": self.tick,
            "kind": self.kind,
            "rid": self.rid,
            "shard": self.shard,
            "attrs": self.attrs,
        }

    def get(self, key: str, default=None):
        """Shorthand attr access (``ev.get("bid")``)."""
        return self.attrs.get(key, default)


def _canonical(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


class EventLog:
    """Append-only, digest-chained event stream.

    Events are immutable once emitted; the log folds each event's
    canonical JSON document into a running sha256 chain in emission
    order, so :attr:`digest` certifies the *entire causal history* of a
    run the way the serve/fleet stream digests certify the response
    set.  ``enabled = False`` turns :meth:`emit` into a one-check no-op.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = bool(enabled)
        self.events: list[Event] = []
        self._stream = hashlib.sha256()

    @classmethod
    def of(cls, recorder: "EventLog | None") -> "EventLog":
        """The log a ``recorder=`` constructor argument denotes: itself,
        or a disabled log for ``None``.  Tested with ``is None`` — a
        fresh live log has ``len() == 0`` and is falsy."""
        return cls(enabled=False) if recorder is None else recorder

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, kind: str, rid: str = "", *, tick: int,
             shard: str | None = None, **attrs) -> Event | None:
        """Append one event; returns it (or ``None`` while disabled).

        ``attrs`` must be JSON-serialisable; numpy scalars are coerced.
        Unknown kinds are rejected — the schema is a closed vocabulary
        so downstream reconstruction never meets a surprise.
        """
        if not self.enabled:
            return None
        if kind not in _KIND_SET:
            raise ValueError(f"unknown event kind {kind!r}")
        clean = {}
        for k, v in attrs.items():
            if hasattr(v, "item"):  # numpy scalar → plain python
                v = v.item()
            clean[k] = v
        ev = Event(seq=len(self.events) + 1, tick=int(tick), kind=kind,
                   rid=rid, shard=shard, attrs=clean)
        self.events.append(ev)
        self._stream.update(_canonical(ev.to_doc()))
        return ev

    @property
    def digest(self) -> str:
        """sha256 chained over canonical event documents in sequence
        order — bit-identical across identical replays."""
        return self._stream.hexdigest()

    # -- queries ---------------------------------------------------------

    def for_request(self, rid: str) -> list[Event]:
        """All events carrying exactly this request id, in seq order."""
        return [ev for ev in self.events if ev.rid == rid]

    def request_ids(self) -> list[str]:
        """Distinct request ids in order of first appearance."""
        seen: dict[str, None] = {}
        for ev in self.events:
            if ev.rid and ev.rid not in seen:
                seen[ev.rid] = None
        return list(seen)

    def kinds(self) -> dict[str, int]:
        """Event-kind tally (diagnostics)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return dict(sorted(out.items()))

    # -- persistence -----------------------------------------------------

    def to_doc(self, name: str = "") -> dict:
        return {
            "schema": EVENTS_SCHEMA_ID,
            "name": name,
            "n_events": len(self.events),
            "digest": self.digest,
            "events": [ev.to_doc() for ev in self.events],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "EventLog":
        """Rebuild a log from its document, re-verifying the digest
        chain (an edited or truncated stream fails loudly)."""
        if doc.get("schema") != EVENTS_SCHEMA_ID:
            raise ValueError(
                f"not a {EVENTS_SCHEMA_ID} document "
                f"(schema={doc.get('schema')!r})"
            )
        log = cls()
        for edoc in doc.get("events", []):
            ev = log.emit(
                edoc["kind"], edoc.get("rid", ""), tick=edoc["tick"],
                shard=edoc.get("shard"), **(edoc.get("attrs") or {}),
            )
            if ev.seq != edoc.get("seq"):
                raise EventStreamCorruption(
                    f"event stream gap: expected seq {ev.seq}, "
                    f"document says {edoc.get('seq')}"
                )
        if log.digest != doc.get("digest"):
            raise EventStreamCorruption(
                "event stream digest mismatch: "
                f"recomputed {log.digest[:16]}…, "
                f"document claims {str(doc.get('digest'))[:16]}…"
            )
        return log


def save_events(path, log: EventLog, name: str = "") -> Path:
    """Write a log as a ``repro.obs/events.v1`` JSON document."""
    path = Path(path)
    path.write_text(json.dumps(log.to_doc(name), indent=1) + "\n")
    return path


def load_events(path) -> EventLog:
    """Load and digest-verify a persisted event stream."""
    return EventLog.from_doc(json.loads(Path(path).read_text()))
