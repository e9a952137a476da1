"""Fleet defense layers: hedged requests and per-shard circuit breakers.

Tail latency in a sharded fleet is dominated by stragglers: one slow or
stalled shard holds every request routed to it hostage while the rest
of the fleet idles.  Two classic defenses, both deterministic on the
virtual clock:

**Hedged requests** (:class:`HedgePolicy`).  When a delivery has been
in flight longer than the *hedge delay*, the fleet speculatively
re-dispatches a copy of it to the ring successor shard.  First
completion wins; the guard in :class:`repro.fleet.service.FleetService`
suppresses the loser and cancels still-queued copies, so completion
stays exactly-once.  The delay is derived from observed fleet behavior:
until ``min_samples`` completions it is the conservative
``initial_delay``; afterwards it is
``max(min_delay, multiplier * (p95 wait + p95 service))`` over the
fleet's deterministic latency histograms — the standard
"hedge above the p95" recipe, computed from virtual ticks.

**Per-shard circuit breakers** (:class:`BreakerPolicy`,
:class:`CircuitBreaker`).  Each shard has a closed → open → half-open
state machine over a sliding window of completion outcomes.  A shard
whose windowed failure rate reaches ``failure_threshold`` opens its
breaker: the router walks past it to the next ring successor, and the
work-stealing planner stops treating it as an idle target.  After
``cooldown`` virtual ticks the breaker goes half-open and admits
exactly **one** probe request; the probe's outcome closes the breaker
or re-opens it for another cooldown.  All transitions are emitted to
the flight recorder (``breaker_open`` / ``breaker_half_open`` /
``breaker_close``), so SLO health snapshots can count them.

Everything here is a pure function of the event history — no wall
clock, no RNG — so fleets with breakers and hedging replay
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import EventLog

__all__ = ["HedgePolicy", "BreakerPolicy", "CircuitBreaker"]


@dataclass(frozen=True)
class HedgePolicy:
    """Knobs for speculative re-dispatch of slow deliveries.

    ``initial_delay`` applies until ``min_samples`` fleet completions
    have been observed (the histograms are too thin to trust earlier);
    after that the delay tracks the observed p95 wait + service time,
    scaled by ``multiplier`` and floored at ``min_delay``.  A hedged
    copy becomes eligible on the successor ``transfer_latency`` ticks
    after the hedge fires (the migration is not free), and each
    delivery is hedged at most ``max_hedges`` times.
    """

    min_delay: int = 2_000
    multiplier: float = 3.0
    min_samples: int = 8
    initial_delay: int = 50_000
    transfer_latency: int = 100
    max_hedges: int = 1


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs for the per-shard closed/open/half-open breaker."""

    #: sliding window length (completion outcomes) for the failure rate
    window: int = 16
    #: open when ``failures / window_len >= failure_threshold``
    failure_threshold: float = 0.5
    #: never open before this many outcomes are in the window
    min_samples: int = 8
    #: virtual ticks an open breaker waits before going half-open
    cooldown: int = 20_000


class CircuitBreaker:
    """Deterministic per-shard breaker over completion outcomes.

    The owning fleet calls :meth:`allow` at every routing decision
    (arrival delivery and hedge-target selection) and :meth:`record`
    with every solve outcome attributed to the shard.  State
    transitions emit typed flight-recorder events.
    """

    def __init__(self, shard_id: str, policy: BreakerPolicy | None = None,
                 recorder=None):
        self.shard_id = shard_id
        self.policy = policy or BreakerPolicy()
        self.recorder = EventLog.of(recorder)
        #: "closed" | "open" | "half_open"
        self.state = "closed"
        self._window: list[bool] = []
        self._opened_at = 0
        self._probe_inflight = False
        #: lifetime count of closed→open (and re-open) transitions
        self.opens = 0

    def _emit(self, kind: str, tick: int, **attrs) -> None:
        self.recorder.emit(kind, tick=tick, shard=self.shard_id, **attrs)

    def allow(self, tick: int) -> bool:
        """May the router send work to this shard at ``tick``?

        An open breaker whose cooldown elapsed transitions to
        half-open here and admits exactly one probe; further calls
        return False until :meth:`record` resolves the probe.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            if tick < self._opened_at + self.policy.cooldown:
                return False
            self.state = "half_open"
            self._probe_inflight = False
            self._emit("breaker_half_open", tick)
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record(self, ok: bool, tick: int) -> None:
        """Fold one completion outcome on this shard into the breaker."""
        if self.state == "half_open":
            # whatever completes first on a half-open shard is the
            # probe's verdict: the shard demonstrably served (or
            # failed) work
            self._probe_inflight = False
            if ok:
                self.state = "closed"
                self._window = []
                self._emit("breaker_close", tick)
            else:
                self.state = "open"
                self._opened_at = tick
                self.opens += 1
                self._emit("breaker_open", tick, probe=True)
            return
        self._window.append(bool(ok))
        if len(self._window) > self.policy.window:
            del self._window[: len(self._window) - self.policy.window]
        if self.state != "closed":
            return
        if len(self._window) < self.policy.min_samples:
            return
        failures = sum(1 for o in self._window if not o)
        if failures / len(self._window) >= self.policy.failure_threshold:
            self.state = "open"
            self._opened_at = tick
            self.opens += 1
            self._window = []
            self._emit("breaker_open", tick, failures=failures)
