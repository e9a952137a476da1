"""Chaos invariants: what must survive a faulted fleet run, exactly.

Because the fleet is a deterministic discrete-event simulation, chaos
testing here proves *equalities*, not statistics.  For every seeded
fault schedule the sweep runs three fleets over the same workload —
failure-free baseline, chaos, chaos again — all with the full defense
stack enabled (hedging, circuit breakers, brownout), and asserts:

1. **Exactly-once completion** — the multiset of response request
   digests equals the workload's, despite hedged copies, duplicated
   handoffs and crash replays.
2. **Unaffected-request identity** — every request whose causal
   timeline touches no *tainted* shard and carries no chaos-kind event
   has a :func:`repro.obs.reqtrace.timeline_doc` and response core
   document **bit-identical** to the failure-free run.  Tainted =
   shards named by the schedule plus any shard hosting a chaos-kind
   event at runtime (hedge destinations, fail-over replacements, …).
3. **Deterministic health** — the two chaos runs agree byte-for-byte
   on the flight-recorder digest, the stream digest and the rendered
   ``repro.obs/health.v1`` snapshot.
4. **Exact stage attribution** — for every completed request of every
   run, the per-stage tick decomposition sums exactly to its
   end-to-end virtual latency (hedged, shed, degraded and replayed
   requests included).

The invariant band runs with stealing disabled so shards stay causally
independent except through the defense layers themselves (the taint
analysis is then sound); a second *handoff band* runs with stealing on
and chaos-injected duplicated/dropped handoffs, asserting invariants
1, 3 and 4 (baseline identity is not claimed there — steal planning is
global, so a faulted run may legitimately migrate different items).

Hedge delays in the sweep are pinned to ``initial_delay`` (by an
unreachable ``min_samples``) so hedge timing is a local function of
each delivery, keeping fault-free shards bit-comparable; the adaptive
p95 path is exercised by the defense unit tests and the straggler
bench instead.
"""

from __future__ import annotations

import json

from ..fleet import FleetService, synthetic_workload
from ..fleet.defense import BreakerPolicy, HedgePolicy
from ..fleet.service import core_doc
from ..obs import EventLog
from ..obs.reqtrace import timeline_doc, timelines
from ..obs.slo import fleet_health
from ..resilience.faults import FaultSchedule
from ..serve.scheduler import BrownoutPolicy

__all__ = ["CHAOS_KINDS", "check_schedule", "run_sweep"]

#: event kinds that only the defense/fault machinery emits — their
#: presence marks a request (and taints a shard) as fault-affected
CHAOS_KINDS = frozenset({
    "hedge", "hedge_win", "breaker_open", "breaker_half_open",
    "breaker_close", "shed", "degrade", "corrupt_detect", "quarantine",
    "failover", "failover_replay",
})

#: horizon (virtual ticks) fault windows are drawn inside — matched to
#: the ~8k-tick makespan of the 40-request sweep workload so windows
#: actually intersect live traffic (and back-half crashes fire)
HORIZON = 8_000


def _defense_config() -> dict:
    # min_samples is unreachable on purpose: the hedge delay stays
    # pinned at initial_delay, so hedge timing never depends on
    # fleet-global completion statistics (see module docstring)
    return dict(
        hedge=HedgePolicy(initial_delay=12_000, min_delay=4_000,
                          min_samples=10**9, transfer_latency=100),
        breaker=BreakerPolicy(),
        brownout=BrownoutPolicy(shed_depth=40, pressure_depth=20,
                                degrade_depth=28),
    )


def _build_fleet(n_shards: int, recorder, *, chaos=None,
                 stealing: bool = False) -> FleetService:
    return FleetService(
        n_shards, cache_bytes=32 << 20, l2_bytes=512 << 20,
        steal_threshold=4, steal_latency=100, stealing=stealing,
        recorder=recorder, chaos=chaos, **_defense_config(),
    )


def _schedule(seed: int, shard_ids: list[str], *,
              stealing: bool) -> FaultSchedule:
    # draw every fault on at most two (seed-chosen) shards, so invariant
    # 2 always has provably-clean shards left to compare against
    n = len(shard_ids)
    targets = sorted({shard_ids[seed % n], shard_ids[(3 * seed + 1) % n]})
    return FaultSchedule.random(
        seed, targets, HORIZON,
        n_slow=1, n_stall=1, n_crash=seed % 2, n_corrupt=1,
        n_handoff=2 if stealing else 0,
        # alternate mild and brutal stragglers so some schedules push
        # tainted-shard latency past the hedge delay
        slow_factor=10 if seed % 2 else 40,
    )


def _assert_stage_sums(log: EventLog, label: str) -> int:
    n = 0
    for tl in timelines(log):
        total = sum(tl.stages.values())
        assert total == tl.latency, (
            f"{label}: stage attribution of {tl.rid[:12]}… sums to "
            f"{total}, end-to-end latency is {tl.latency}"
        )
        n += 1
    return n


def _tainted_shards(schedule: FaultSchedule, log: EventLog) -> set[str]:
    tainted = set(schedule.affected_shards())
    for ev in log.events:
        if ev.shard is None:
            continue
        if ev.kind in CHAOS_KINDS or "fault" in ev.attrs:
            tainted.add(ev.shard)
    return tainted


def _clean(doc: dict, tainted: set[str]) -> bool:
    """No hop on a tainted shard, no chaos-kind event, no faulted
    handoff — the request provably never met the fault."""
    for ev in doc["events"]:
        if ev["shard"] in tainted:
            return False
        if ev["kind"] in CHAOS_KINDS or "fault" in ev["attrs"]:
            return False
    return True


def check_schedule(seed: int, *, n_shards: int = 4, n_requests: int = 40,
                   stealing: bool = False) -> dict:
    """Run one seeded schedule through the three-run protocol and
    assert every applicable invariant; returns a summary dict.

    Raises ``AssertionError`` (with a specific message) on any breach.
    """
    workload = synthetic_workload(n_requests, seed=seed)
    expected = sorted(a.request.digest for a in workload)
    label = f"seed {seed}" + (" (handoff band)" if stealing else "")

    base_log = EventLog()
    base = _build_fleet(n_shards, base_log, stealing=stealing)
    base.run(synthetic_workload(n_requests, seed=seed))

    def chaos_run() -> tuple[FleetService, EventLog, FaultSchedule]:
        log = EventLog()
        sched = _schedule(seed, list(base.shard_ids), stealing=stealing)
        fleet = _build_fleet(n_shards, log, chaos=sched, stealing=stealing)
        fleet.run(synthetic_workload(n_requests, seed=seed))
        return fleet, log, sched

    fleet_a, log_a, sched = chaos_run()
    fleet_b, log_b, _ = chaos_run()

    # 1. exactly-once: every admitted request completes exactly once
    got = sorted(r.request_digest for r in fleet_a.responses)
    assert got == expected, (
        f"{label}: exactly-once violated — {len(got)} responses for "
        f"{len(expected)} requests"
    )

    # 3. deterministic replay of the faulted run, health included
    assert log_a.digest == log_b.digest, (
        f"{label}: chaos run is not deterministic (event digests differ)"
    )
    assert fleet_a.stream_digest == fleet_b.stream_digest, (
        f"{label}: chaos run is not deterministic (stream digests differ)"
    )
    health_a = json.dumps(fleet_health(log_a), sort_keys=True)
    health_b = json.dumps(fleet_health(log_b), sort_keys=True)
    assert health_a == health_b, (
        f"{label}: health snapshot is not deterministic"
    )

    # 4. exact stage attribution in every run
    _assert_stage_sums(base_log, f"{label} baseline")
    n_timelines = _assert_stage_sums(log_a, f"{label} chaos")

    # 2. unaffected requests are bit-identical to the failure-free run
    checked = 0
    if not stealing:
        tainted = _tainted_shards(sched, log_a)
        base_docs = {tl.rid: timeline_doc(tl) for tl in timelines(base_log)}
        base_core = {r.request_digest: core_doc(r) for r in base.responses}
        chaos_core = {r.request_digest: core_doc(r)
                      for r in fleet_a.responses}
        for tl in timelines(log_a):
            doc = timeline_doc(tl)
            if not _clean(doc, tainted):
                continue
            assert doc == base_docs.get(tl.rid), (
                f"{label}: unaffected request {tl.rid[:12]}… has a "
                f"different timeline than the failure-free run"
            )
            assert chaos_core[tl.rid] == base_core[tl.rid], (
                f"{label}: unaffected request {tl.rid[:12]}… has a "
                f"different response core than the failure-free run"
            )
            checked += 1
        assert checked > 0, (
            f"{label}: taint analysis left no unaffected requests to "
            f"compare — schedule too aggressive for the invariant"
        )

    return {
        "seed": seed,
        "band": "handoff" if stealing else "isolation",
        "faults": sched.describe(),
        "responses": len(fleet_a.responses),
        "timelines": n_timelines,
        "unaffected_checked": checked,
        "hedges": fleet_a.hedges_fired,
        "hedge_wins": fleet_a.hedge_wins,
        "failovers": len(fleet_a.failover_events),
        "event_digest": log_a.digest,
        "stream_digest": fleet_a.stream_digest,
    }


def run_sweep(seeds=tuple(range(8)), handoff_seeds=(100, 101), *,
              n_shards: int = 4, n_requests: int = 40,
              strict: bool = True, log=print) -> dict:
    """Sweep the invariant checks over many seeded schedules.

    ``seeds`` drive the isolation band (stealing off, all four
    invariants); ``handoff_seeds`` drive the handoff band (stealing
    on, invariants 1/3/4).  With ``strict`` the first breach raises;
    otherwise breaches are collected into the returned summary.
    """
    results: list[dict] = []
    breaches: list[str] = []
    for stealing, band in ((False, seeds), (True, handoff_seeds)):
        for seed in band:
            try:
                res = check_schedule(int(seed), n_shards=n_shards,
                                     n_requests=n_requests,
                                     stealing=stealing)
            except AssertionError as exc:
                if strict:
                    raise
                breaches.append(str(exc))
                continue
            results.append(res)
            if log is not None:
                log(f"  seed {seed:>3} [{res['band']:>9}] PASS  "
                    f"faults={len(res['faults'])} "
                    f"hedges={res['hedges']} "
                    f"unaffected={res['unaffected_checked']}")
    return {
        "schedules": len(results) + len(breaches),
        "passed": len(results),
        "breaches": breaches,
        "results": results,
    }
