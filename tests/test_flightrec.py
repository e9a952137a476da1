"""Tests for the request-scoped flight recorder: event log integrity,
timeline reconstruction with exact stage attribution, SLO health
snapshots, and bit-identical fail-over timelines."""

import json

import numpy as np
import pytest

from repro import obs
from repro.fleet import FleetService, synthetic_workload
from repro.obs import (
    EVENT_KINDS,
    EventLog,
    EventStreamCorruption,
    load_events,
    save_events,
)
from repro.obs.counters import CounterRegistry, Histogram
from repro.obs.reqtrace import (
    STAGES,
    events_to_chrome,
    reconstruct,
    render_timeline,
    resolve_rid,
    timeline_doc,
    timelines,
)
from repro.obs.slo import SLOPolicy, evaluate_windows, fleet_health, render_health
from repro.resilience import FaultSchedule
from repro.serve import Rejected, SolverService, SolveRequest, demo_workload

DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3}
SMALL_DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.2}


def demo_fleet(n_shards: int = 4, *, seed: int = 0, n_requests: int = 60,
               stealing: bool = True, chaos=None,
               recorder=None) -> FleetService:
    """Build and run the canonical demo fleet.

    Small meshes, a zipf-skewed bursty workload, and parameters tuned
    so stealing actually fires.  Returns the finished
    :class:`FleetService` for digest/stats inspection.  ``chaos`` is
    its fault schedule (``FaultSchedule().crash(2500, "shard0")`` kills
    a shard mid-run).  Pass a :class:`repro.obs.EventLog` as
    ``recorder`` to capture the run's full causal event stream.
    """
    fleet = FleetService(
        n_shards, cache_bytes=8 << 20, steal_threshold=4,
        steal_latency=100, stealing=stealing, ckpt_interval=6,
        recorder=recorder, chaos=chaos,
    )
    fleet.run(synthetic_workload(n_requests, seed=seed))
    return fleet


def _req(**kw):
    kw.setdefault("geometry", DISK)
    kw.setdefault("base_level", 2)
    kw.setdefault("boundary_level", 3)
    return SolveRequest(**kw)


def _served(n=12, seed=0, **kw):
    """Run a demo workload through a recorded SolverService."""
    rec = EventLog()
    svc = SolverService(cache_bytes=8 << 20, recorder=rec, **kw)
    for r in demo_workload(n, seed=seed):
        svc.submit(r)
    svc.drain()
    return svc, rec


# -- event log ----------------------------------------------------------


def test_event_log_seq_and_digest_deterministic():
    def fill(log):
        log.emit("submit", "r1", tick=0, pde="poisson")
        log.emit("enqueue", "r1", tick=0, shard="shard0", depth=1)
        log.emit("complete", "r1", tick=64, shard="shard0", status="ok")

    a, b = EventLog(), EventLog()
    fill(a)
    fill(b)
    assert [ev.seq for ev in a.events] == [1, 2, 3]
    assert a.digest == b.digest
    # any difference in the stream changes the digest
    c = EventLog()
    fill(c)
    c.emit("retry", "r1", tick=65)
    assert c.digest != a.digest


def test_event_log_rejects_unknown_kind():
    log = EventLog()
    with pytest.raises(ValueError, match="unknown event kind"):
        log.emit("teleport", "r1", tick=0)
    assert len(log) == 0
    assert "teleport" not in EVENT_KINDS


def test_event_log_soft_disable_is_noop():
    log = EventLog(enabled=False)
    assert log.emit("submit", "r1", tick=0) is None
    assert len(log) == 0
    assert log.digest == EventLog().digest


def test_event_log_coerces_numpy_scalars():
    log = EventLog()
    ev = log.emit("solve_exec", "r1", tick=8, matvecs=np.int64(17))
    assert ev.attrs["matvecs"] == 17
    json.dumps(log.to_doc())  # must be plain-JSON serialisable


def test_event_stream_roundtrip_and_tamper_detection(tmp_path):
    _, rec = _served(6)
    path = save_events(tmp_path / "ev.json", rec, name="unit")
    back = load_events(path)
    assert back.digest == rec.digest
    assert len(back) == len(rec)

    doc = json.loads(path.read_text())
    doc["events"][3]["tick"] += 1  # bit-flip one tick
    with pytest.raises(EventStreamCorruption, match="digest mismatch"):
        EventLog.from_doc(doc)

    doc2 = json.loads(path.read_text())
    del doc2["events"][0]  # truncation shifts every seq
    with pytest.raises(EventStreamCorruption, match="stream gap"):
        EventLog.from_doc(doc2)

    with pytest.raises(ValueError, match="not a repro.obs/events.v1"):
        EventLog.from_doc({"schema": "bogus"})


# -- histogram summary / registry satellites ---------------------------


def test_histogram_summary_pinned_values():
    h = Histogram()
    for v in (1.0, 2.0, 4.0, 8.0, 100.0):
        h.observe(v)
    s = h.summary()
    assert s["count"] == 5
    assert s["sum"] == 115.0
    assert s["min"] == 1.0 and s["max"] == 100.0
    # log-bucketed quantiles report the holding bucket's upper bound
    assert s["p50"] == pytest.approx(5.623413251903491)
    assert s["p95"] == 100.0
    assert s["p99"] == 100.0
    assert Histogram().summary() == {"count": 0, "sum": 0.0}


def test_histogram_summary_matches_per_quantile_scan():
    h = Histogram()
    for i in range(200):
        h.observe((i * 37 % 199) + 0.5)
    s = h.summary()
    for q, key in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
        assert s[key] == h.quantile(q)


def test_get_value_counter_gauge_collision_raises():
    obs.enable()
    try:
        reg = CounterRegistry()
        reg.add("queue.depth", 3)
        assert reg.get_value("queue.depth") == 3
        reg.set_gauge("queue.depth", 7)
        assert reg.get_counter("queue.depth") == 3
        assert reg.get_gauge("queue.depth") == 7
        with pytest.raises(KeyError, match="both a counter and a gauge"):
            reg.get_value("queue.depth")
        # distinct labels are distinct metrics — no collision
        reg.add("queue.depth", 1, shard="s0")
        assert reg.get_value("queue.depth", shard="s0") == 1
    finally:
        obs.disable()
        obs.reset()


# -- serve-level stage attribution -------------------------------------


def test_serve_stage_sums_equal_latency_for_all_requests():
    svc, rec = _served(12)
    tls = timelines(rec)
    assert len(tls) == len(svc.responses) == 12
    for tl in tls:
        assert sum(tl.stages.values()) == tl.latency, tl.rid
        assert set(tl.stages) == set(STAGES)
        assert tl.status == "ok"
    # completions in the stream match the response set exactly
    assert rec.kinds()["complete"] == 12


def test_queue_full_rejection_is_all_admission():
    rec = EventLog()
    svc = SolverService(max_pending=2, recorder=rec)
    svc.submit(_req(f=1.0))
    svc.submit(_req(f=2.0))
    rej = svc.submit(_req(f=3.0))
    assert isinstance(rej, Rejected)
    svc.drain()
    tl = reconstruct(rec, rej.request_digest)
    assert tl.status == "rejected" and tl.reason == "queue_full"
    # never enqueued: the whole (zero-tick) latency is admission wait
    assert tl.stages["admission"] == tl.latency
    assert sum(tl.stages.values()) == tl.latency
    assert [ev.kind for ev in tl.events] == ["submit", "reject", "complete"]


def test_deadline_expiry_timeline_is_queue_wait():
    rec = EventLog()
    svc = SolverService(max_batch=4, recorder=rec)
    svc.submit(_req(priority=0))
    doomed = _req(geometry=SMALL_DISK, priority=5, deadline=10)
    svc.submit(doomed)
    svc.drain()
    tl = reconstruct(rec, doomed.digest)
    assert tl.status == "rejected" and tl.reason == "deadline_exceeded"
    assert tl.deadline == 10 and tl.t_done > 10
    # admitted but never batched: latency = admission + queue exactly
    assert tl.stages["queue"] == tl.latency - tl.stages["admission"]
    assert sum(tl.stages.values()) == tl.latency


class _FlakyOnce:
    def __call__(self, request, retries):
        from repro.resilience.faults import SolverBreakdown

        if retries == 0:
            raise SolverBreakdown("injected", "breakdown", "first try fails")


def test_retry_backoff_lands_in_queue_stage():
    rec = EventLog()
    svc = SolverService(fault_injector=_FlakyOnce(), backoff=500, recorder=rec)
    req = _req(f=1.0)
    svc.submit(req)
    svc.drain()
    tl = reconstruct(rec, req.digest)
    assert tl.ok and tl.retries == 1
    assert "retry" in [ev.kind for ev in tl.events]
    # two batch_form events: original dispatch plus the re-queue
    assert sum(1 for ev in tl.events if ev.kind == "batch_form") == 2
    assert sum(tl.stages.values()) == tl.latency
    assert tl.stages["queue"] >= 500  # backoff wait is queue time


def test_resolve_rid_exact_prefix_unknown_ambiguous():
    _, rec = _served(6)
    rids = rec.request_ids()
    full = rids[0]
    assert resolve_rid(rec, full) == full
    # a 12-char prefix is unique in practice for sha256 ids
    assert resolve_rid(rec, full[:12]) == full
    with pytest.raises(KeyError, match="no request matching"):
        resolve_rid(rec, "zzzz")
    with pytest.raises(KeyError, match="ambiguous"):
        resolve_rid(rec, "")  # every id matches the empty prefix


def test_reconstruct_incomplete_request_raises_and_is_skipped():
    log = EventLog()
    log.emit("submit", "inflight", tick=0, pde="poisson")
    log.emit("enqueue", "inflight", tick=0, depth=1)
    with pytest.raises(ValueError, match="never completed"):
        reconstruct(log, "inflight")
    assert timelines(log) == []


def test_render_timeline_reports_exact_stage_sum():
    _, rec = _served(4)
    tl = timelines(rec)[0]
    text = render_timeline(tl)
    assert f"(sum={tl.latency})" in text
    assert f"latency={tl.latency} ticks" in text
    for ev in tl.events:
        assert f"{ev.kind:<16}" in text


# -- SLO evaluation -----------------------------------------------------


def _hand_rolled_log():
    """Two windows: one clean, one burning half its error budget×10."""
    log = EventLog()
    for i, (t0, t1, status) in enumerate(
        [(0, 400, "ok"), (100, 900, "ok"), (5000, 5400, "ok"),
         (5100, 5900, "failed")]
    ):
        rid = f"r{i}"
        log.emit("submit", rid, tick=t0, pde="poisson", priority=0,
                 deadline=None)
        log.emit("enqueue", rid, tick=t0, depth=1)
        log.emit("complete", rid, tick=t1, status=status,
                 reason="" if status == "ok" else "retries_exhausted",
                 t_submit=t0, retries=0, pde="poisson")
    return log


def test_slo_windows_and_burn_alerts():
    log = _hand_rolled_log()
    policy = SLOPolicy(window=5_000, burn_alert=2.0)
    wins = evaluate_windows(log, policy)
    assert [w["window"] for w in wins] == [0, 1]
    assert wins[0]["availability"] == 1.0 and wins[0]["burn_rate"] == 0.0
    assert wins[1]["availability"] == 0.5
    assert wins[1]["burn_rate"] == pytest.approx(10.0)
    assert not wins[0]["alert"] and wins[1]["alert"]


def test_fleet_health_flags_violations_and_default_deadline():
    log = _hand_rolled_log()
    doc = fleet_health(log, SLOPolicy(default_deadline=500))
    assert doc["schema"] == "repro.obs/health.v1"
    assert doc["requests"] == 4 and doc["ok"] == 3 and doc["failed"] == 1
    assert doc["availability"] == 0.75
    # default deadline of 500 ticks: only the two 400-tick solves hit
    assert doc["deadline_hit_rate"] == 0.5
    assert not doc["healthy"]
    objectives = {v["objective"] for v in doc["violations"]}
    assert {"availability", "deadline_hit_rate"} <= objectives
    assert doc["alert_windows"] == [1]
    assert doc["event_digest"] == log.digest
    text = render_health(doc)
    assert "fleet health: DEGRADED" in text
    assert "VIOLATION availability" in text


def test_fleet_health_stage_ceilings():
    _, rec = _served(8)
    ok_doc = fleet_health(rec, SLOPolicy(stage_p95={"queue": 10**9}))
    assert ok_doc["healthy"]
    assert ok_doc["stages"]["e2e"]["count"] == 8
    bad_doc = fleet_health(rec, SLOPolicy(stage_p95={"solve": 1}))
    assert any(
        v["objective"] == "stage_p95:solve" for v in bad_doc["violations"]
    )


# -- fleet-level determinism and fail-over -----------------------------


@pytest.mark.fleet
def test_fleet_event_stream_digest_bit_identical():
    rec_a, rec_b = EventLog(), EventLog()
    demo_fleet(4, seed=0, n_requests=40, recorder=rec_a)
    demo_fleet(4, seed=0, n_requests=40, recorder=rec_b)
    assert rec_a.digest == rec_b.digest
    kinds = rec_a.kinds()
    assert kinds["route"] == kinds["submit"] == 40
    assert kinds["complete"] >= 40
    assert "steal" in kinds  # the demo workload is tuned to steal
    for tl in timelines(rec_a):
        assert sum(tl.stages.values()) == tl.latency, tl.rid


@pytest.mark.fleet
def test_failover_survivor_timelines_bit_identical():
    work = synthetic_workload(40, seed=3, mean_gap=40, burst_gap=5)
    kill_at = max(a.tick for a in work) + 1

    def run(kill, rec):
        fleet = FleetService(4, cache_bytes=8 << 20, stealing=False,
                             ckpt_interval=6, recorder=rec, chaos=kill)
        fleet.run(synthetic_workload(40, seed=3, mean_gap=40, burst_gap=5))
        return fleet

    rec_base, rec_kill = EventLog(), EventLog()
    run(None, rec_base)
    run(FaultSchedule().crash(kill_at, "shard0"), rec_kill)

    kinds = rec_kill.kinds()
    assert kinds["failover"] == 1 and kinds.get("failover_replay", 0) > 0

    survivors = [
        ev.rid for ev in rec_base.events
        if ev.kind == "route" and ev.shard != "shard0"
    ]
    assert survivors  # the scenario must actually exercise survivors
    for rid in survivors:
        base = timeline_doc(reconstruct(rec_base, rid))
        recovered = timeline_doc(reconstruct(rec_kill, rid))
        assert base == recovered, rid


@pytest.mark.fleet
def test_fleet_health_snapshot_deterministic():
    rec_a, rec_b = EventLog(), EventLog()
    demo_fleet(4, seed=0, n_requests=30, recorder=rec_a)
    demo_fleet(4, seed=0, n_requests=30, recorder=rec_b)
    a = fleet_health(rec_a, name="demo")
    b = fleet_health(rec_b, name="demo")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["requests"] == 30
    assert len(a["per_shard_completed"]) > 1  # work actually spread


# -- chrome export ------------------------------------------------------


@pytest.mark.fleet
def test_events_to_chrome_one_track_per_shard():
    rec = EventLog()
    demo_fleet(4, seed=0, n_requests=30, recorder=rec)
    doc = events_to_chrome(rec)
    evs = doc["traceEvents"]
    meta = [e for e in evs if e["ph"] == "M"]
    tracks = {e["args"]["name"] for e in meta}
    assert tracks == {f"shard{i}" for i in range(4)}
    xs = [e for e in evs if e["ph"] == "X"]
    assert len(xs) == len(timelines(rec))
    for x in xs:
        assert x["dur"] == sum(x["args"]["stages"].values())
    # pids are densely numbered in first-seen order
    assert {e["pid"] for e in meta} == set(range(1, len(meta) + 1))


# -- the specification, pinned ------------------------------------------
#
# (len(log), event digest, stream digest, fleet digest) of five recorded
# runs, computed at PR 14 and committed as literals: between them the
# streams reach every emission site in serve/ and fleet/, so an event
# that moves, disappears or changes an attribute changes a literal.
#
# The stream and fleet digests (third and fourth entries) were re-pinned
# when a batch began solving its unit problems once and forming every
# request as f·u_f (+ g·u_g): poisson / sbm / transport solutions moved
# in their last bits (<= 8e-16 relative here; they solve to rtol 1e-10) and
# the reported residual became |f|·(unit residual).  Event counts and
# event digests did not move — iterations, matvecs, ticks and batch
# structure are unchanged.  The kill and chaos runs serve the same 40
# requests and now share one fleet digest: a response's bits no longer
# depend on which batch it rode in.


def _pin_serve():
    svc, rec = _served(30)
    return rec, svc.stream_digest, None


def _pin_fleet_kill():
    rec = EventLog()
    fleet = demo_fleet(4, seed=0, n_requests=40,
                       chaos=FaultSchedule().crash(2500, "shard0"),
                       recorder=rec)
    return rec, fleet.stream_digest, fleet.fleet_digest


def _pin_chaos_demo():
    """The ``chaos-demo --seed 0`` configuration."""
    from repro.fleet.defense import BreakerPolicy, HedgePolicy
    from repro.serve.scheduler import BrownoutPolicy

    rec = EventLog()
    sched = FaultSchedule.random(
        0, [f"shard{i}" for i in range(4)], 8000, n_slow=1, n_stall=1,
        n_crash=1, n_corrupt=1, n_handoff=2, slow_factor=10,
    )
    fleet = FleetService(
        4, cache_bytes=8 << 20, steal_threshold=4, steal_latency=100,
        recorder=rec, chaos=sched, hedge=HedgePolicy(),
        breaker=BreakerPolicy(), brownout=BrownoutPolicy(),
    )
    fleet.run(synthetic_workload(40, seed=0))
    return rec, fleet.stream_digest, fleet.fleet_digest


def _pin_defended():
    """A straggler shard, a flood, four carved-away meshes and a late
    calm tail: hedges race, brownout sheds and degrades, one breaker
    opens, half-opens and closes."""
    from repro.fleet import Arrival
    from repro.fleet.defense import BreakerPolicy, HedgePolicy
    from repro.serve.scheduler import BrownoutPolicy

    carved = {"shape": "sphere", "center": (0.5, 0.5), "radius": 2.0}
    work = synthetic_workload(48, seed=9, mean_gap=2, burst_gap=1)
    work += [Arrival(k, SolveRequest(geometry=carved, f=1.0 + k))
             for k in range(4)]
    work += [Arrival(60_000 + a.tick, a.request)
             for a in synthetic_workload(12, seed=4)]
    rec = EventLog()
    fleet = FleetService(
        4, cache_bytes=8 << 20, stealing=False, recorder=rec,
        chaos=FaultSchedule().slow("shard0", 0, 10_000_000, 50),
        hedge=HedgePolicy(initial_delay=3000, min_delay=1000,
                          min_samples=10**9, transfer_latency=100),
        breaker=BreakerPolicy(window=8, failure_threshold=0.5,
                              min_samples=4, cooldown=1000),
        brownout=BrownoutPolicy(shed_depth=6, pressure_depth=3,
                                degrade_depth=4),
    )
    fleet.run(work)
    return rec, fleet.stream_digest, fleet.fleet_digest


def _pin_faulty_serve():
    """One request breaks down once and recovers, one until its retry
    budget is spent, one misses its deadline, one finds the queue full."""
    from repro.resilience.faults import SolverBreakdown

    def injector(request, retries):
        if request.f == 2.0 or retries == 0:
            raise SolverBreakdown("injected", "breakdown", "pinned fault")

    rec = EventLog()
    svc = SolverService(fault_injector=injector, backoff=500, max_pending=3,
                        max_batch=1, recorder=rec)
    for req in (_req(f=1.0), _req(f=2.0),
                _req(f=3.0, priority=5, deadline=10), _req(f=4.0)):
        svc.submit(req)
    svc.drain()
    assert sorted((r.status, r.reason) for r in svc.responses) == [
        ("failed", "retries_exhausted"), ("ok", "converged"),
        ("rejected", "deadline_exceeded"), ("rejected", "queue_full"),
    ]
    return rec, svc.stream_digest, None


PINNED_STREAMS = {
    _pin_serve: (
        199,
        "f48bd681c6199c4f7d6bbf8e3868cf36c68bfb5a0f1b47b914690c0cd5f1c51a",
        "68ea51656cd92d1d844e347e6c75b286a6b137a6b62831ce6965e4c4821286ee",
        None,
    ),
    _pin_fleet_kill: (
        369,
        "a60522973186708885f530e3b4b7fbf6e1e475aa8c8d3bf23bdb11830f21080a",
        "55f0b1c7e1d888758a431fe334d7cb2bbd26bb111db01c592525f7f41022e531",
        "520e4df900215b7207e19612dc2d82bc6df8a4d81a6a539afb90ed4544482d49",
    ),
    _pin_chaos_demo: (
        391,
        "002b193d66361e746e1db603e75d6e0af5be011a6e303b96320e8520bc8481b9",
        "adee4bc3718f62957512c534c1130047f55302a8e0fb837603e4e2f27fea427e",
        "520e4df900215b7207e19612dc2d82bc6df8a4d81a6a539afb90ed4544482d49",
    ),
    _pin_defended: (
        626,
        "7f56df26f5207c03b49126b184e3020c4999847a3e9bb837aaba63047132d0a1",
        "c432063b228a926932ac1dc3ba9a619e8d1264343a0900de5422cab45adf9b06",
        "65f4a02ad81ac26360c97e79ff27341fdf5bdbd0bceed6e47138a1a27da82c83",
    ),
    _pin_faulty_serve: (
        33,
        "a988b2e9cac9c8566c8f9f90692344e496c6b9be1cf6b0d501a693de07ea5601",
        "88eb2679f5767f4d910d82dde107b5cdf9dcd97449fef6a5cc0e856a0b6aa775",
        None,
    ),
}


def test_a_kill_is_a_scheduled_crash():
    """The demo fleet built by hand, its kill a ``crash`` entry of the
    fault schedule, reproduces the ``_pin_fleet_kill`` literal."""
    rec = EventLog()
    fleet = FleetService(
        4, cache_bytes=8 << 20, steal_threshold=4, steal_latency=100,
        ckpt_interval=6, recorder=rec,
        chaos=FaultSchedule().crash(2500, "shard0"),
    )
    fleet.run(synthetic_workload(40, seed=0))
    got = (len(rec), rec.digest, fleet.stream_digest, fleet.fleet_digest)
    assert got == PINNED_STREAMS[_pin_fleet_kill]


def test_event_streams_match_the_pinned_specification():
    seen = set()
    for run, pinned in PINNED_STREAMS.items():
        rec, stream_digest, fleet_digest = run()
        got = (len(rec), rec.digest, stream_digest, fleet_digest)
        assert got == pinned, run.__name__
        seen.update(rec.kinds())
    # no kind is exempt: every emission site is under a pinned digest
    assert seen == set(EVENT_KINDS)


def test_recorder_default_is_a_disabled_log_and_a_fresh_log_records():
    # a fresh EventLog has len 0 and is therefore falsy: it must still
    # be taken as the recorder, not mistaken for "no recorder"
    fresh = EventLog()
    assert not fresh
    svc = SolverService(recorder=fresh)
    assert svc.recorder is fresh and svc.scheduler.recorder is fresh
    svc.submit(_req())
    svc.drain()
    assert len(fresh) > 0
    fleet_log = EventLog()
    fleet = FleetService(2, recorder=fleet_log)
    assert all(sh.recorder is fleet_log for sh in fleet.shards.values())
    # recorder=None is a disabled log: emission is unconditional, and
    # nothing is ever recorded
    bare = SolverService()
    assert isinstance(bare.recorder, EventLog) and not bare.recorder.enabled
    assert bare.scheduler.recorder is bare.recorder
    bare.submit(_req())
    bare.drain()
    assert len(bare.recorder) == 0
    bare_fleet = FleetService(2)
    bare_fleet.run(synthetic_workload(6, seed=1))
    assert len(bare_fleet.recorder) == 0
    assert all(sh.recorder is bare_fleet.recorder
               for sh in bare_fleet.shards.values())
