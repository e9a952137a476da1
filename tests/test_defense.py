"""Tests for the fleet defense layers: hedged requests, per-shard
circuit breakers, deadline-aware brownout, artifact-corruption
quarantine and torn-checkpoint detection."""

import dataclasses
import random

import numpy as np
import pytest

from repro.fleet import FleetService, synthetic_workload
from repro.fleet import service as fleet_service
from repro.fleet.defense import BreakerPolicy, CircuitBreaker, HedgePolicy
from repro.fleet.workload import Arrival
from repro.obs import EventLog
from repro.resilience.checkpoint import (
    CheckpointCorruption,
    load_checkpoint,
    load_state_checkpoint,
    save_checkpoint,
    save_state_checkpoint,
)
from repro.resilience.faults import (
    ArtifactCorruption,
    FaultSchedule,
    corrupt_in_place,
)
from repro.serve import (
    SolveRequest,
    SolverClient,
    SolverService,
    demo_workload,
)
from repro.serve import cache as serve_cache
from repro.serve.scheduler import BrownoutPolicy

pytestmark = pytest.mark.chaos


def _fleet(n, **kw):
    kw.setdefault("cache_bytes", 8 << 20)
    kw.setdefault("steal_threshold", 4)
    kw.setdefault("steal_latency", 100)
    return FleetService(n, **kw)


# -- circuit breakers ----------------------------------------------------


def _policy(**kw):
    kw.setdefault("window", 8)
    kw.setdefault("failure_threshold", 0.5)
    kw.setdefault("min_samples", 4)
    kw.setdefault("cooldown", 1000)
    return BreakerPolicy(**kw)


def test_breaker_opens_on_windowed_failure_rate():
    b = CircuitBreaker("s0", _policy())
    for t in range(3):
        b.record(False, t)
    assert b.state == "closed"  # below min_samples
    b.record(False, 3)
    assert b.state == "open" and b.opens == 1
    assert not b.allow(4)  # cooldown not elapsed


def test_breaker_never_opens_below_threshold():
    b = CircuitBreaker("s0", _policy())
    for t in range(50):
        b.record(t % 4 != 0, t)  # 1/4 failures < 0.5 threshold
    assert b.state == "closed" and b.opens == 0


def test_breaker_half_open_admits_exactly_one_probe():
    b = CircuitBreaker("s0", _policy())
    for t in range(4):
        b.record(False, t)
    assert b.state == "open"
    t_half = 4 + b.policy.cooldown
    assert b.allow(t_half)  # the single probe
    assert b.state == "half_open"
    # every further routing decision is refused until the probe resolves
    assert not b.allow(t_half)
    assert not b.allow(t_half + 1)
    assert not b.allow(t_half + 500)
    b.record(True, t_half + 600)  # probe succeeds
    assert b.state == "closed"
    assert b.allow(t_half + 601)


def test_breaker_probe_failure_reopens():
    b = CircuitBreaker("s0", _policy())
    for t in range(4):
        b.record(False, t)
    t_half = 4 + b.policy.cooldown
    assert b.allow(t_half)
    b.record(False, t_half + 1)  # probe fails
    assert b.state == "open" and b.opens == 2
    assert not b.allow(t_half + 2)
    # a second cooldown earns a second (single) probe
    t2 = t_half + 1 + b.policy.cooldown
    assert b.allow(t2)
    assert not b.allow(t2)


def test_breaker_transitions_emit_typed_events():
    log = EventLog()
    b = CircuitBreaker("s0", _policy(), recorder=log)
    for t in range(4):
        b.record(False, t)
    t_half = 4 + b.policy.cooldown
    b.allow(t_half)
    b.record(True, t_half + 1)
    kinds = [ev.kind for ev in log.events]
    assert kinds == ["breaker_open", "breaker_half_open", "breaker_close"]
    assert all(ev.shard == "s0" for ev in log.events)


# -- hedged requests -----------------------------------------------------


def _straggler_schedule(factor=50):
    return FaultSchedule().slow("shard0", 0, 10_000_000, factor)


def _hedge_policy(**kw):
    kw.setdefault("initial_delay", 3_000)
    kw.setdefault("min_delay", 1_000)
    kw.setdefault("min_samples", 10**9)  # pin the delay: deterministic
    kw.setdefault("transfer_latency", 100)
    return HedgePolicy(**kw)


def test_hedging_preserves_exactly_once_under_straggler():
    workload = synthetic_workload(40, seed=3)
    expected = sorted(a.request.digest for a in workload)
    log = EventLog()
    fleet = _fleet(4, stealing=False, recorder=log,
                   chaos=_straggler_schedule(), hedge=_hedge_policy())
    fleet.run(synthetic_workload(40, seed=3))
    got = sorted(r.request_digest for r in fleet.responses)
    assert got == expected  # exactly once, no dupes, no losses
    assert fleet.hedges_fired > 0 and fleet.hedge_wins > 0
    kinds = {ev.kind for ev in log.events}
    assert "hedge" in kinds and "hedge_win" in kinds


def test_hedged_run_is_deterministic():
    def run():
        fleet = _fleet(4, stealing=False, chaos=_straggler_schedule(),
                       hedge=_hedge_policy())
        fleet.run(synthetic_workload(40, seed=3))
        return fleet.stream_digest
    assert run() == run()


class _FakeItem:
    def __init__(self, instance, digest):
        self.instance = instance
        self.digest = digest


def test_hedge_guard_suppresses_loser_at_same_tick():
    """Winner and loser completing at the same virtual tick: the first
    guard call wins, the second is suppressed and logged as completed
    on its shard — exactly-once even under a tie."""
    fleet = _fleet(2, hedge=HedgePolicy())
    rec = {"request": None, "digest": "d" * 64, "t_submit": 0,
           "completed": False, "hedges": 1}
    fleet._instances.append(rec)
    item = _FakeItem(0, "d" * 64)
    g0 = fleet.shards["shard0"].completion_guard
    g1 = fleet.shards["shard1"].completion_guard
    # a requeue only peeks — it must not consume the completion
    assert g0(item, "retry") is True
    assert not rec["completed"]
    assert g0(item, "solve") is True  # the winner
    assert rec["completed"] and fleet.hedge_wins == 1
    assert g1(item, "solve") is False  # same-tick loser: suppressed
    assert fleet.logs["shard1"].completed[-1] == "d" * 64
    assert g1(item, "retry") is False  # late requeue of a done instance
    assert fleet.hedge_wins == 1  # the win counted once


def test_hedge_guard_ignores_unregistered_instances():
    fleet = _fleet(2, hedge=HedgePolicy())
    g = fleet.shards["shard0"].completion_guard
    assert g(_FakeItem(-1, "x" * 64), "solve") is True
    assert g(_FakeItem(99, "x" * 64), "solve") is True


# -- deadline-aware brownout ---------------------------------------------


def _flood(n=64, seed=9):
    """Arrivals far faster than service: queues must spike."""
    return synthetic_workload(n, seed=seed, mean_gap=2, burst_gap=1)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_brownout_sheds_deterministically_under_shuffle(n_shards):
    brown = BrownoutPolicy(shed_depth=6, pressure_depth=3, degrade_depth=4)

    def run(order_seed):
        arrivals = list(_flood())
        random.Random(order_seed).shuffle(arrivals)
        log = EventLog()
        fleet = _fleet(n_shards, stealing=False, recorder=log,
                       brownout=brown)
        fleet.run(arrivals)
        shed = sorted(r.request_digest for r in fleet.responses
                      if r.status == "rejected" and r.reason == "shed")
        return shed, fleet.stream_digest, log.digest

    shed_a, stream_a, dig_a = run(1)
    shed_b, stream_b, dig_b = run(2)
    assert shed_a, "flood workload must actually shed"
    assert shed_a == shed_b  # same multiset of arrivals → same sheds
    assert stream_a == stream_b and dig_a == dig_b


def test_brownout_degrades_and_marks_responses():
    brown = BrownoutPolicy(shed_depth=10**6, degrade_depth=2)
    log = EventLog()
    fleet = _fleet(2, stealing=False, recorder=log, brownout=brown)
    fleet.run(_flood(48))
    degraded = [r for r in fleet.responses
                if r.status == "ok" and r.degraded]
    assert degraded, "deep queues must degrade some solves"
    assert any(ev.kind == "degrade" for ev in log.events)
    # a degraded solve still completes exactly once
    expected = sorted(a.request.digest for a in _flood(48))
    assert sorted(r.request_digest for r in fleet.responses) == expected


# -- artifact-cache corruption quarantine --------------------------------


def test_cache_get_reverifies_quarantines_and_rebuilds():
    svc = SolverService(cache_bytes=256 << 20)
    reqs = demo_workload(6, seed=0)
    for r in reqs:
        svc.submit(r)
    svc.drain()
    key = reqs[0].mesh_digest
    entry = svc.cache.peek(key)
    assert entry is not None
    corrupt_in_place(entry.ctx.h, (1, 2))  # flip one bit
    before = len(svc.cache.quarantined)
    # a key with no factor yet reads the base arrays its factor solves from
    fresh = dataclasses.replace(reqs[0], tol=reqs[0].tol / 10)
    assert fresh.batch_key not in entry.factors
    with pytest.raises(ArtifactCorruption) as exc:
        svc.cache.lookup(key, fresh.batch_key)
    assert exc.value.tier == "l1"
    assert len(svc.cache.quarantined) == before + 1
    assert svc.cache.stats()["quarantined"] == before + 1
    assert svc.cache.peek(key) is None  # evicted, not served again
    # the service rebuilds from scratch and answers correctly
    n_before = len(svc.responses)
    svc.submit(reqs[0])
    svc.drain()
    assert len(svc.responses) == n_before + 1
    assert svc.responses[-1].status == "ok"


def test_chaos_cache_corruption_detected_end_to_end():
    # flip a byte under the fleet's feet mid-run: the lookup-side
    # re-verification must catch it, quarantine, rebuild and still
    # answer every request
    # lookup 5 is a hit for this (workload, config): a live entry is
    # corrupted under the service's feet, not a miss
    sched = FaultSchedule().corrupt_cache("shard0", at_lookup=5)
    log = EventLog()
    fleet = _fleet(2, stealing=False, recorder=log, chaos=sched)
    workload = synthetic_workload(32, seed=0)
    fleet.run(synthetic_workload(32, seed=0))
    expected = sorted(a.request.digest for a in workload)
    assert sorted(r.request_digest for r in fleet.responses) == expected
    assert all(r.status == "ok" for r in fleet.responses)
    kinds = [ev.kind for ev in log.events]
    assert "corrupt_detect" in kinds and "quarantine" in kinds


# -- the read set: a hit verifies what it serves --------------------------

DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3}
_CORRUPTION_PATH = {"corrupt_detect", "quarantine", "cache_miss", "build"}


def _poisson(f=1.0, **kw):
    return SolveRequest(**{**dict(geometry=DISK, pde="poisson", base_level=2,
                                  boundary_level=3, f=f), **kw})


def _flip_unit(entry, batch_key):
    """Flip one bit of the one unit response the key's factor has sealed."""
    (u, _), = entry.factors[batch_key].sealed()
    u.flags.writeable = True
    corrupt_in_place(u, (0,))
    u.flags.writeable = False


def _clean_digest(req):
    return SolverClient(SolverService()).solve(req).solution_digest


def test_a_flipped_unit_is_caught_rebuilt_and_never_served():
    a, b = _poisson(1.0), _poisson(2.5)
    log = EventLog()
    svc = SolverService(recorder=log)
    client = SolverClient(svc)
    assert client.solve(a).ok
    entry = svc.cache.peek(a.mesh_digest)
    _flip_unit(entry, a.batch_key)
    resp = client.solve(b)
    path = [ev.kind for ev in log.events
            if ev.rid == b.digest and ev.kind in _CORRUPTION_PATH]
    assert path == ["corrupt_detect", "quarantine", "cache_miss", "build"]
    assert svc.cache.quarantined == {entry.fingerprint}
    assert resp.ok and not resp.cache_hit
    assert resp.solution_digest == _clean_digest(b)


@pytest.mark.fleet
def test_a_flipped_unit_is_quarantined_in_both_tiers():
    a, b = _poisson(1.0), _poisson(2.5)
    log = EventLog()
    fleet = FleetService(2, stealing=False, recorder=log)
    fleet.run([Arrival(1, a)])
    shard = fleet.shards[fleet.ring.route(a.mesh_digest)]
    entry = shard.cache.peek(a.mesh_digest)
    _flip_unit(entry, a.batch_key)  # L1 and L2 hold this one object
    resp = fleet.run([Arrival(fleet.now + 1, b)])[-1]
    tiers = [ev.attrs["tier"] for ev in log.events
             if ev.kind == "corrupt_detect"]
    assert tiers == ["l1", "l2"]
    assert shard.cache.quarantined == fleet.l2.quarantined == {
        entry.fingerprint}
    assert resp.ok and not resp.cache_hit
    assert resp.solution_digest == _clean_digest(b)


@pytest.mark.fleet
def test_a_hot_hit_never_rehashes_the_base(monkeypatch):
    calls = []
    real = serve_cache._entry_content_digest
    monkeypatch.setattr(serve_cache, "_entry_content_digest",
                        lambda mesh, ctx: calls.append(1) or real(mesh, ctx))
    a = _poisson(1.0)
    client = SolverClient(SolverService())
    client.solve(a)
    assert len(calls) == 1  # sealed once, at build
    assert client.solve(_poisson(2.0)).cache_hit
    assert len(calls) == 1  # the hot hit re-hashed u_f only
    client.solve(_poisson(2.0, tol=a.tol / 10))
    assert len(calls) == 2  # a fresh key: the base, before its factor build
    # an L2 fetch re-hashes the whole entry
    fleet = FleetService(2, cache_bytes=1, stealing=False)  # L1 holds one
    home = fleet.ring.route(a.mesh_digest)
    b = next(r for r in (_poisson(geometry={**DISK, "radius": 0.1 + i / 100})
                         for i in range(19))
             if fleet.ring.route(r.mesh_digest) == home)
    for req in (a, b):
        fleet.run([Arrival(fleet.now + 1, req)])
    before = len(calls)
    assert fleet.run([Arrival(fleet.now + 1, _poisson(3.0))])[-1].cache_hit
    assert fleet.shards[home].l2_fetches == 1 and len(calls) == before + 1


@pytest.mark.fleet
@pytest.mark.parametrize("branch", ["unit", "base"])
def test_corrupt_cache_damages_the_first_array_the_lookup_reads(
        branch, monkeypatch):
    if branch == "unit":
        # shard0's 5th lookup is a hot hit on a sealed u_f
        def workload():
            return synthetic_workload(32, seed=0)
        due = ("shard0", 5)
    else:
        # the sbm key's first lookup hits the poisson key's entry: no
        # factor yet, so it reads the base
        a, b = _poisson(1.0), _poisson(1.5, pde="sbm")
        assert a.mesh_digest == b.mesh_digest

        def workload():
            return [Arrival(1, a), Arrival(100_000, b)]
        due = (_fleet(2).ring.route(a.mesh_digest), 2)
    damaged = []
    real = fleet_service.corrupt_in_place
    monkeypatch.setattr(fleet_service, "corrupt_in_place",
                        lambda arr, key: damaged.append(arr) or real(arr, key))
    log = EventLog()
    fleet = _fleet(2, stealing=False, recorder=log,
                   chaos=FaultSchedule().corrupt_cache(*due))
    fleet.run(workload())
    clean = _fleet(2, stealing=False)
    clean.run(workload())
    assert len(damaged) == 1
    # a sealed unit and a mesh's octant arrays alike are read-only
    # again once the flip is done
    assert not damaged[0].flags.writeable
    detects = [ev for ev in log.events if ev.kind == "corrupt_detect"]
    assert detects and detects[0].attrs["tier"] == "l1"
    assert detects[0].shard == due[0]
    assert all(r.status == "ok" for r in fleet.responses)
    assert fleet.fleet_digest == clean.fleet_digest


# -- torn checkpoints ----------------------------------------------------


def test_torn_ckpt_v1_raises_typed_corruption(tmp_path):
    from repro.core.domain import Domain
    from repro.core.mesh import build_mesh
    from repro.geometry import SphereCarve

    mesh = build_mesh(Domain(SphereCarve([0.5, 0.5], 0.3), dim=2), 2, 3, p=1)
    path = save_checkpoint(tmp_path / "t.ckpt.json", mesh,
                           vectors={"x": np.ones(mesh.n_nodes)})
    raw = path.read_bytes()
    for cut in (1, len(raw) // 3, len(raw) // 2, len(raw) - 2):
        torn = tmp_path / f"torn_{cut}.ckpt.json"
        torn.write_bytes(raw[:cut])
        with pytest.raises(CheckpointCorruption):
            load_checkpoint(torn)


def test_torn_state_v1_raises_typed_corruption(tmp_path):
    path = tmp_path / "s0_step1.ckpt.json"
    save_state_checkpoint(path, name="s0", step=1,
                          state={"pending": [], "clock": 42})
    raw = path.read_bytes()
    for cut in (1, len(raw) // 4, len(raw) // 2, len(raw) - 2):
        torn = tmp_path / f"torn_{cut}.ckpt.json"
        torn.write_bytes(raw[:cut])
        with pytest.raises(CheckpointCorruption):
            load_state_checkpoint(torn)
