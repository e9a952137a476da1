"""Tests for repro.fleet: consistent-hash routing, the shared second
tier, work stealing, seeded workloads, and checkpointed fail-over."""

import collections
import random

import pytest

from repro.fleet import (
    Arrival,
    FleetService,
    HashRing,
    ShardLog,
    TierCache,
    mesh_catalog,
    plan_steals,
    rebuild_queue,
    synthetic_workload,
)
from repro.obs import EventLog
from repro.resilience import FaultSchedule
from repro.resilience.checkpoint import (
    CheckpointCorruption,
    load_state_checkpoint,
    save_state_checkpoint,
)
from repro.serve import SolveRequest, SolverService

pytestmark = pytest.mark.fleet


def _fleet(n, **kw):
    kw.setdefault("cache_bytes", 8 << 20)
    kw.setdefault("steal_threshold", 4)
    kw.setdefault("steal_latency", 100)
    return FleetService(n, **kw)


@pytest.mark.parametrize("make", [
    lambda b: SolverService(cache_bytes=b),
    lambda b: FleetService(2, cache_bytes=b),
    lambda b: FleetService(2, l2_bytes=b),
], ids=["service-cache_bytes", "fleet-cache_bytes", "fleet-l2_bytes"])
def test_a_negative_byte_budget_is_refused(make):
    """A negative budget would evict every entry but the one being
    served; the smallest budget the tests run with stays legal."""
    with pytest.raises(ValueError, match="byte_budget must be >= 0"):
        make(-1)
    make(1)


def _busy_workload(n=48, seed=3):
    """Compute-bound: interarrival gaps well below per-request cost."""
    return synthetic_workload(n, seed=seed, mean_gap=40, burst_gap=5)


# -- consistent-hash routing ---------------------------------------------


def test_ring_routes_deterministically():
    keys = [f"key{i}" for i in range(200)]
    a = HashRing(["s0", "s1", "s2", "s3"])
    b = HashRing(["s3", "s1", "s0", "s2"])  # insertion order irrelevant
    assert [a.route(k) for k in keys] == [b.route(k) for k in keys]
    owned = collections.Counter(a.route(k) for k in keys)
    assert sum(owned.values()) == len(keys)
    assert sorted(owned) == ["s0", "s1", "s2", "s3"]  # vnodes spread the keyspace


def test_ring_removal_only_remaps_dead_shards_keys():
    keys = [f"key{i}" for i in range(300)]
    ring = HashRing(["s0", "s1", "s2", "s3"])
    before = {k: ring.route(k) for k in keys}
    ring.remove("s2")
    for k in keys:
        if before[k] != "s2":
            assert ring.route(k) == before[k]
        else:
            assert ring.route(k) != "s2"
    with pytest.raises(ValueError):
        ring.remove("s2")
    with pytest.raises(ValueError):
        ring.add("s0")


# -- shared second tier --------------------------------------------------


class _Entry:
    """Stand-in CacheEntry: fingerprint, bytes, and a mesh size."""

    class _Mesh:
        def __init__(self, n_elem):
            self.n_elem = n_elem

    def __init__(self, fp, nbytes=100, n_elem=64):
        self.fingerprint = fp
        self.nbytes = nbytes
        self.mesh = self._Mesh(n_elem)


def test_tiercache_promote_and_demote_by_hit_rate():
    l2 = TierCache(promote_after=3, demote_below=1, window=4)
    hot, cold = _Entry("hot"), _Entry("cold")
    l2.publish("md_hot", hot)
    l2.publish("md_cold", cold)
    for _ in range(12):
        assert l2.fetch("md_hot") is hot
    assert "hot" in l2.pinned  # windowed count crossed promote_after
    assert "cold" not in l2.pinned
    # stop touching it: the count halves every window and demotes
    for _ in range(40):
        l2.fetch("md_missing")
    assert "hot" not in l2.pinned
    assert l2.stats()["demotions"] >= 1


def test_tiercache_eviction_spares_pinned_entries():
    l2 = TierCache(byte_budget=250, promote_after=2, demote_below=1,
                   window=2)
    hot = _Entry("hot", nbytes=100)
    l2.publish("md_hot", hot)
    for _ in range(8):
        l2.fetch("md_hot")
    assert "hot" in l2.pinned
    for i in range(4):
        l2.publish(f"md{i}", _Entry(f"fp{i}", nbytes=100))
    assert "hot" in l2._entries  # unpinned victims went first
    assert l2.fetch("md_hot") is hot
    assert all(v != "hot" for v in l2.eviction_log)


def test_tiercache_fetch_cost_fraction_of_build():
    from repro.serve.scheduler import cost_build

    e = _Entry("fp", n_elem=256)
    l2 = TierCache()
    assert l2.fetch_cost(e) == max(1, cost_build(256) // 16)


def test_fleet_builds_each_mesh_once():
    """Write-through + victim demotion: a discretization is built at
    most once fleet-wide, every other shard fetches it from L2."""
    wl = _busy_workload(32, seed=5)
    fleet = _fleet(4)
    fleet.run(wl)
    distinct = len({a.request.mesh_digest for a in wl})
    cold_builds = sum(sh.cache.misses - sh.l2_fetches
                      for sh in fleet.shards.values())
    assert cold_builds == distinct
    # L2 stores by post-build fingerprint: distinct mesh digests can
    # alias to one carved discretization, so entries <= digests
    assert 1 <= fleet.l2.stats()["entries"] <= distinct


def test_empty_mesh_requests_get_exactly_one_response_each():
    """A carve that removes every element fails typed on whichever
    shard it lands; co-scheduled and later requests are not lost."""
    carved = {"shape": "sphere", "center": (0.5, 0.5, 0.5), "radius": 2.0}
    wl = _busy_workload(12, seed=5)
    empties = [
        Arrival(wl[k].tick, SolveRequest(geometry=carved, pde=pde, f=1.0 + k))
        for k, pde in ((1, "poisson"), (4, "poisson"), (7, "sbm"), (9, "amr"))
    ]
    fleet = _fleet(2)
    responses = fleet.run(wl + empties)
    by_rid = {}
    for r in responses:
        by_rid.setdefault(r.request_digest, []).append(r)
    assert all(len(v) == 1 for v in by_rid.values())
    assert set(by_rid) == {a.request.digest for a in wl + empties}
    for a in empties:
        (r,) = by_rid[a.request.digest]
        assert (r.status, r.reason) == ("failed", "empty_mesh")
    assert all(by_rid[a.request.digest][0].status == "ok" for a in wl)
    assert all(sh.scheduler.depth == 0 for sh in fleet.shards.values())


# -- synthetic workload --------------------------------------------------


def test_workload_deterministic_and_skewed():
    a = synthetic_workload(60, seed=7)
    b = synthetic_workload(60, seed=7)
    assert [(x.tick, x.request.digest) for x in a] == [
        (x.tick, x.request.digest) for x in b
    ]
    assert [x.tick for x in a] == sorted(x.tick for x in a)
    assert a != synthetic_workload(60, seed=8)
    # zipf: the rank-0 mesh dominates
    rank0 = SolveRequest(**mesh_catalog(6)[0]).mesh_digest
    counts: dict[str, int] = {}
    for x in a:
        md = x.request.mesh_digest
        counts[md] = counts.get(md, 0) + 1
    assert counts[rank0] == max(counts.values())
    # bursty: some gaps far below the quiet-state mean
    gaps = [a[i + 1].tick - a[i].tick for i in range(len(a) - 1)]
    assert min(gaps) < 100 < max(gaps)


def test_mesh_catalog_rejects_pools_past_the_last_positive_radius():
    """Rank 20 would be a disk of radius 0: the largest pool is 20,
    every template of it validates, and a larger one is refused by
    ``mesh_catalog`` itself instead of deep inside the geometry."""
    full = mesh_catalog(20)
    assert len(full) == 20
    for template in full:
        req = SolveRequest(**template)
        req.validate()
        assert req.mesh_digest
    # smaller pools are prefixes: ranks below 20 kept their radii
    assert mesh_catalog(6) == full[:6]
    assert full[19]["geometry"]["radius"] == 0.015
    for pool in (0, 21, 40):
        with pytest.raises(ValueError, match="pool must be in 1..20"):
            mesh_catalog(pool)
    with pytest.raises(ValueError, match="pool must be in 1..20"):
        synthetic_workload(5, seed=0, pool=21)


# -- fleet determinism (shuffle invariance) ------------------------------


@pytest.mark.parametrize("n_shards", [2, 4])
def test_shuffled_submission_order_same_stream_digest(n_shards):
    wl = _busy_workload(36, seed=9)
    shuffled = list(wl)
    random.Random(123).shuffle(shuffled)
    assert [a.request.digest for a in shuffled] != [
        a.request.digest for a in wl
    ]
    a = _fleet(n_shards)
    a.run(wl)
    b = _fleet(n_shards)
    b.run(shuffled)
    assert a.stream_digest == b.stream_digest
    assert a.fleet_digest == b.fleet_digest
    assert a.stats()["status"] == b.stats()["status"]


# -- work stealing -------------------------------------------------------


def test_plan_steals_deterministic_and_capped():
    depths = {"s0": 12, "s1": 0, "s2": 0, "s3": 3}
    plans = plan_steals(depths, threshold=4)
    # deepest victim feeds idle shards in id order, halving each time
    assert [(p.src, p.dst, p.n) for p in plans] == [
        ("s0", "s1", 6), ("s0", "s2", 3),
    ]
    capped = plan_steals(depths, threshold=4, max_items=2,
                         capacity={"s1": 1, "s2": 5})
    assert [(p.src, p.dst, p.n) for p in capped] == [
        ("s0", "s1", 1), ("s0", "s2", 2),
    ]
    assert plan_steals({"s0": 3, "s1": 0}, threshold=4) == []


def test_stealing_fires_and_improves_makespan():
    wl = _busy_workload(48, seed=3)

    def run(stealing):
        f = _fleet(4, stealing=stealing)
        f.run(wl)
        return f

    idle, busy = run(False), run(True)
    assert busy.steal_events and not idle.steal_events
    assert busy.makespan < idle.makespan
    # stealing reorders completions but not the response *set*
    assert {r.request_digest for r in busy.responses} == {
        r.request_digest for r in idle.responses
    }
    # and the steal schedule itself replays bit-identically
    again = run(True)
    assert again.steal_events == busy.steal_events
    assert again.stream_digest == busy.stream_digest


# -- fail-over -----------------------------------------------------------


def test_kill_naming_an_unknown_shard_is_refused_before_any_delivery():
    log = EventLog()
    fleet = _fleet(2, recorder=log)
    fleet.chaos.crash(1500, "shard9")
    with pytest.raises(ValueError, match="'shard9'"):
        fleet.run(_busy_workload(8))
    assert fleet.responses == [] and len(log) == 0
    assert fleet._instances == []
    assert all(not lg.arrivals for lg in fleet.logs.values())
    assert all(sh.scheduler.depth == 0 for sh in fleet.shards.values())


def test_post_arrival_kill_recovers_bit_identically(tmp_path):
    wl = _busy_workload(48, seed=3)
    kill_tick = max(a.tick for a in wl) + 1
    base = _fleet(4, stealing=False)
    base.run(wl)
    for victim in ("shard0", "shard1"):
        killed = _fleet(4, stealing=False, ckpt_dir=tmp_path / victim,
                        ckpt_interval=4,
                        chaos=FaultSchedule().crash(kill_tick, victim))
        killed.run(wl)
        assert killed.failover_events[0].shard_id == victim
        assert len(killed.responses) == len(wl)
        assert killed.fleet_digest == base.fleet_digest
        # sealed state checkpoints actually landed on disk
        assert list((tmp_path / victim).glob(f"{victim}_step*.ckpt.json"))


def test_kill_recovers_without_disk_checkpoints():
    wl = _busy_workload(40, seed=13)
    kill_tick = max(a.tick for a in wl) + 1
    base = _fleet(4, stealing=False)
    base.run(wl)
    killed = _fleet(4, stealing=False,  # in-memory checkpointer
                    chaos=FaultSchedule().crash(kill_tick, "shard0"))
    killed.run(wl)
    assert killed.fleet_digest == base.fleet_digest


def test_early_kill_exactly_once_delivery():
    """A kill during the arrival phase with stealing live: bit-identity
    is out of scope, but every admitted request completes exactly once."""
    wl = _busy_workload(48, seed=3)
    mid = sorted(a.tick for a in wl)[len(wl) // 2]
    fleet = _fleet(4, ckpt_interval=3,
                   chaos=FaultSchedule().crash(mid, "shard1"))
    fleet.run(wl)
    assert sorted(r.request_digest for r in fleet.responses) == sorted(
        a.request.digest for a in wl
    )
    assert fleet.failover_events[0].tick >= mid


def test_a_scheduled_crash_fires_once_across_chunked_runs():
    # one fleet fed in two run() calls, the crash due during the first:
    # the second call must not kill the replacement shard again
    wl = synthetic_workload(30, seed=1)
    mid = sorted(a.tick for a in wl)[15]
    fleet = FleetService(2, chaos=FaultSchedule().crash(mid, "shard0"))
    fleet.run(wl[:15])
    fleet.run(wl[15:])
    assert [e.shard_id for e in fleet.failover_events] == ["shard0"]
    assert fleet.chaos.pending() == []
    assert sorted(r.request_digest for r in fleet.responses) == sorted(
        a.request.digest for a in wl
    )


def test_rebuild_queue_watermark_multiset():
    req = SolveRequest()
    doc = {"request": req.to_doc(), "digest": req.digest,
           "t_submit": 5, "retries": 0}
    other = SolveRequest(f=2.0)
    odoc = {"request": other.to_doc(), "digest": other.digest,
            "t_submit": 9, "retries": 1}
    log = ShardLog(arrivals=[doc, odoc, doc],
                   stolen_away=[req.digest], completed=[other.digest])
    # no checkpoint: full log replay
    out = rebuild_queue(None, log)
    assert [d["digest"] for d in out] == [req.digest]
    # checkpoint past the first arrival: tails only
    state = {"pending": [doc], "arrivals_seen": 1,
             "steals_seen": 0, "completed_seen": 0}
    out = rebuild_queue(state, log)
    assert [d["digest"] for d in out] == [req.digest]
    # a completion with no matching queued item is an inconsistency
    bad = ShardLog(completed=["nope"])
    with pytest.raises(RuntimeError, match="inconsistency"):
        rebuild_queue(None, bad)


def test_request_doc_roundtrip_digest_stable():
    req = SolveRequest(pde="transport", velocity=(1.0, 0.5), steps=2,
                       f=1.25, priority=1)
    assert SolveRequest.from_doc(req.to_doc()).digest == req.digest
    with pytest.raises(ValueError, match="unknown request fields"):
        SolveRequest.from_doc({**req.to_doc(), "bogus": 1})


def test_state_checkpoint_sealed_roundtrip(tmp_path):
    path = tmp_path / "s0_step1.ckpt.json"
    state = {"pending": [], "clock": 42, "arrivals_seen": 3,
             "steals_seen": 0, "completed_seen": 3}
    save_state_checkpoint(path, name="s0", step=1, state=state)
    ck = load_state_checkpoint(path)
    assert ck.state == state and ck.name == "s0" and ck.step == 1
    tampered = path.read_text().replace('"clock": 42', '"clock": 41')
    path.write_text(tampered)
    with pytest.raises(CheckpointCorruption):
        load_state_checkpoint(path)


# -- fleet stats ---------------------------------------------------------


def test_fleet_stats_shape_and_counters():
    fleet = _fleet(2)
    fleet.run(synthetic_workload(16, seed=1))
    st = fleet.stats()
    assert st["n_shards"] == 2
    assert st["responses"] == 16 == sum(st["routed"].values())
    assert set(st["shards"]) == {"shard0", "shard1"}
    for sh in st["shards"].values():
        assert sh["cache"]["name"] in ("shard0", "shard1")
    assert st["makespan_ticks"] == fleet.makespan > 0
    assert len(st["stream_digest"]) == 64
    assert len(st["fleet_digest"]) == 64
