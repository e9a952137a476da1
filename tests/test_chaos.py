"""Tests for repro.chaos: seeded fault schedules, the chaos clock, and
the fleet-level invariant sweep (exactly-once, unaffected-request
identity, deterministic health, exact stage attribution)."""

import pytest

from repro.chaos import (
    CHAOS_KINDS,
    check_schedule,
    run_sweep,
)
from repro.fleet import FleetService, synthetic_workload
from repro.fleet.defense import HedgePolicy
from repro.fleet.service import ShardClock
from repro.obs import EventLog
from repro.obs.reqtrace import timelines
from repro.resilience import FaultSchedule

pytestmark = pytest.mark.chaos


# -- schedules -----------------------------------------------------------


def test_random_schedule_is_seed_deterministic():
    ids = ["shard0", "shard1", "shard2"]
    a = FaultSchedule.random(7, ids, 8000, n_crash=1, n_handoff=2)
    b = FaultSchedule.random(7, ids, 8000, n_crash=1, n_handoff=2)
    assert a.describe() == b.describe()
    c = FaultSchedule.random(8, ids, 8000, n_crash=1, n_handoff=2)
    assert a.describe() != c.describe()


def test_slow_factor_and_stall_windows():
    s = FaultSchedule().slow("s0", 100, 200, 10).stall("s0", 300, 400)
    assert s.slow_factor("s0", 150) == 10
    assert s.slow_factor("s0", 250) == 1  # outside the window
    assert s.slow_factor("s1", 150) == 1  # other shard untouched
    assert s.stall_until("s0", 350) == 400
    assert s.stall_until("s0", 450) == 450
    assert s.stall_until("s1", 350) == 350


def test_stall_windows_chain():
    s = FaultSchedule().stall("s0", 100, 200).stall("s0", 200, 300)
    assert s.stall_until("s0", 150) == 300


def test_one_shot_faults_are_consumed():
    s = FaultSchedule().corrupt_cache("s0", at_lookup=2).handoff(1, "dup")
    assert not s.take("corrupt_cache", 1, "s0")
    assert s.take("corrupt_cache", 2, "s0")
    assert not s.take("corrupt_cache", 2, "s0")  # one-shot
    assert s.take("handoff", 0) is None
    assert s.take("handoff", 1).mode == "dup"
    assert s.take("handoff", 1) is None  # one-shot


def test_chaos_clock_scales_advance_inside_window():
    sched = FaultSchedule().slow("s0", 0, 1000, 5)
    clock = ShardClock(sched, "s0")
    clock.advance(10)
    assert clock.now == 50  # 10 ticks of work cost 5x
    clock.jump_to(2000)  # past the window
    clock.advance(10)
    assert clock.now == 2010


def test_affected_shards_and_describe():
    s = (FaultSchedule().slow("s0", 0, 10).stall("s1", 0, 10)
         .crash(5, "s2").corrupt_cache("s3", 1).handoff(0, "drop"))
    assert s.affected_shards() == {"s0", "s1", "s2", "s3"}
    assert len(s.describe()) == 5


def test_fault_naming_an_unknown_shard_is_refused():
    # at construction: a slow/stall/corruption on a shard the fleet does
    # not have would be accepted and silently never fire
    for sched in (FaultSchedule().slow("shard9", 0, 10),
                  FaultSchedule().stall("shard0", 0, 10).corrupt_cache("nope", 1),
                  FaultSchedule().crash(5, "shard2")):
        with pytest.raises(ValueError, match="unknown shard '(shard9|nope|shard2)'"):
            FleetService(2, chaos=sched)
    # at run(): a crash added to the schedule after construction
    sched = FaultSchedule()
    fleet = FleetService(2, chaos=sched)
    sched.crash(5, "shard7")
    with pytest.raises(ValueError, match="'shard7'"):
        fleet.run(synthetic_workload(6, seed=1))
    assert fleet.responses == [] and fleet._instances == []


# -- invariants ----------------------------------------------------------


def test_stage_attribution_sums_exactly_under_chaos():
    log = EventLog()
    sched = FaultSchedule().slow("shard0", 0, 10**7, 20)
    fleet = FleetService(
        2, cache_bytes=8 << 20, steal_threshold=4, steal_latency=100,
        stealing=False, recorder=log, chaos=sched,
        hedge=HedgePolicy(initial_delay=2_000, min_delay=1_000,
                          min_samples=10**9),
    )
    fleet.run(synthetic_workload(24, seed=2))
    n = 0
    for tl in timelines(log):
        assert sum(tl.stages.values()) == tl.latency
        n += 1
    assert n == len(fleet.responses) == 24


def test_check_schedule_single_seed():
    res = check_schedule(0)
    assert res["band"] == "isolation"
    assert res["responses"] == 40
    assert res["unaffected_checked"] > 0
    assert len(res["event_digest"]) == 64


def test_invariant_sweep_subset():
    out = run_sweep(seeds=(0, 1), handoff_seeds=(100,), log=None)
    assert out["passed"] == out["schedules"] == 3
    assert not out["breaches"]
    bands = {r["band"] for r in out["results"]}
    assert bands == {"isolation", "handoff"}


def test_chaos_kinds_are_registered_event_kinds():
    from repro.obs.events import EVENT_KINDS

    assert CHAOS_KINDS <= set(EVENT_KINDS)


# -- chaos-demo CLI ------------------------------------------------------


def test_chaos_demo_cli_runs_and_is_deterministic(capsys, tmp_path):
    from repro.cli import main

    argv = ["chaos-demo", "--seed", "1", "--shards", "2",
            "--requests", "20", "--out", str(tmp_path / "a.txt")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["chaos-demo", "--seed", "1", "--shards", "2",
                 "--requests", "20", "--out", str(tmp_path / "b.txt")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a.txt").read_text()
    b = (tmp_path / "b.txt").read_text()
    assert a == b
    assert "fleet digest:" in a and "fault:" in a
