"""Fleet shard scaling — virtual throughput and tail latency vs N.

Runs the same seeded zipf/bursty workload through 1-, 2-, 4- and
8-shard fleets and reports, per shard count:

* **virtual throughput** — requests per kilotick of fleet makespan
  (the furthest any shard clock advanced);
* **tail latency** — p50/p95/p99 of the virtual arrival-to-completion
  latency (deterministic :class:`repro.obs.Histogram` percentiles);
* steal and shared-L2 activity, which is *why* the skewed workload
  scales: consistent-hash routing hot-spots the zipf-popular meshes
  onto one shard, stealing rebalances the backlog, and the second tier
  turns the thief's rebuild into a cheap fetch.

Two acceptance bars gate the run:

* the 4-shard fleet must reach **>= 2x** the single-shard virtual
  throughput on the identical workload;
* a mid-run shard kill (after the arrival phase, stealing quiescent —
  the certified fail-over scenario) must recover with a **fleet digest
  bit-identical** to the failure-free run's;
* attaching the flight recorder must not perturb virtual time at all:
  a recorded 4-shard run must reproduce the recorder-free makespan and
  fleet digest **exactly** (the ISSUE bar of "within 10%" is met with
  zero margin — recording is off the virtual clock by construction).

Each scaling row also reports where the latency went: the flight
recorder's per-stage attribution (queue wait vs batch assembly vs
build/factor vs solve) is aggregated into mean-ticks-per-request
columns and into the JSON sidecar (``stage_mean_ticks``).

Everything is on the virtual clock, so every number in the table —
including the percentiles — is bit-reproducible across machines.
Results land in ``benchmarks/results/fleet_scaling.{txt,json}``
(bench.v1 sidecar with structured records).
"""

from repro.fleet import FleetService, synthetic_workload
from repro.obs import EventLog
from repro.obs.reqtrace import STAGES, stage_histograms
from repro.resilience import FaultSchedule

from _util import ResultTable

N_REQUESTS = 96
SEED = 11
SHARD_COUNTS = (1, 2, 4, 8)


def _workload():
    # compute-bound regime: interarrival gaps well below the ~200-tick
    # per-request cost, so queues build and shard parallelism matters
    return synthetic_workload(
        N_REQUESTS, seed=SEED, mean_gap=20, burst_gap=4, pool=8
    )


def _fleet(n_shards, *, stealing=True, ckpt_dir=None, recorder=None, **kw):
    return FleetService(
        n_shards, cache_bytes=8 << 20, steal_threshold=4,
        steal_latency=100, stealing=stealing, ckpt_dir=ckpt_dir,
        ckpt_interval=4, recorder=recorder, **kw,
    )


def _stage_means(recorder):
    """Mean ticks per request for each serving stage (+ e2e)."""
    hists = stage_histograms(recorder)
    return {
        stage: (h.sum / h.count if h.count else 0.0)
        for stage, h in hists.items()
    }


def test_fleet_scaling(tmp_path=None):
    table = ResultTable(
        "fleet_scaling",
        f"Fleet shard scaling ({N_REQUESTS} zipf/bursty requests, "
        f"seed {SEED}, shard counts {list(SHARD_COUNTS)})",
    )
    wl = _workload()
    table.row(
        f"{'shards':>6} {'makespan':>9} {'req/ktick':>10} {'p50':>7} "
        f"{'p95':>7} {'p99':>7} {'steals':>7} {'l2 hits':>8}"
    )
    thr = {}
    means = {}
    digests = {}
    for n in SHARD_COUNTS:
        rec = EventLog()
        fleet = _fleet(n, recorder=rec)
        fleet.run(wl)
        st = fleet.stats()
        assert st["status"] == {"ok": N_REQUESTS}, st["status"]
        lat = st["latency_ticks"]
        thr[n] = 1000.0 * N_REQUESTS / fleet.makespan
        means[n] = _stage_means(rec)
        digests[n] = (fleet.makespan, st["fleet_digest"])
        table.row(
            f"{n:>6} {fleet.makespan:>9} {thr[n]:>10.2f} "
            f"{lat['p50']:>7.0f} {lat['p95']:>7.0f} {lat['p99']:>7.0f} "
            f"{st['steals']:>7} {st['l2']['hits']:>8}"
        )
        table.record(
            shards=n, makespan_ticks=fleet.makespan,
            requests_per_kilotick=thr[n], latency_p50=lat["p50"],
            latency_p95=lat["p95"], latency_p99=lat["p99"],
            steals=st["steals"], stolen_items=st["stolen_items"],
            l2_hits=st["l2"]["hits"], fleet_digest=st["fleet_digest"],
            event_digest=rec.digest, n_events=len(rec),
            stage_mean_ticks=means[n],
        )
    speedup = thr[4] / thr[1]
    table.row(f"4-shard speedup over single shard: {speedup:.2f}x  "
              "(bar: >= 2x)")

    table.row("")
    table.row("per-stage mean latency (ticks/request, flight-recorder "
              "attribution):")
    table.row(f"{'shards':>6} " + " ".join(f"{s:>7}" for s in STAGES)
              + f" {'e2e':>8}")
    for n in SHARD_COUNTS:
        m = means[n]
        table.row(f"{n:>6} " + " ".join(f"{m[s]:>7.0f}" for s in STAGES)
                  + f" {m['e2e']:>8.0f}")

    # recorder overhead: recording lives off the virtual clock, so a
    # recorder-free rerun must land the identical makespan and digest
    bare = _fleet(4)
    bare.run(wl)
    rec_makespan, rec_digest = digests[4]
    no_overhead = (bare.makespan == rec_makespan
                   and bare.fleet_digest == rec_digest)
    table.row("")
    table.row(
        f"recorded vs recorder-free 4-shard run: makespan {rec_makespan} "
        f"vs {bare.makespan}, digests equal: "
        f"{bare.fleet_digest == rec_digest}"
    )
    table.record(recording_overhead_ticks=rec_makespan - bare.makespan,
                 recording_bit_identical=no_overhead)

    # fail-over recovery: kill the busiest shard after the last arrival
    # (the certified bit-identity scenario) and compare fleet digests
    base = _fleet(4, stealing=False)
    base.run(wl)
    kill_tick = max(a.tick for a in wl) + 1
    victim = max(sorted(base.routed), key=lambda s: base.routed[s])
    ckpt_dir = None if tmp_path is None else tmp_path / "ckpt"
    killed = _fleet(4, stealing=False, ckpt_dir=ckpt_dir,
                    chaos=FaultSchedule().crash(kill_tick, victim))
    killed.run(wl)
    ev = killed.failover_events[0]
    recovered = killed.fleet_digest == base.fleet_digest
    table.row(f"fail-over: {ev.describe()}")
    table.row(
        f"recovered fleet digest == failure-free: {recovered}  "
        f"({killed.fleet_digest[:16]}…)"
    )
    table.record(
        kill_tick=kill_tick, victim=victim, replayed=ev.replayed,
        recovered_bit_identical=recovered,
        speedup_4shard_over_1shard=speedup,
    )

    # straggler tail latency: the busiest shard runs 10x slow for the
    # whole run (stealing off, so nothing else rebalances); hedged
    # requests must claw back at least half of the lost p99
    from repro.fleet.defense import HedgePolicy

    def straggler_fleet(hedge=None):
        return _fleet(
            4, stealing=False,
            chaos=FaultSchedule().slow(victim, 0, 1 << 30, 10),
            hedge=hedge,
        )

    # the delay is pinned (unreachable min_samples): under a whole-run
    # straggler the adaptive p95 is itself straggler-inflated, so the
    # observed-latency recipe never fires — the classic feedback trap
    hedge_policy = HedgePolicy(initial_delay=2_000, min_delay=1_000,
                               min_samples=10**9, transfer_latency=100)
    p99_clean = base.stats()["latency_ticks"]["p99"]
    no_hedge = straggler_fleet()
    no_hedge.run(wl)
    p99_no_hedge = no_hedge.stats()["latency_ticks"]["p99"]
    hedged = straggler_fleet(hedge=hedge_policy)
    hedged.run(wl)
    p99_hedged = hedged.stats()["latency_ticks"]["p99"]
    lost_no_hedge = p99_no_hedge - p99_clean
    lost_hedged = max(p99_hedged - p99_clean, 1.0)
    recovery = lost_no_hedge / lost_hedged
    table.row("")
    table.row(f"straggler tail ({victim} 10x slow, 4 shards, "
              "stealing off):")
    table.row(f"{'config':>12} {'p99':>9} {'lost p99':>9} {'hedges':>7}")
    table.row(f"{'clean':>12} {p99_clean:>9.0f} {0:>9.0f} {'-':>7}")
    table.row(f"{'no hedge':>12} {p99_no_hedge:>9.0f} "
              f"{lost_no_hedge:>9.0f} {0:>7}")
    table.row(f"{'hedged':>12} {p99_hedged:>9.0f} "
              f"{p99_hedged - p99_clean:>9.0f} "
              f"{hedged.hedges_fired:>7}")
    table.row(f"hedging recovered {recovery:.1f}x of the lost p99 "
              "(bar: >= 2x)")
    table.record(
        straggler_victim=victim,
        straggler_p99_clean=p99_clean,
        straggler_p99_no_hedge=p99_no_hedge,
        straggler_p99_hedged=p99_hedged,
        straggler_hedges_fired=hedged.hedges_fired,
        straggler_hedge_wins=hedged.hedge_wins,
        straggler_p99_recovery=recovery,
    )
    table.save()

    assert speedup >= 2.0, (
        f"4-shard virtual throughput {speedup:.2f}x below the 2x bar"
    )
    assert recovered, "recovered fleet digest diverged from failure-free run"
    assert no_overhead, (
        "flight recorder perturbed the virtual clock: "
        f"makespan {rec_makespan} vs {bare.makespan}"
    )
    assert hedged.hedges_fired > 0, "straggler scenario never hedged"
    assert recovery >= 2.0, (
        f"hedging recovered only {recovery:.2f}x of the straggler's "
        "lost p99 (bar: >= 2x)"
    )


if __name__ == "__main__":
    test_fleet_scaling()
