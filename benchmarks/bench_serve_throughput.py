"""Serving throughput — cold vs cache-hot, and the tick model next to
the seconds it predicts, on a unit miss and on a unit hit.

Measures what the :mod:`repro.serve` stack buys on a 30-request
workload over three discretizations:

* **cold** — empty artifact cache: every fingerprint pays mesh
  construction + operator-context build + factorization, and every
  factor its first unit solve;
* **hot sequential** — warm cache, ``max_batch=1``: requests skip all
  build work and, the factor holding its unit responses, all solve work
  too — a request is one scaled add plus the service around it;
* **hot batched** — warm cache, ``max_batch=10``: the same scaled adds,
  the per-batch service work (lookup, digest re-verification, events)
  shared by up to ten members.

Both hot modes are memo hits, so their ratio prices per-batch service
overhead, not solves; it is reported without a bar.  The bar of the
first table is hot > cold.

The second table puts the scheduler's cost model beside the stopwatch
(ROADMAP item 2): for batch sizes k = 1, 2, 4, 8 on one 3-D template,
the measured seconds of ``solve_batch`` next to ``cost_solve`` ticks
(``n·matvecs + 16·k``), once on a **unit miss** (the factor has not been
asked yet: one CG solve, then k scaled adds) and once on a **unit hit**
(k scaled adds).  The model charges both the same — the virtual clock
describes a server without the memo — so the two us/tick columns are the
gap item 2's re-fit has to close, and the last line prices one hit
member against the model's 16 ticks.  Bars: miss k = 8 ÷ k = 1 <= 1.5
(a batch solves once whatever its size) and hit ÷ miss at k = 8 <= 0.25
(a hot batch does not solve).  Latency percentiles (measured wall time,
summarised with the deterministic :class:`repro.obs.Histogram`) and both
tables land in ``benchmarks/results/serve_throughput.{txt,json}``
(bench.v1 sidecar with structured records).
"""

import time

from repro.obs import Histogram
from repro.serve import SolveRequest, SolverService
from repro.serve.batcher import build_entry, ensure_factor, solve_batch
from repro.serve.scheduler import TICKS_PER_COLUMN, cost_solve

from _util import ResultTable

N_REQUESTS = 30
SPECS = [
    {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3},
    {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.2},
    {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.15},
]


def _workload() -> list[SolveRequest]:
    return [
        SolveRequest(
            geometry=SPECS[i % len(SPECS)],
            base_level=2,
            boundary_level=5,
            f=1.0 + 0.03 * i,
            priority=i % 3,
        )
        for i in range(N_REQUESTS)
    ]


def _run_stream(svc: SolverService, hist: Histogram | None = None) -> float:
    reqs = _workload()
    t0 = time.perf_counter()
    if hist is None:
        for r in reqs:
            svc.submit(r)
        done = svc.drain()
    else:
        done = []
        for r in reqs:  # per-request wall latency needs one drain each
            t1 = time.perf_counter()
            svc.submit(r)
            done += svc.drain()
            hist.observe(time.perf_counter() - t1)
    elapsed = time.perf_counter() - t0
    assert len(done) == N_REQUESTS
    assert all(resp.ok for resp in done)
    return elapsed


def _best_of(n: int, fn) -> float:
    return min(fn() for _ in range(n))


#: the 3-D template of the model-vs-measurement table
TEMPLATE_3D = dict(
    geometry={"shape": "sphere", "center": (0.5, 0.5, 0.5), "radius": 0.25},
    base_level=3, boundary_level=5,
)
BATCH_SIZES = (1, 2, 4, 8)


def _model_vs_measured(table: ResultTable) -> tuple[float, float]:
    """Seconds per ``solve_batch`` beside ``cost_solve`` ticks per batch
    size, on a unit miss and on a unit hit; returns the measured miss
    k = 8 ÷ k = 1 and hit ÷ miss at k = 8 ratios."""
    reqs = [SolveRequest(f=0.5 + 0.17 * j, **TEMPLATE_3D)
            for j in range(max(BATCH_SIZES))]
    factor, _ = ensure_factor(build_entry(reqs[0]), reqs[0])

    def seconds(unit: str, k: int) -> float:
        if unit == "miss":
            factor.units.clear()  # a factor that has not been asked yet
        t0 = time.perf_counter()
        solve_batch(factor, reqs[:k])
        return time.perf_counter() - t0

    ticks = {k: cost_solve(factor.n_nodes,
                           solve_batch(factor, reqs[:k]).matvecs, k)
             for k in BATCH_SIZES}
    best = {(unit, k): float("inf") for unit in ("miss", "hit")
            for k in BATCH_SIZES}
    for _ in range(25):  # interleaved: a slow phase hits every cell
        for cell in best:
            best[cell] = min(best[cell], seconds(*cell))
    table.row("")
    table.row(f"model next to measurement: one 3-D poisson template, "
              f"{factor.n_nodes} nodes")
    table.row(f"{'unit':<4} {'k':>2} {'s/batch':>10} {'vs k=1':>7} "
              f"{'ticks':>8} {'vs k=1':>7} {'us/tick':>8}")
    k1, k8 = BATCH_SIZES[0], BATCH_SIZES[-1]
    for (unit, k), secs in best.items():
        s1, tk = best[unit, k1], ticks[k]
        table.row(f"{unit:<4} {k:>2} {secs:>10.6f} "
                  f"{secs / s1:>6.2f}x {tk:>8d} {tk / ticks[k1]:>6.3f}x "
                  f"{1e6 * secs / tk:>8.5f}")
        table.record(unit=unit, batch_size=k, seconds_per_batch=secs,
                     ticks=tk, seconds_ratio=secs / s1,
                     ticks_ratio=tk / ticks[k1])
    member = (best["hit", k8] - best["hit", k1]) / (k8 - k1)
    per_tick_miss = best["miss", k1] / ticks[k1]
    table.row(f"one hit member: {1e6 * member:.1f} us against "
              f"{TICKS_PER_COLUMN} ticks = {1e6 * member / TICKS_PER_COLUMN:.3f}"
              f" us/tick, {member / TICKS_PER_COLUMN / per_tick_miss:.0f}x "
              "the miss rate per tick")
    return (best["miss", k8] / best["miss", k1],
            best["hit", k8] / best["miss", k8])


def test_serve_throughput():
    table = ResultTable(
        "serve_throughput",
        "Serving throughput: cold vs cache-hot, unit miss vs unit hit "
        f"({N_REQUESTS} requests, {len(SPECS)} discretizations)",
    )

    # cold: every fingerprint pays the full build pipeline
    svc_seq = SolverService(max_batch=1)
    t_cold = _run_stream(svc_seq)

    # hot sequential: warm cache and memo, one request per batch
    hist = Histogram()
    t_hot_seq = _best_of(3, lambda: _run_stream(svc_seq, hist))

    # hot batched: warm the batched service once, then time it
    svc_bat = SolverService(max_batch=10)
    _run_stream(svc_bat)
    t_hot_bat = _best_of(3, lambda: _run_stream(svc_bat))

    speedup_hot = t_cold / t_hot_seq
    speedup_bat = t_hot_seq / t_hot_bat
    rps = N_REQUESTS / t_hot_bat
    s = hist.summary()

    table.row(f"{'mode':<18} {'seconds':>9} {'req/s':>8}")
    for mode, t in [("cold", t_cold), ("hot sequential", t_hot_seq),
                    ("hot batched", t_hot_bat)]:
        table.row(f"{mode:<18} {t:>9.4f} {N_REQUESTS / t:>8.1f}")
    table.row(
        f"cache-hot speedup over cold:      {speedup_hot:>6.2f}x"
    )
    table.row(
        f"batched speedup over sequential:  {speedup_bat:>6.2f}x  "
        "(per-batch service overhead shared; both modes are unit hits)"
    )
    table.row(
        "hot sequential per-request latency (s): "
        f"p50={s['p50']:.2e} p95={s['p95']:.2e} p99={s['p99']:.2e} "
        f"max={s['max']:.2e}"
    )
    st = svc_bat.stats()
    table.row(
        f"batched service: {st['batches']} batches, "
        f"mean size {st['mean_batch_size']}, cache hits {st['cache']['hits']}"
    )
    table.record(mode="cold", seconds=t_cold)
    table.record(mode="hot_sequential", seconds=t_hot_seq,
                 latency_p50=s["p50"], latency_p95=s["p95"],
                 latency_p99=s["p99"])
    table.record(mode="hot_batched", seconds=t_hot_bat,
                 requests_per_second=rps)
    table.record(speedup_hot_over_cold=speedup_hot,
                 speedup_batched_over_sequential=speedup_bat)
    miss_k8_over_k1, hit_over_miss = _model_vs_measured(table)
    table.row(f"measured miss k=8 / k=1: {miss_k8_over_k1:.2f}x  "
              "(bar: <= 1.5x)")
    table.row(f"measured hit / miss at k=8: {hit_over_miss:.3f}x  "
              "(bar: <= 0.25x)")
    table.save()

    assert speedup_hot > 1.0, "cache-hot must beat cold"
    assert miss_k8_over_k1 <= 1.5, (
        f"a first batch of 8 costs {miss_k8_over_k1:.2f}x a first batch of "
        "1; the tick model says flat"
    )
    assert hit_over_miss <= 0.25, (
        f"a hot batch of 8 costs {hit_over_miss:.2f}x a first one: it is "
        "solving, not combining"
    )


if __name__ == "__main__":
    test_serve_throughput()
