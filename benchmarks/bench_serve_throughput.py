"""Serving throughput — cold vs cache-hot vs batched, and the tick model
next to the seconds it predicts.

Measures what the :mod:`repro.serve` stack buys on a 30-request
workload over three discretizations:

* **cold** — empty artifact cache: every fingerprint pays mesh
  construction + operator-context build + factorization;
* **hot sequential** — warm cache, ``max_batch=1``: requests skip all
  build work but each one solves its unit problem again;
* **hot batched** — warm cache, ``max_batch=10``: requests sharing a
  batch key are linear combinations of the same unit responses, so the
  batch solves each unit problem **once** and a further member costs one
  scaled copy (:mod:`repro.serve.batcher`).

The acceptance bar is batched >= 2x hot-sequential throughput.

The second table puts the scheduler's cost model beside the stopwatch
(ROADMAP 1d): for batch sizes k = 1, 2, 4, 8 on one 3-D template, the
measured seconds of ``solve_batch`` next to ``cost_solve`` ticks
(``n·matvecs + 16·k``).  Both are flat in k up to the per-member term;
the bar is measured k = 8 ÷ k = 1 <= 1.5 (with k scaled copies of one
vector advanced through a block CG it was 3.3–4.4x against the model's
1.002x).  Speedups, latency percentiles (measured wall time, summarised
with the deterministic :class:`repro.obs.Histogram`) and both tables
land in ``benchmarks/results/serve_throughput.{txt,json}`` (bench.v1
sidecar with structured records).
"""

import time

from repro.obs import Histogram
from repro.serve import SolveRequest, SolverService
from repro.serve.batcher import build_entry, ensure_factor, solve_batch
from repro.serve.scheduler import cost_solve

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


def _model_vs_measured(table: ResultTable) -> float:
    """Seconds per ``solve_batch`` beside ``cost_solve`` ticks per batch
    size; returns the measured k = 8 ÷ k = 1 ratio."""
    reqs = [SolveRequest(f=0.5 + 0.17 * j, **TEMPLATE_3D)
            for j in range(max(BATCH_SIZES))]
    factor, _ = ensure_factor(build_entry(reqs[0]), reqs[0])

    def seconds(k: int) -> float:
        t0 = time.perf_counter()
        solve_batch(factor, reqs[:k])
        return time.perf_counter() - t0

    table.row("")
    table.row(f"model next to measurement: one 3-D poisson template, "
              f"{factor.n_nodes} nodes")
    table.row(f"{'k':>2} {'s/batch':>10} {'vs k=1':>7} {'ticks':>8} "
              f"{'vs k=1':>7} {'us/tick':>8}")
    ticks = {k: cost_solve(factor.n_nodes,
                           solve_batch(factor, reqs[:k]).matvecs, k)
             for k in BATCH_SIZES}
    best = dict.fromkeys(BATCH_SIZES, float("inf"))
    for _ in range(25):  # sizes interleaved: a slow phase hits them all
        for k in BATCH_SIZES:
            best[k] = min(best[k], seconds(k))
    s1, t1 = best[BATCH_SIZES[0]], ticks[BATCH_SIZES[0]]
    for k in BATCH_SIZES:
        secs, tk = best[k], ticks[k]
        table.row(f"{k:>2} {secs:>10.6f} {secs / s1:>6.2f}x {tk:>8d} "
                  f"{tk / t1:>6.3f}x {1e6 * secs / tk:>8.4f}")
        table.record(batch_size=k, seconds_per_batch=secs, ticks=tk,
                     seconds_ratio=secs / s1, ticks_ratio=tk / t1)
    return best[BATCH_SIZES[-1]] / s1


def test_serve_throughput():
    table = ResultTable(
        "serve_throughput",
        "Serving throughput: cold vs cache-hot vs batched "
        f"({N_REQUESTS} requests, {len(SPECS)} discretizations)",
    )

    # cold: every fingerprint pays the full build pipeline
    svc_seq = SolverService(max_batch=1)
    t_cold = _run_stream(svc_seq)

    # hot sequential: warm cache, single-RHS solves, per-request latency
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
        f"batched speedup over sequential:  {speedup_bat:>6.2f}x  (bar: >= 2x)"
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
    k8_over_k1 = _model_vs_measured(table)
    table.row(f"measured k=8 / k=1: {k8_over_k1:.2f}x  (bar: <= 1.5x)")
    table.save()

    assert speedup_hot > 1.0, "cache-hot must beat cold"
    assert speedup_bat >= 2.0, (
        f"batched speedup {speedup_bat:.2f}x below the 2x bar"
    )
    assert k8_over_k1 <= 1.5, (
        f"a batch of 8 costs {k8_over_k1:.2f}x a batch of 1; the tick "
        "model says flat"
    )


if __name__ == "__main__":
    test_serve_throughput()
