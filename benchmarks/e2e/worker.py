"""One pass of one workload in one fresh interpreter.

``run.py`` starts this file once per pass so lazy caches, shims and RSS
never leak between passes.  The last line of stdout is one JSON object.

Modes: ``timed`` (the untraced pass all end-to-end metrics come from),
``traced`` (shims on, per-layer metrics), ``recorded`` (fleet flight
recorder on, no shims) and ``obs`` (``repro.obs`` tracing on, no shims).

A measurement is several identical passes (same seed, same ops, one
interpreter each); :func:`summarize` turns them into the end-to-end
numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

#: process start as far as this file can see it: before numpy and repro
T_START = time.perf_counter()

MODES = ("timed", "traced", "recorded", "obs")
SLICE_CALLS = 20


def percentile(samples, q: float) -> float:
    """``q``-th percentile (0-100) with linear interpolation."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


def fastest(rows) -> list:
    """Element-wise minimum over the passes' rows."""
    return [min(column) for column in zip(*rows)]


def run_ops(wl, ops, tracer=None) -> dict:
    """The measured loop: time every call, check every output.

    Checks run between calls and their time is taken out of the pass's
    wall time.  A call that raises, and every item a check rejects,
    counts as failed.
    """
    clock = time.perf_counter
    samples: list[float] = []
    op_items: list[int] = []
    op_seconds: list[float] = []
    errors: list[str] = []
    attempted = failed = raised = 0
    inside = check_s = 0.0
    t_begin = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        n = wl.n_items(op)
        attempted += n
        t0 = clock()
        try:
            out, lat, ins = wl.call(op)
        except Exception:  # a failed op must not end the pass
            op_seconds.append(clock() - t0)
            op_items.append(0)
            inside += op_seconds[-1]
            failed += n
            raised += 1
            if len(errors) < 3:
                errors.append(traceback.format_exc(limit=6))
            continue
        t1 = clock()
        samples.extend(lat if lat is not None else (t1 - t0,))
        inside += ins if ins is not None else t1 - t0
        mark = tracer.mark() if tracer is not None else None
        bad = wl.check(op, out)
        failed += bad
        op_items.append(n - bad)
        op_seconds.append(t1 - t0)
        if tracer is not None:
            tracer.rewind(mark)  # spans of the check are not the pass's
        check_s += clock() - t1
    wall = clock() - t_begin - check_s
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "raised": raised, "errors": errors, "wall_s": wall,
            "inside_s": inside, "calls": len(ops), "op_items": op_items,
            "op_seconds": op_seconds}


def summarize(passes: list[dict]) -> dict:
    """End-to-end numbers of one measurement from :func:`run_ops` output
    of its identical passes.

    Every timed call and every latency sample counts at the fastest of
    its repetitions: the work of a call is the same in every pass, so
    what differs is the box, and a stall has to hit the same call in
    every pass to reach a metric.
    """
    seconds = fastest([p["op_seconds"] for p in passes])
    items = fastest([p["op_items"] for p in passes])
    samples = fastest([p["samples"] for p in passes])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    out = {
        "throughput_per_s": sum(items) / sum(seconds),
        "ok_share": (attempted - failed) / attempted,
        "attempted": attempted,
        "failed": failed,
        "samples": len(samples),
        "p90_samples_beyond": samples_beyond(len(samples), 90),
    }
    if samples:
        out["latency_p50_s"] = percentile(samples, 50)
        out["latency_p90_s"] = percentile(samples, 90)
    return out


def _add_src_to_path() -> None:
    src = Path(__file__).resolve().parents[2] / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"e2e: program source not found at {src}")
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=MODES, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="share of the workload's base op count to run")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    _add_src_to_path()
    import numpy
    import scipy
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    if args.mode == "recorded":
        from repro.obs import EventLog

        wl.recorder = EventLog()
    elif args.mode == "obs":
        import repro.obs

        repro.obs.enable()
    # shims go in before set-up so that objects it builds (LU factors)
    # are traced too; the spans of set-up itself are dropped
    tracer = spans.Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    try:
        ops = wl.setup(args.seed, max(1, round(wl.base_ops * args.scale)))
        setup_s = time.perf_counter() - T_START
        if tracer is not None:
            tracer.rewind((0, {}))
        doc = run_ops(wl, ops, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    doc.update({
        "workload": args.workload, "mode": args.mode, "seed": args.seed,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "scipy": scipy.__version__}})
    doc.update(wl.finish())
    if tracer is not None:
        layers = spans.reduce_spans(tracer.spans, tracer.counts)
        layers.update(doc["stats"])
        layers["trace.driver_share"] = (
            1.0 - layers["trace.inside_s"] / doc["wall_s"])
        # computed, so that it repeats: the spans of the pass at the cost
        # one span has in a tight loop of this interpreter
        layers["trace.span_cost_s"] = spans.span_cost()
        layers["trace.overhead_share"] = (
            layers["trace.spans"] * layers["trace.span_cost_s"]
            / layers["trace.inside_s"])
        if hasattr(wl, "backend_slice"):
            from repro.kernels import available_backends

            for backend, ok in sorted(available_backends().items()):
                if ok:
                    span, secs = wl.backend_slice(backend, SLICE_CALLS)
                    layers[f"{span}.s_per_call.{backend}"] = secs
        doc["per_layer"] = layers
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
