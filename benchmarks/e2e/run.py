"""``e2e`` — the repo's wall-clock benchmark.

Two ways to run it, one measurement underneath:

* **Document mode** — ``python benchmarks/e2e/run.py --seed 0 [--out FILE]``
  runs the five workloads one after another (a timed measurement, then a
  traced one), checks every output and prints every metric by name and
  unit as one JSON document.  ``--workload NAME`` and ``--pass
  timed|traced`` select a subset, ``--quick`` cuts every op count to 1/20
  and runs every pass once, for a smoke run.
* **Contract mode** — ``--workload NAME --seed N --seconds S --trace 0|1``
  measures one workload once and prints, as the last line of stdout, the
  ``{"correct", "attempted", "failed", "metrics"}`` object that
  ``BENCHMARK.json`` describes: the end-to-end metrics with ``--trace 0``,
  the per-layer metrics with ``--trace 1``.

A measurement is ``PASSES`` identical passes — same seed, same ops, each
in a fresh single-threaded interpreter (``worker.py``), strictly one
after another — and every timed call counts at the fastest of its
repetitions (``worker.summarize``).  This file imports neither numpy nor
the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from compare import EXACT_UNITS
from worker import fastest, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro.bench/e2e.v2"
#: every pass runs single-threaded and with the same string hashes, so the
#: passes of a measurement execute the same program
PASS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
#: identical passes per measurement; ``setup_s`` and ``peak_rss_mb`` are
#: their medians
PASSES = 3
#: the traced measurement alternates untraced and traced passes on the
#: same ops, each at this share of the timed measurement's op count
TRACE_SCALE = 0.5
QUICK_SCALE = 0.05
MAX_TRACE_OVERHEAD = 0.15
MAX_SELF_TIME_GAP = 0.01
#: extra untraced pass of the traced measurement: workload -> (worker
#: mode, metric its slowdown against the bare pass is reported as)
OBS_PASSES = {
    "fleet_zipf": ("recorded", "obs.recorder.overhead_share"),
    "matfree_solve": ("obs", "obs.trace.overhead_share"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_worker(workload: str, mode: str, seed: int, scale: float,
               spans_out: str | None = None) -> dict:
    """One pass in a fresh interpreter; returns the worker's JSON."""
    env = {**os.environ, **PASS_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--seed", str(seed), "--scale", repr(scale)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=60)
    if proc.returncode != 0:
        sys.exit(f"e2e: {mode} pass of {workload} exited "
                 f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint(versions: dict) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "pass_env": PASS_ENV, **versions}


def _failures(passes) -> list[str]:
    """What is wrong with the outputs of a measurement's passes."""
    notes = []
    for p in passes:
        if p["failed"]:
            notes.append(f"{p['mode']}: {p['failed']}/{p['attempted']} "
                         f"items failed" + "".join(
                             "\n" + e for e in p["errors"]))
    digests = {p["output_digest"] for p in passes}
    if len(digests) > 1:
        notes.append("output digests differ between passes: "
                     + ", ".join(f"{p['mode']}={p['output_digest'][:12]}"
                                 for p in passes))
    return notes


def measure_timed(workload: str, seed: int, scale: float,
                  passes: int = PASSES) -> dict:
    """End-to-end metrics from ``passes`` identical untraced passes."""
    runs = [run_worker(workload, "timed", seed, scale)
            for _ in range(passes)]
    values = {name: [p[name] for p in runs]
              for name in ("setup_s", "peak_rss_mb")}
    result = summarize(runs)
    end_to_end = {name: result.pop(name) for name in (
        "throughput_per_s", "latency_p50_s", "latency_p90_s", "ok_share")
        if name in result}
    for name, per_pass in values.items():
        end_to_end[name] = statistics.median(per_pass)
    # what the measurement reads with any one pass left out: the spread
    # of these readings is compare.py's ``unresolved``
    subsets = [runs[:k] + runs[k + 1:] for k in range(passes)]
    for name in ("throughput_per_s", "latency_p50_s", "latency_p90_s"):
        if passes > 1 and name in end_to_end:
            values[name] = [summarize(rest)[name] for rest in subsets]
    notes = _failures(runs)
    return {
        **result,
        "end_to_end": end_to_end, "values": values,
        "timed_calls": runs[0]["calls"],
        "timed_wall_s": [p["wall_s"] for p in runs],
        "output_digest": runs[0]["output_digest"],
        "versions": runs[0]["versions"],
        "correct": not notes, "notes": notes,
    }


def measure_traced(workload: str, seed: int, scale: float, units: dict,
                   passes: int = PASSES, spans_dir: str | None = None) -> dict:
    """Per-layer metrics: untraced and traced passes alternate on the same
    ops (plus the workload's observability pass if it has one).  The
    layers are those of the traced pass that spent least inside its
    calls; the slowdown of a kind of pass against the untraced one
    compares the sums of their fastest-repetition call times."""
    scale *= TRACE_SCALE
    modes = ["timed", "traced"]
    if workload in OBS_PASSES:
        modes.append(OBS_PASSES[workload][0])
    if spans_dir:
        os.makedirs(spans_dir, exist_ok=True)
    runs: dict = {mode: [] for mode in modes}
    for k in range(passes):
        for mode in modes:
            spans_out = None
            if spans_dir and mode == "traced":
                spans_out = os.path.join(spans_dir,
                                         f"{workload}.{k}.spans.json")
            runs[mode].append(run_worker(workload, mode, seed, scale,
                                         spans_out))
    seconds = {mode: sum(fastest([p["op_seconds"] for p in runs[mode]]))
               for mode in modes}
    traced = min(runs["traced"], key=lambda p: p["inside_s"])
    layers = traced["per_layer"]
    notes = _failures([p for mode in modes for p in runs[mode]])
    drifting = sorted(
        name for name, value in layers.items()
        if units.get(name) in EXACT_UNITS and any(
            p["per_layer"][name] != value for p in runs["traced"]))
    if drifting:
        notes.append("exact counts differ between traced passes: "
                     + ", ".join(drifting))
    layers["trace.slowdown_share"] = (
        1.0 - seconds["timed"] / seconds["traced"])
    if workload in OBS_PASSES:
        mode, metric = OBS_PASSES[workload]
        layers[metric] = 1.0 - seconds["timed"] / seconds[mode]
        if mode == "recorded":
            extra = runs[mode][0]
            layers["obs.recorder.events_per_request"] = (
                extra["stats"]["obs.recorder.events"] / extra["attempted"])
            del layers["obs.recorder.events"]  # the traced pass records none
    gap = abs(layers["trace.inside_s"] - traced["inside_s"]) / max(
        traced["inside_s"], 1e-12)
    checks = {
        "trace_overhead_ok":
            layers["trace.overhead_share"] <= MAX_TRACE_OVERHEAD,
        "self_time_gap": gap,
        "self_times_add_up": gap <= MAX_SELF_TIME_GAP,
    }
    return {
        "per_layer": layers,
        "attempted": traced["attempted"], "failed": traced["failed"],
        "traced_calls": traced["calls"],
        "output_digest": traced["output_digest"],
        "versions": traced["versions"],
        "harness_checks": checks,
        "correct": not notes, "notes": notes,
    }


def contract_line(spec: dict, result: dict, traced: bool) -> str:
    """The object the driver reads: every metric BENCHMARK.json names for
    this kind of run (a layer that is idle on the workload reads 0)."""
    if traced:
        source, wanted = result["per_layer"], spec["per_layer"]
    else:
        source, wanted = result["end_to_end"], spec["end_to_end"]
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--pass", dest="passes", choices=("timed", "traced"))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--spans-dir")
    args = ap.parse_args(argv)
    scale = args.seconds / spec["run_seconds"]
    passes = PASSES
    if args.quick:  # a smoke of the harness, not a measurement
        scale *= QUICK_SCALE
        passes = 1

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            ap.error("--trace needs exactly one --workload")
        if args.trace:
            result = measure_traced(args.workload[0], args.seed, scale,
                                    units, passes, args.spans_dir)
        else:
            result = measure_timed(args.workload[0], args.seed, scale,
                                   passes)
        for note in result["notes"]:
            print(note, file=sys.stderr)
        print(contract_line(spec, result, bool(args.trace)))
        return 0

    doc = {"schema": SCHEMA, "seed": args.seed, "quick": args.quick,
           "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in args.workload or names:
        entry: dict = {}
        if args.passes != "traced":
            timed = measure_timed(name, args.seed, scale, passes)
            doc["fingerprint"] = fingerprint(timed.pop("versions"))
            values = timed.pop("values")
            timed["end_to_end"] = {
                k: {"value": v, "unit": units[k],
                    "values": values.get(k, [v])}
                for k, v in timed["end_to_end"].items()}
            entry.update(timed)
        if args.passes != "timed":
            traced = measure_traced(name, args.seed, scale, units, passes,
                                    args.spans_dir)
            doc["fingerprint"] = fingerprint(traced.pop("versions"))
            entry["per_layer"] = {
                k: {"value": v, "unit": units.get(k, "")}
                for k, v in sorted(traced["per_layer"].items())}
            entry["harness_checks"] = traced["harness_checks"]
            entry["traced_calls"] = traced["traced_calls"]
            entry["traced_output_digest"] = traced["output_digest"]
            entry["correct"] = entry.get("correct", True) and traced["correct"]
            entry["notes"] = entry.get("notes", []) + traced["notes"]
            checks = traced["harness_checks"]
            ok &= (checks["self_times_add_up"]
                   and checks["trace_overhead_ok"])
        ok &= entry["correct"]
        doc["workloads"][name] = entry
    text = json.dumps(doc, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
