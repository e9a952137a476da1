"""Compare two ``e2e`` result documents under the bounds of BENCHMARK.json.

``python benchmarks/e2e/compare.py A.json B.json`` — A is the baseline,
B the candidate.  One row per (workload, end-to-end metric) with both
values, the ratio B/A and a verdict:

``ok``          B is not worse than A by more than the metric's bound.
``worse``       it is, and in both files the measurement's own readings
                (``values``: the metric with any one pass left out; per
                pass for set-up time and memory) agree within the bound,
                so the difference is resolved.
``unresolved``  the readings of either file spread beyond the bound: the
                pair cannot be called changed or unchanged (unless every
                reading of B is better than every reading of A, which is
                ``ok``).

Exact counts (``count``/``flop``/``B`` per-layer metrics, attempted and
failed items, output digests) must be equal.  Exit status: 0 all ok,
1 any ``worse`` or count mismatch, 2 the files are not comparable (quick
run, or seed / op counts / machine fingerprint differ).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXACT_UNITS = ("count", "flop", "B")


def spread(values) -> float:
    """Range of a measurement's own readings as a share of their median
    (0 for a single reading)."""
    med = statistics.median(values)
    return (max(values) - min(values)) / abs(med) if med else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """``(verdict, worse_by, spread)`` for one metric of one workload."""
    va, vb = a["value"], b["value"]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (vb - va) / abs(va) if va else 0.0
    runs_a, runs_b = a.get("values", [va]), b.get("values", [vb])
    noise = max(spread(runs_a), spread(runs_b))
    if better == "lower":
        b_always_better = max(runs_b) < min(runs_a)
    else:
        b_always_better = min(runs_b) > max(runs_a)
    if worse_by > bound:
        return ("unresolved" if noise > bound else "worse"), worse_by, noise
    if noise > bound and not b_always_better:
        return "unresolved", worse_by, noise
    return "ok", worse_by, noise


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons the two documents must not be compared (empty = fine)."""
    why = []
    for label, doc in (("A", a), ("B", b)):
        if doc.get("quick"):
            why.append(f"{label} is a --quick run")
    for key in ("schema", "seed", "seconds", "fingerprint"):
        if a.get(key) != b.get(key):
            why.append(f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}")
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            why.append(f"workload {name} is in only one file")
            continue
        for key in ("timed_calls", "traced_calls"):
            if wa.get(key) != wb.get(key):
                why.append(f"{name}: {key} differs: "
                           f"{wa.get(key)} vs {wb.get(key)}")
    return why


def exact_mismatches(name: str, wa: dict, wb: dict) -> list[str]:
    out = []
    for key in ("attempted", "failed", "samples", "output_digest",
                "traced_output_digest"):
        if wa.get(key) != wb.get(key):
            out.append(f"{name}: {key}: {wa.get(key)} vs {wb.get(key)}")
    la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
    for metric in sorted(set(la) | set(lb)):
        ma, mb = la.get(metric), lb.get(metric)
        unit = (ma or mb)["unit"]
        if unit in EXACT_UNITS and (
                ma is None or mb is None or ma["value"] != mb["value"]):
            out.append(f"{name}: {metric}: {ma and ma['value']} vs "
                       f"{mb and mb['value']}")
    return out


def compare(a: dict, b: dict, spec: dict) -> tuple[list, list]:
    """Rows ``(workload, metric, a, b, ratio, worse_by, spread, bound,
    verdict)`` and the list of exact-count mismatches."""
    rows, mismatches = [], []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec["end_to_end"]:
            ma = wa.get("end_to_end", {}).get(m["name"])
            mb = wb.get("end_to_end", {}).get(m["name"])
            if ma is None or mb is None:
                continue
            v, worse_by, noise = verdict(ma, mb, m["better"], m["bound"])
            ratio = mb["value"] / ma["value"] if ma["value"] else 0.0
            rows.append((name, m["name"], ma["value"], mb["value"], ratio,
                         worse_by, noise, m["bound"], v))
        mismatches += exact_mismatches(name, wa, wb)
    return rows, mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    why = comparable(a, b)
    if why:
        print("not comparable:\n  " + "\n  ".join(why))
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows, mismatches = compare(a, b, spec)
    print(f"{'workload':<16}{'metric':<18}{'A':>12}{'B':>12}{'B/A':>8}"
          f"{'worse by':>10}{'spread':>8}{'bound':>7}  verdict")
    for name, metric, va, vb, ratio, worse_by, noise, bound, v in rows:
        print(f"{name:<16}{metric:<18}{va:>12.5g}{vb:>12.5g}{ratio:>8.3f}"
              f"{worse_by:>+10.3f}{noise:>8.3f}{bound:>7.3f}  {v}")
    for line in mismatches:
        print("exact count differs — " + line)
    bad = any(r[-1] == "worse" for r in rows) or bool(mismatches)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
