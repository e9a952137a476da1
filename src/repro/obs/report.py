"""Run artifacts: JSON export, text reports, Chrome-trace timelines.

A *run artifact* is the machine-readable record of one traced run:

.. code-block:: json

    {
      "schema": "repro.obs/run.v1",
      "name": "mvc-channel",
      "meta": {"argv": "..."},
      "spans": [ {"name": "build_mesh", "duration": ..,
                  "counters": {..}, "children": [..]} ],
      "metrics": {"counters": {"comm.bytes_sent{rank=\\"0\\"}": 512.0},
                  "gauges": {}}
    }

The span tree mirrors :class:`repro.obs.trace.Span`; ``metrics`` is the
flat Prometheus-style dump of the global counter registry.  Artifacts
are what ``python -m repro trace-report`` renders and what
:mod:`repro.obs.regress` diffs for perf-trajectory tracking.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import counters as _counters
from .trace import TRACER

__all__ = [
    "RUN_SCHEMA_ID",
    "BENCH_SCHEMA_ID",
    "ARTIFACT_SCHEMA",
    "BENCH_SCHEMA",
    "collect",
    "write_artifact",
    "load_artifact",
    "validate_artifact",
    "summary",
    "render_report",
    "to_chrome_trace",
]

RUN_SCHEMA_ID = "repro.obs/run.v1"
BENCH_SCHEMA_ID = "repro.obs/bench.v1"

_SPAN_SCHEMA = {
    "type": "object",
    "required": ["name", "count"],
    "properties": {
        "name": {"type": "string"},
        "attrs": {"type": "object"},
        "t_start": {"type": "number"},
        "duration": {"type": "number"},
        "count": {"type": "integer", "minimum": 0},
        "counters": {"type": "object", "additionalProperties": {"type": "number"}},
        "meta": {"type": "object"},
        "children": {"type": "array", "items": {"$ref": "#/$defs/span"}},
    },
}

#: JSON Schema of a run artifact (draft 2020-12 subset).
ARTIFACT_SCHEMA = {
    "$id": "https://repro.invalid/schemas/run.v1.json",
    "type": "object",
    "required": ["schema", "name", "spans", "metrics"],
    "properties": {
        "schema": {"const": RUN_SCHEMA_ID},
        "name": {"type": "string"},
        "meta": {"type": "object"},
        "spans": {"type": "array", "items": {"$ref": "#/$defs/span"}},
        "metrics": {
            "type": "object",
            "required": ["counters", "gauges"],
            "properties": {
                "counters": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "gauges": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "histograms": {
                    "type": "object",
                    "additionalProperties": {"type": "object"},
                },
            },
        },
    },
    "$defs": {"span": _SPAN_SCHEMA},
}

#: JSON Schema of a benchmark sidecar (``benchmarks/results/<name>.json``).
BENCH_SCHEMA = {
    "$id": "https://repro.invalid/schemas/bench.v1.json",
    "type": "object",
    "required": ["schema", "name", "title", "lines"],
    "properties": {
        "schema": {"const": BENCH_SCHEMA_ID},
        "name": {"type": "string"},
        "title": {"type": "string"},
        "lines": {"type": "array", "items": {"type": "string"}},
        "records": {"type": "array", "items": {"type": "object"}},
        "trace": {"type": "object"},
    },
    "$defs": {"span": _SPAN_SCHEMA},
}


def collect(name: str, meta: dict | None = None) -> dict:
    """Snapshot the global tracer + counter registry into an artifact."""
    return {
        "schema": RUN_SCHEMA_ID,
        "name": name,
        "meta": dict(meta) if meta else {},
        "spans": [root.to_dict() for root in TRACER.roots],
        "metrics": _counters.snapshot(),
    }


def write_artifact(path, name: str, meta: dict | None = None) -> Path:
    """Collect and write an artifact; returns the written path."""
    path = Path(path)
    doc = collect(name, meta)
    path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")
    return path


def load_artifact(path) -> dict:
    doc = json.loads(Path(path).read_text())
    errors = validate_artifact(doc)
    if errors:
        raise ValueError(f"{path}: not a valid run artifact: {errors[0]}")
    return doc


def validate_artifact(doc, schema: dict | None = None) -> list[str]:
    """Structural validation against :data:`ARTIFACT_SCHEMA` (or the
    bench schema).  Dependency-free subset of JSON Schema: checks the
    schema tag, required keys and container/leaf types; returns a list
    of error strings (empty = valid)."""
    schema = schema or ARTIFACT_SCHEMA
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["artifact must be a JSON object"]
    props = schema["properties"]
    for key in schema["required"]:
        if key not in doc:
            errors.append(f"missing required key {key!r}")
    tag = props["schema"].get("const")
    if tag is not None and doc.get("schema") != tag:
        errors.append(f"schema tag must be {tag!r}, got {doc.get('schema')!r}")
    if "spans" in doc:
        if not isinstance(doc["spans"], list):
            errors.append("spans must be an array")
        else:
            for s in doc["spans"]:
                errors.extend(_validate_span(s))
    if "metrics" in schema["required"]:
        metrics = doc.get("metrics")
        if not isinstance(metrics, dict):
            errors.append("metrics must be an object")
        else:
            for grp in ("counters", "gauges"):
                vals = metrics.get(grp)
                if not isinstance(vals, dict):
                    errors.append(f"metrics.{grp} must be an object")
                    continue
                for k, v in vals.items():
                    if not isinstance(v, (int, float)) or isinstance(v, bool):
                        errors.append(f"metrics.{grp}[{k!r}] must be a number")
    if "lines" in schema["required"]:
        lines = doc.get("lines")
        if not isinstance(lines, list) or not all(
            isinstance(x, str) for x in lines
        ):
            errors.append("lines must be an array of strings")
    return errors


def _validate_span(s, path: str = "spans") -> list[str]:
    errors: list[str] = []
    if not isinstance(s, dict):
        return [f"{path}: span must be an object"]
    if not isinstance(s.get("name"), str):
        errors.append(f"{path}: span name must be a string")
    if not isinstance(s.get("count"), int):
        errors.append(f"{path}.{s.get('name')}: count must be an integer")
    ctr = s.get("counters", {})
    if not isinstance(ctr, dict):
        errors.append(f"{path}.{s.get('name')}: counters must be an object")
    for key in ("t_start", "duration"):
        if key in s and not isinstance(s[key], (int, float)):
            errors.append(f"{path}.{s.get('name')}: {key} must be a number")
    for c in s.get("children", []):
        errors.extend(_validate_span(c, f"{path}.{s.get('name')}"))
    return errors


def summary() -> dict:
    """Compact trace attachment for benchmark sidecars: aggregated
    span totals by dotted path plus the flat metrics dump."""
    agg: dict[str, dict] = {}

    def walk(s, prefix: str) -> None:
        path = f"{prefix}/{s.name}" if prefix else s.name
        slot = agg.setdefault(
            path, {"duration": 0.0, "count": 0, "counters": {}}
        )
        slot["duration"] += s.duration
        slot["count"] += s.count
        for k, v in s.counters.items():
            slot["counters"][k] = slot["counters"].get(k, 0) + v
        for c in s.children:
            walk(c, path)

    for root in TRACER.roots:
        walk(root, "")
    return {
        "enabled": TRACER.enabled,
        "spans": {k: agg[k] for k in sorted(agg)},
        "metrics": _counters.snapshot(),
    }


def _fmt_counters(counters: dict) -> str:
    if not counters:
        return ""
    parts = []
    for k in sorted(counters):
        v = counters[k]
        parts.append(f"{k}={int(v) if float(v).is_integer() else f'{v:.4g}'}")
    return "  [" + ", ".join(parts) + "]"


def render_report(doc: dict) -> str:
    """Human-readable text rendering of a run artifact.

    Sibling spans with the same name (e.g. one ``matvec.rank`` span per
    virtual rank) are aggregated into one line with a ``xN`` tally so
    wide fan-outs stay readable; the JSON keeps the full tree.
    """
    lines = [f"run artifact: {doc.get('name')}  (schema {doc.get('schema')})"]
    meta = doc.get("meta") or {}
    for k in sorted(meta):
        lines.append(f"  meta.{k} = {meta[k]}")

    def walk(spans: list[dict], depth: int) -> None:
        groups: dict[str, dict] = {}
        order: list[str] = []
        for s in spans:
            g = groups.get(s["name"])
            if g is None:
                groups[s["name"]] = g = {
                    "duration": 0.0, "count": 0, "n": 0,
                    "counters": {}, "children": [],
                }
                order.append(s["name"])
            g["duration"] += s.get("duration", 0.0)
            g["count"] += s.get("count", 0)
            g["n"] += 1
            for k, v in (s.get("counters") or {}).items():
                g["counters"][k] = g["counters"].get(k, 0) + v
            g["children"].extend(s.get("children") or [])
        for name in order:
            g = groups[name]
            tally = f" x{g['count']}" if g["count"] > 1 else ""
            lines.append(
                f"{'  ' * (depth + 1)}{name:<{max(40 - 2 * depth, 8)}}"
                f"{g['duration'] * 1e3:>10.3f} ms{tally}"
                f"{_fmt_counters(g['counters'])}"
            )
            walk(g["children"], depth + 1)

    walk(doc.get("spans", []), 0)
    metrics = doc.get("metrics") or {}
    for grp in ("counters", "gauges"):
        vals = metrics.get(grp) or {}
        if vals:
            lines.append(f"  -- {grp} --")
            for k in sorted(vals):
                v = vals[k]
                lines.append(
                    f"  {k} = {int(v) if float(v).is_integer() else v}"
                )
    hists = metrics.get("histograms") or {}
    if hists:
        lines.append("  -- histograms --")
        for k in sorted(hists):
            h = hists[k]
            if not h.get("count"):
                lines.append(f"  {k}: empty")
                continue
            lines.append(
                f"  {k}: n={h['count']} sum={h['sum']:.6g} "
                f"min={h['min']:.6g} max={h['max']:.6g} "
                f"p50={h['p50']:.6g} p95={h['p95']:.6g} p99={h['p99']:.6g}"
            )
    return "\n".join(lines)


def to_chrome_trace(doc: dict) -> dict:
    """Chrome trace-format timeline (load via chrome://tracing or
    Perfetto).  Complete events keyed by virtual rank: a span's ``pid``
    is the ``rank`` attr of its nearest ancestor carrying one (0 when
    no rank is in scope); merged spans emit a single event spanning
    their accumulated duration."""
    events: list[dict] = []

    def walk(s: dict, rank: int) -> None:
        rank = int((s.get("attrs") or {}).get("rank", rank))
        events.append(
            {
                "name": s["name"],
                "ph": "X",
                "ts": float(s.get("t_start", 0.0)) * 1e6,
                "dur": float(s.get("duration", 0.0)) * 1e6,
                "pid": rank,
                "tid": 0,
                "args": dict(s.get("counters") or {}),
            }
        )
        for c in s.get("children") or []:
            walk(c, rank)

    for s in doc.get("spans", []):
        walk(s, 0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
