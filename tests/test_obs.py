"""Tests for repro.obs: spans, counters, artifacts, diffs, determinism."""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.core.domain import Domain
from repro.core.matvec import MapBasedMatVec
from repro.core.mesh import build_mesh
from repro.geometry.primitives import SphereCarve
from repro.obs.regress import diff_artifacts, flatten_spans
from repro.obs.report import (
    ARTIFACT_SCHEMA,
    BENCH_SCHEMA,
    collect,
    load_artifact,
    render_report,
    to_chrome_trace,
    validate_artifact,
    write_artifact,
)
from repro.obs.trace import _NULL
from repro.parallel.simmpi import SimComm, _nbytes

from .oracles.collectives import allgather


def canonical_spans(doc: dict) -> list[dict]:
    """Timing-free canonical form of an artifact's span forest: names,
    structure, counts and counters only — the fields that must be
    bit-identical across repeated runs of a deterministic pipeline."""

    def strip(s: dict) -> dict:
        out = {"name": s["name"], "count": s.get("count", 0)}
        if s.get("attrs"):
            out["attrs"] = s["attrs"]
        if s.get("counters"):
            out["counters"] = s["counters"]
        if s.get("children"):
            out["children"] = [strip(c) for c in s["children"]]
        return out

    return [strip(s) for s in doc["spans"]]


def canonical_metrics(doc: dict) -> dict:
    """Timing-free canonical form of an artifact's flat metrics dump:
    wall-clock counters (base name ending in ``.seconds``, e.g. the
    kernel layer's ``kernels.seconds{...}``) are dropped."""
    return {
        grp: {k: v for k, v in vals.items()
              if not k.split("{", 1)[0].endswith(".seconds")}
        if isinstance(vals, dict) else vals
        for grp, vals in doc["metrics"].items()
    }


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with a disabled, empty registry."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def small_mesh():
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    return build_mesh(dom, 2, 4, p=1)


# -- trace ---------------------------------------------------------------


def test_span_nesting_builds_tree():
    obs.enable()
    with obs.span("outer", kind="demo") as sp:
        sp.add("widgets", 2)
        with obs.span("inner"):
            pass
        with obs.span("inner2"):
            pass
    roots = obs.TRACER.roots
    assert [r.name for r in roots] == ["outer"]
    assert roots[0].attrs == {"kind": "demo"}
    assert roots[0].counters == {"widgets": 2}
    assert [c.name for c in roots[0].children] == ["inner", "inner2"]
    assert roots[0].duration >= sum(c.duration for c in roots[0].children)


def test_merge_spans_accumulate():
    obs.enable()
    with obs.span("parent"):
        for _ in range(5):
            with obs.span("hot", merge=True) as sp:
                sp.add("items", 3)
    (parent,) = obs.TRACER.roots
    (hot,) = parent.children  # five invocations folded into one child
    assert hot.count == 5
    assert hot.counters["items"] == 15


def test_record_attaches_known_duration():
    obs.enable()
    with obs.span("model"):
        sp = obs.record("phase", 0.25, items=4)
        obs.record("phase", 0.5)
    assert sp.duration == pytest.approx(0.75)
    assert sp.count == 2
    assert sp.counters == {"items": 4}


def test_disabled_mode_is_noop():
    assert not obs.is_enabled()
    assert obs.span("anything") is _NULL
    with obs.span("anything") as sp:
        sp.add("x")
        sp.set("y", 1)
    assert obs.TRACER.roots == []
    assert obs.record("phase", 1.0) is None
    obs.add("counter.x", 5)
    obs.set_gauge("gauge.x", 5)
    snap = obs.snapshot()
    assert snap == {"counters": {}, "gauges": {}}


def test_disabled_span_overhead_under_5pct(small_mesh):
    """Disabled-path instrumentation cost stays below 5% of the
    ablation bench's small case (one map-based MATVEC)."""
    mv = MapBasedMatVec(small_mesh)
    u = np.linspace(0, 1, small_mesh.n_nodes)
    mv(u)  # warm caches
    t0 = time.perf_counter()
    reps = 20
    for _ in range(reps):
        mv(u)
    t_matvec = (time.perf_counter() - t0) / reps

    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        with obs.span("x", merge=True) as sp:
            sp.add("a", 1)
            sp.add("b", 2)
    per_call = (time.perf_counter() - t0) / n
    # one span + two counter adds is exactly what mv() does per call
    assert per_call < 0.05 * t_matvec, (
        f"disabled obs costs {per_call * 1e6:.2f}us vs "
        f"matvec {t_matvec * 1e6:.2f}us"
    )


# -- counters ------------------------------------------------------------


def test_counters_and_gauges_with_labels():
    obs.enable()
    obs.add("comm.bytes_sent", 100, rank=0)
    obs.add("comm.bytes_sent", 50, rank=0)
    obs.add("comm.bytes_sent", 7, rank=1)
    obs.set_gauge("mesh.n_elem", 800)
    obs.set_gauge("mesh.n_elem", 900)
    assert obs.get_value("comm.bytes_sent", rank=0) == 150
    assert obs.get_value("comm.bytes_sent", rank=1) == 7
    assert obs.get_value("mesh.n_elem") == 900
    assert obs.get_value("never.published") is None
    snap = obs.snapshot()
    assert snap["counters"]['comm.bytes_sent{rank="0"}'] == 150
    assert snap["gauges"]["mesh.n_elem"] == 900


def test_simmpi_publishes_matching_obs_counters():
    obs.enable()
    comm = SimComm(3)
    msg = {(0, 1): np.zeros(4), (1, 2): np.zeros(2), (2, 2): np.zeros(8)}
    comm.exchange(msg)
    comm.allreduce([np.zeros(2)] * 3)
    allgather(comm, [np.zeros(1), np.zeros(2), np.zeros(3)])
    for r in range(3):
        assert obs.get_value("comm.bytes_sent", rank=r) == int(
            comm.counters.bytes_sent[r]
        )
        assert obs.get_value("comm.bytes_recv", rank=r) == int(
            comm.counters.bytes_recv[r]
        )
        assert obs.get_value("comm.messages_sent", rank=r) == int(
            comm.counters.messages_sent[r]
        )
    assert obs.get_value("comm.collectives") == comm.counters.collectives == 3


# -- _nbytes satellite ---------------------------------------------------


def test_nbytes_all_payload_types():
    assert _nbytes(np.zeros(3)) == 24
    assert _nbytes(np.zeros((2, 2), np.float32)) == 16
    assert _nbytes(b"abcd") == 4
    assert _nbytes(bytearray(5)) == 5
    assert _nbytes(memoryview(b"abc")) == 3
    assert _nbytes(None) == 0
    assert _nbytes([np.zeros(2), np.zeros(3)]) == 40
    assert _nbytes((b"ab", None)) == 2
    # dicts count keys and values, recursively
    assert _nbytes({0: np.zeros(2)}) == _nbytes(0) + 16
    assert _nbytes({"k": {"n": b"xy"}}) == 2 * _nbytes("k") + 2
    assert _nbytes(np.float64(1.0)) == 8
    assert _nbytes(3) == np.asarray(3).nbytes


def test_exchange_accepts_dict_payloads():
    comm = SimComm(2)
    comm.exchange({(0, 1): {"ids": np.zeros(3, np.int64)}})
    assert comm.counters.bytes_sent[0] == _nbytes("ids") + 24


# -- report / artifacts --------------------------------------------------


def _traced_run(small_mesh, ranks=4):
    from repro.parallel import (
        SimComm,
        analyze_partition,
        distributed_matvec,
        partition_mesh,
    )

    splits = partition_mesh(small_mesh, ranks, load_tol=0.1)
    layout = analyze_partition(small_mesh, splits)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(small_mesh.n_nodes)
    return distributed_matvec(small_mesh, layout, u, SimComm(ranks))


def test_artifact_roundtrip_and_validation(tmp_path, small_mesh):
    obs.enable()
    _traced_run(small_mesh)
    path = tmp_path / "run.json"
    write_artifact(path, "unit-run", meta={"note": "test"})
    doc = load_artifact(path)
    assert validate_artifact(doc) == []
    assert doc["schema"] == "repro.obs/run.v1"
    assert doc["name"] == "unit-run"
    assert doc["meta"] == {"note": "test"}
    names = {s["name"] for s in doc["spans"]}
    assert "matvec.rank" in names and "partition.analyze" in names
    assert any("comm.bytes_sent" in k for k in doc["metrics"]["counters"])
    # optional: the real jsonschema validator agrees with ours
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, ARTIFACT_SCHEMA)


def test_validate_artifact_rejects_garbage():
    assert validate_artifact([]) != []
    assert validate_artifact({"schema": "wrong/tag"}) != []
    bad = collect("x")
    bad["spans"] = [{"name": 3, "count": "nope"}]
    assert len(validate_artifact(bad)) >= 2


def test_load_artifact_raises_on_invalid(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(ValueError):
        load_artifact(p)


def test_render_report_and_chrome_trace(small_mesh):
    obs.enable()
    _traced_run(small_mesh, ranks=2)
    doc = collect("render-test")
    text = render_report(doc)
    assert "render-test" in text
    assert "matvec.rank" in text and "x2" in text  # sibling aggregation
    chrome = to_chrome_trace(doc)
    events = chrome["traceEvents"]
    assert all(e["ph"] == "X" for e in events)
    # per-rank spans land on their own chrome pid lanes
    pids = {e["pid"] for e in events if e["name"] == "matvec.top_down"}
    assert pids == {0, 1}


def test_two_runs_are_deterministic(small_mesh):
    """Identical distributed runs → identical counters and span trees
    (timing excluded) — the reproducibility contract of the artifact."""
    docs = []
    for _ in range(2):
        obs.reset()
        obs.enable()
        _traced_run(small_mesh)
        docs.append(collect("det"))
        obs.disable()
    a, b = docs
    # wall-clock counters (kernels.seconds) are timing, not payload
    assert canonical_metrics(a) == canonical_metrics(b)
    assert canonical_spans(a) == canonical_spans(b)
    # and the canonical form really dropped the clock fields
    flat = json.dumps(canonical_spans(a))
    assert "t_start" not in flat and "duration" not in flat


# -- regress -------------------------------------------------------------


def test_diff_identical_runs_is_clean(small_mesh):
    obs.enable()
    _traced_run(small_mesh, ranks=2)
    doc = collect("base")
    deltas = diff_artifacts(doc, doc, tol=0.1)
    assert deltas and all(d.status == "ok" for d in deltas)


def test_diff_flags_regressions():
    base = {
        "spans": [
            {"name": "a", "count": 1, "duration": 1.0,
             "counters": {"items": 10}},
            {"name": "gone", "count": 1, "duration": 0.5},
        ]
    }
    new = {
        "spans": [
            {"name": "a", "count": 1, "duration": 2.0,
             "counters": {"items": 11}},
            {"name": "fresh", "count": 1, "duration": 0.5},
        ]
    }
    by_path = {d.path: d for d in diff_artifacts(base, new, tol=0.25)}
    assert by_path["a"].status == "slower"
    assert by_path["a"].counter_deltas["items"] == (10, 11)
    assert by_path["gone"].status == "removed"
    assert by_path["fresh"].status == "added"
    improved = {d.path: d for d in diff_artifacts(new, base, tol=0.25)}
    assert improved["a"].status == "faster"


def test_flatten_spans_paths():
    doc = {
        "spans": [
            {"name": "a", "count": 1, "duration": 1.0,
             "children": [{"name": "b", "count": 2, "duration": 0.5}]}
        ]
    }
    flat = flatten_spans(doc)
    assert set(flat) == {"a", "a/b"}
    assert flat["a/b"]["count"] == 2


# -- ResultTable satellite ----------------------------------------------


def test_result_table_creates_nested_results_dir(tmp_path):
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
    try:
        from _util import ResultTable
    finally:
        sys.path.pop(0)

    deep = tmp_path / "does" / "not" / "exist"
    t = ResultTable("unit", "Unit Table", results_dir=deep)
    t.row("row one")
    t.record(x=1, y=2.5)
    out = t.save()
    assert out == deep / "unit.txt"
    assert "row one" in out.read_text()
    doc = json.loads((deep / "unit.json").read_text())
    assert validate_artifact(doc, BENCH_SCHEMA) == []
    assert doc["records"] == [{"x": 1, "y": 2.5}]
    assert doc["trace"]["enabled"] is False


# -- histograms ----------------------------------------------------------


def test_histogram_summary_and_quantiles():
    from repro.obs import Histogram

    h = Histogram()
    for v in [1.0, 2.0, 3.0, 100.0]:
        h.observe(v)
    s = h.summary()
    assert s["count"] == 4 and s["sum"] == 106.0
    assert s["min"] == 1.0 and s["max"] == 100.0
    # quantiles are deterministic bucket upper bounds
    assert h.quantile(0.5) >= 2.0
    assert h.quantile(0.99) >= 100.0 * 0.99 or h.quantile(0.99) >= s["p50"]
    assert s["p50"] <= s["p95"] <= s["p99"]


def test_histogram_identical_streams_identical_summaries():
    from repro.obs import Histogram

    rng = np.random.default_rng(0)
    vals = rng.lognormal(0.0, 2.0, 500)
    h1, h2 = Histogram(), Histogram()
    for v in vals:
        h1.observe(float(v))
    for v in vals[::-1]:  # order must not matter
        h2.observe(float(v))
    s1, s2 = h1.summary(), h2.summary()
    # the running float sum is the one order-sensitive field
    assert s1.pop("sum") == pytest.approx(s2.pop("sum"), rel=1e-12)
    assert s1 == s2


def test_histogram_empty_and_extremes():
    from repro.obs import Histogram

    h = Histogram()
    s = h.summary()
    assert s == {"count": 0, "sum": 0.0}
    assert h.quantile(0.5) == 0.0
    h.observe(0.0)        # below the smallest bucket edge
    h.observe(1e30)       # beyond the largest edge → overflow bucket
    assert h.quantile(0.99) == 1e30  # overflow quantile reports max seen


def test_registry_histograms_in_snapshot_and_report():
    obs.enable()
    for v in (1.0, 2.0, 4.0, 1000.0):
        obs.observe("serve.latency_ticks", v)
    obs.observe("solve.residual", 1e-9, pde="poisson")
    h = obs.get_histogram("serve.latency_ticks")
    assert h is not None and h["count"] == 4
    snap = obs.snapshot()
    assert "histograms" in snap
    assert snap["histograms"]["serve.latency_ticks"]["count"] == 4
    assert 'solve.residual{pde="poisson"}' in snap["histograms"]
    doc = collect("hist-run")
    from repro.obs.report import ARTIFACT_SCHEMA, render_report, validate_artifact

    assert validate_artifact(doc, ARTIFACT_SCHEMA) == []
    text = render_report(doc)
    assert "histograms" in text and "serve.latency_ticks" in text
    assert "p95=" in text


def test_registry_histograms_gated_when_disabled():
    obs.observe("never.recorded", 1.0)
    assert obs.get_histogram("never.recorded") is None
    snap = obs.snapshot()
    assert "histograms" not in snap  # old artifacts stay byte-stable
