"""Self-tests of the ``e2e`` harness (not part of tier-1).

Run with ``python -m pytest benchmarks/e2e -q``.  They exercise the
harness arithmetic on synthetic inputs and the shim installer against the
real package; no workload is timed here.
"""

from __future__ import annotations

import json

import compare
import numpy as np
import pytest
import run
import spans
import worker
import workloads

worker._add_src_to_path()


# -- percentiles and the sample-count rule -----------------------------------

def test_percentile_interpolates():
    xs = list(range(1, 101))
    assert worker.percentile(xs, 50) == pytest.approx(50.5)
    assert worker.percentile(xs, 90) == pytest.approx(90.1)
    assert worker.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        worker.percentile([], 50)


def test_p90_needs_100_samples_for_ten_beyond():
    assert worker.samples_beyond(100, 90) == 10
    assert worker.samples_beyond(99, 90) == 9
    assert worker.samples_beyond(5120, 90) == 512


# -- self-time arithmetic ------------------------------------------------------

def test_self_times_on_nested_tree():
    rows = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("a", 20.0, 21.0, -1, 1),
    ]
    got = spans.self_times(rows)
    assert got["a"] == {"self_s": 4.0, "incl_s": 11.0, "calls": 2}
    assert got["b"] == {"self_s": 6.0, "incl_s": 7.0, "calls": 2}
    assert got["c"] == {"self_s": 1.0, "incl_s": 1.0, "calls": 1}
    total = sum(rec["self_s"] for rec in got.values())
    assert total == pytest.approx(spans.root_seconds(rows)) == 11.0


def test_shim_records_parent_op_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def count(counts, args, result):
        counts["inner.sum"] = counts.get("inner.sum", 0) + result

    inner = tracer.shim("core.inner", lambda v: v + 1, count)
    outer = tracer.shim("core.outer", lambda v: inner(v) + inner(v))
    tracer.op = 7
    assert outer(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["core.outer", "core.inner", "core.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {7}
    assert tracer.counts == {"inner.sum": 4}
    mark = tracer.mark()
    outer(1)
    tracer.rewind(mark)
    assert len(tracer.spans) == 3 and tracer.counts == {"inner.sum": 4}
    reduced = spans.reduce_spans(tracer.spans, tracer.counts)
    assert reduced["core.outer.calls"] == 1 and reduced["core.inner.calls"] == 2
    assert reduced["core.share"] == 1.0 and reduced["serve.share"] == 0.0
    assert reduced["trace.inside_s"] == pytest.approx(
        spans.root_seconds(tracer.spans))


def test_failed_call_still_closes_its_span():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.shim("x.boom", boom)()
    assert tracer.spans[0][0] == "x.boom" and tracer._cur == [-1]


def test_span_cost_is_a_fraction_of_a_millisecond():
    assert 0.0 <= spans.span_cost() < 1e-4


# -- shims against the real package ----------------------------------------------

def test_shims_install_at_import_sites_and_restore_identity():
    import repro.amr.loop as amr_loop
    import repro.fleet.service as fleet_service
    import repro.serve.batcher as batcher
    import repro.serve.service as service

    before = {path: vars(spans.resolve(path)[0])[spans.resolve(path)[1]]
              for _, path, _ in spans.SHIMS}
    sites = (service, fleet_service)
    with spans.Tracer():
        for _, path, _ in spans.SHIMS:
            owner, attr = spans.resolve(path)
            now = vars(owner)[attr]
            assert now is not before[path], path
            target = now.fget if isinstance(now, property) else now
            assert hasattr(target, "__wrapped__"), path
        # ``from .batcher import build_entry`` copies: rebound there too
        for site in sites:
            assert site.build_entry is batcher.build_entry
        assert amr_loop._MARKERS["dorfler"] is amr_loop.dorfler_mark
        assert hasattr(amr_loop._MARKERS["dorfler"], "__wrapped__")
    for path, original in before.items():
        owner, attr = spans.resolve(path)
        assert vars(owner)[attr] is original, path
    for site in sites:
        assert site.build_entry is before["repro.serve.batcher:build_entry"]
    assert not hasattr(amr_loop._MARKERS["dorfler"], "__wrapped__")


class _FakeWorkload:
    """Four ops: a right answer, a wrong one, a raise, a right answer."""

    def n_items(self, op):
        return 1

    def call(self, op):
        from repro.kernels import api

        assert not hasattr(api.dot, "__wrapped__")  # untraced: no shims
        if op == "raise":
            raise RuntimeError("injected")
        return (41 if op == "wrong" else 42), None, None

    def check(self, op, out):
        return int(out != 42)


def test_failures_count_wrong_answers_and_exceptions():
    res = worker.run_ops(_FakeWorkload(), ["ok", "wrong", "raise", "ok"])
    assert (res["attempted"], res["failed"], res["raised"]) == (4, 2, 1)
    assert len(res["samples"]) == 3
    assert "injected" in res["errors"][0]
    summary = worker.summarize([res])
    assert summary["ok_share"] == 0.5
    assert (summary["attempted"], summary["failed"]) == (4, 2)
    assert summary["throughput_per_s"] == pytest.approx(
        2 / sum(res["op_seconds"]))


def test_every_call_counts_at_its_fastest_repetition():
    def one_pass(seconds):
        return {"samples": seconds, "attempted": 4, "failed": 0,
                "op_items": [1] * 4, "op_seconds": seconds}

    calm = [1.0, 2.0, 1.0, 4.0]
    passes = [one_pass([1.0, 3.0, 1.0, 4.0]),   # second call stalled
              one_pass([1.5, 2.0, 1.0, 6.0]),   # first and last stalled
              one_pass([1.0, 2.0, 1.5, 4.0])]   # third stalled
    assert worker.fastest(p["op_seconds"] for p in passes) == calm
    summary = worker.summarize(passes)
    assert summary["throughput_per_s"] == pytest.approx(4 / 8.0)
    assert summary["latency_p50_s"] == pytest.approx(1.5)
    assert summary["latency_p90_s"] == pytest.approx(3.4)
    assert (summary["attempted"], summary["samples"]) == (12, 4)
    assert summary["ok_share"] == 1.0


def test_checks_are_outside_the_traced_pass():
    tracer = spans.Tracer()

    class Wl(_FakeWorkload):
        def call(self, op):
            return 42, None, None

    wl = Wl()
    wl.check = tracer.shim("x.check", wl.check)
    worker.run_ops(wl, ["ok", "ok"], tracer)
    assert tracer.spans == []


# -- generators -----------------------------------------------------------------------

def test_generators_are_deterministic_and_seeded():
    digest = workloads.request_stream_digest
    cold = digest(workloads.cold_requests(0, 40))
    assert cold == digest(workloads.cold_requests(0, 40))
    assert cold != digest(workloads.cold_requests(1, 40))
    hot = digest(workloads.hot_requests(0, 64))
    assert hot == digest(workloads.hot_requests(0, 64))
    assert hot != digest(workloads.hot_requests(1, 64))
    arr = workloads.fleet_arrivals(0, 200)
    again = workloads.fleet_arrivals(0, 200)
    assert [(a.tick, a.request.digest) for a in arr] == [
        (a.tick, a.request.digest) for a in again]
    assert digest(a.request for a in arr) != digest(
        a.request for a in workloads.fleet_arrivals(1, 200))
    ticks = [a.tick for a in arr]
    assert ticks == sorted(ticks)


def test_zipf_counts_do_not_depend_on_the_seed():
    a = workloads._zipf_ranks(np.random.default_rng(0), 8, 1000)
    b = workloads._zipf_ranks(np.random.default_rng(1), 8, 1000)
    assert len(a) == 1000 and a.tolist() != b.tolist()
    counts = np.bincount(a).tolist()
    assert counts == np.bincount(b).tolist()
    assert counts == sorted(counts, reverse=True) and counts[0] > 3 * counts[7]


def test_generated_geometry_is_always_valid():
    reqs = workloads.cold_requests(5, 60)
    assert len({r.mesh_digest for r in reqs}) == 60  # all never seen before
    kinds = [r.pde for r in reqs]
    assert [kinds.count(k) for k, _ in workloads.COLD_MIX] == [30, 12, 6, 12]
    for seed in range(4):
        for tmpl in (workloads.fleet_catalog(seed)
                     + workloads.hot_catalog(seed)):
            geo = tmpl["geometry"]
            if geo["shape"] == "sphere":
                r = geo["radius"]
                assert r > 0
                assert all(r < c < 1 - r for c in geo["center"])
    for req in reqs:
        req.validate()


# -- compare.py -------------------------------------------------------------------------

def _doc(thr, p50=(1.0,), count=7, **top):
    def metric(values, unit):
        vals = list(values)
        return {"value": sorted(vals)[len(vals) // 2], "unit": unit,
                "values": vals}

    doc = {"schema": run.SCHEMA, "seed": 0, "seconds": 15, "quick": False,
           "fingerprint": {"cpu_model": "x", "nproc": 2},
           "workloads": {"cold_solve": {
               "timed_calls": 112, "traced_calls": 56, "attempted": 336,
               "failed": 0, "samples": 112, "output_digest": "d",
               "end_to_end": {
                   "throughput_per_s": metric(thr, "items/s"),
                   "latency_p50_s": metric(p50, "s")},
               "per_layer": {
                   "solvers.cg.iterations": {"value": count, "unit": "count"},
                   "solvers.cg.self_s": {"value": 1.0, "unit": "s"}}}}}
    doc.update(top)
    return doc


SPEC = {"end_to_end": [
    {"name": "throughput_per_s", "unit": "items/s", "better": "higher",
     "bound": 0.1},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def _verdicts(a, b):
    rows, mismatches = compare.compare(a, b, SPEC)
    return {r[1]: r[-1] for r in rows}, mismatches


def test_compare_verdicts():
    base = _doc([100, 101, 99])
    same, _ = _verdicts(base, _doc([97, 98, 96]))
    assert same == {"throughput_per_s": "ok", "latency_p50_s": "ok"}
    slower, _ = _verdicts(base, _doc([80, 81, 79]))
    assert slower["throughput_per_s"] == "worse"
    noisy, _ = _verdicts(base, _doc([60, 80, 100]))
    assert noisy["throughput_per_s"] == "unresolved"
    # spread beyond the bound, but every run of B beats every run of A
    faster, _ = _verdicts(base, _doc([150, 200, 250]))
    assert faster["throughput_per_s"] == "ok"
    lat, _ = _verdicts(base, _doc([100, 101, 99], p50=[1.2, 1.21, 1.19]))
    assert lat["latency_p50_s"] == "worse"


def test_compare_checks_exact_counts_and_refuses_mismatched_files(tmp_path):
    base = _doc([100, 101, 99])
    _, mismatches = _verdicts(base, _doc([100, 101, 99], count=8))
    assert any("solvers.cg.iterations" in m for m in mismatches)
    _, clean = _verdicts(base, _doc([100, 101, 99]))
    assert clean == []
    assert compare.comparable(base, base) == []
    assert compare.comparable(base, _doc([100], quick=True))
    assert compare.comparable(base, _doc([100], seed=1))
    other = _doc([100])
    other["fingerprint"]["nproc"] = 8
    assert compare.comparable(base, other)
    fewer = _doc([100])
    fewer["workloads"]["cold_solve"]["timed_calls"] = 6
    assert compare.comparable(base, fewer)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(base))
    pb.write_text(json.dumps(_doc([50, 51, 49])))  # beyond any bound
    assert compare.main([str(pa), str(pb)]) == 1
    assert compare.main([str(pa), str(pa)]) == 0
    pb.write_text(json.dumps(_doc([100], quick=True)))
    assert compare.main([str(pa), str(pb)]) == 2


def test_spread_rule():
    assert compare.spread([5.0]) == 0.0
    assert compare.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    assert compare.spread([1, 2, 3, 4, 5, 6, 7, 8]) == pytest.approx(
        7 / 4.5)


# -- BENCHMARK.json -----------------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = run.load_spec()
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    assert [m["name"] for m in spec["end_to_end"]].count("setup_s") == 1
    span_names = {name for name, _, _ in spans.SHIMS} | {spans.LU_SOLVE_SPAN}
    for m in spec["per_layer"]:
        name = m["name"]
        for suffix in (".self_s", ".calls"):
            if name.endswith(suffix):
                assert name[:-len(suffix)] in span_names, name
        if name.endswith(".share") and name.count(".") == 1:
            assert name.split(".")[0] in spans.LAYERS
    result = {"correct": True, "attempted": 1, "failed": 0,
              "per_layer": {"core.share": 0.5}, "end_to_end": {}}
    line = json.loads(run.contract_line(spec, result, traced=True))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert line["metrics"]["core.share"] == {"value": 0.5, "unit": "ratio"}
    assert line["metrics"]["fleet.share"]["value"] == 0.0
