"""Tier-1 smoke test: one real bench end-to-end, sidecar validated.

Runs ``bench_fig5_signed_distance`` (at reduced refinement so the suite
stays fast) through its actual test function with a stub ``benchmark``
fixture, then validates the JSON sidecar every bench now emits against
the ``repro.obs/bench.v1`` schema — both with the in-repo structural
validator and, when available, the real ``jsonschema`` package.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.obs.report import BENCH_SCHEMA, BENCH_SCHEMA_ID, validate_artifact

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


@pytest.fixture()
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import _util
    import bench_fig5_signed_distance as bench

    return _util, bench


class _StubBenchmark:
    """Minimal stand-in for the pytest-benchmark fixture."""

    def pedantic(self, fn, rounds=1, iterations=1, **kw):
        result = None
        for _ in range(rounds * iterations):
            result = fn()
        return result

    def __call__(self, fn, *args, **kw):
        return fn(*args, **kw)


def test_fig5_bench_end_to_end_with_valid_sidecar(tmp_path, monkeypatch,
                                                  bench_modules):
    _util, bench = bench_modules
    monkeypatch.setattr(_util, "RESULTS_DIR", tmp_path)
    # reduced levels: same pipeline, tier-1-friendly runtime; the
    # bench's own convergence assertions still hold at (4, 5)
    monkeypatch.setattr(
        bench, "run_signed_distance",
        functools.partial(bench.run_signed_distance, levels=(4, 5)),
    )

    bench.test_fig5_signed_distance(_StubBenchmark())

    txt = tmp_path / "fig5_signed_distance.txt"
    sidecar = tmp_path / "fig5_signed_distance.json"
    assert txt.exists(), "bench did not write its text table"
    assert sidecar.exists(), "bench did not write its JSON sidecar"

    doc = json.loads(sidecar.read_text())
    assert doc["schema"] == BENCH_SCHEMA_ID
    assert validate_artifact(doc, BENCH_SCHEMA) == []
    assert doc["name"] == "fig5_signed_distance"
    assert doc["lines"][0] == doc["title"]
    assert "spans" in doc["trace"] and "metrics" in doc["trace"]

    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, BENCH_SCHEMA)
