"""Tests for the artifact-style CLI (python -m repro ...)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    p = build_parser()
    args = p.parse_args(["mvc-channel", "5", "6", "1", "--ranks", "4"])
    assert args.base_level == 5 and args.boundary_level == 6
    assert args.order == 1 and args.ranks == 4
    args = p.parse_args(["signed-distance", "3", "4", "--shape", "sphere"])
    assert args.min_level == 3 and args.shape == "sphere"


def test_parser_rejects_bad_order():
    p = build_parser()
    with pytest.raises(SystemExit):
        p.parse_args(["mvc-channel", "5", "6", "3"])


def test_mvc_channel_runs(capsys, tmp_path):
    out = tmp_path / "log.txt"
    rc = main(["mvc-channel", "4", "5", "1", "--ranks", "4",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "distributed MATVEC == serial: True" in text
    assert "modelled MATVEC time" in text
    assert "mesh:" in text


def test_mvc_sphere_runs(capsys):
    rc = main(["mvc-sphere", "3", "4", "2", "--ranks", "2"])
    assert rc == 0
    cap = capsys.readouterr().out
    assert "MVCSphere" in cap
    assert "eta" in cap


def test_signed_distance_runs(capsys, tmp_path):
    out = tmp_path / "sd.txt"
    rc = main(["signed-distance", "3", "4", "--shape", "sphere",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    # error decreases over the two levels
    e3 = float(lines[-2].split()[-1])
    e4 = float(lines[-1].split()[-1])
    assert e4 < e3


# -- trace-diff ---------------------------------------------------------


def _span(name, duration, count=1, counters=None, children=None):
    return {"name": name, "duration": duration, "count": count,
            "counters": counters or {}, "children": children or []}


def _artifact(tmp_path, name, spans):
    import json

    doc = {"schema": "repro.obs/run.v1", "name": name, "spans": spans,
           "metrics": {"counters": {}, "gauges": {}}}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_trace_diff_json_doc_clean(capsys, tmp_path):
    import json

    spans = [_span("solve", 0.5, counters={"matvecs": 12})]
    base = _artifact(tmp_path, "base", spans)
    new = _artifact(tmp_path, "new", spans)
    out = tmp_path / "diff.json"
    rc = main(["trace-diff", str(base), str(new), "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.obs/trace_diff.v1"
    assert doc["flagged"] is False
    assert [d["status"] for d in doc["deltas"]] == ["ok"]
    assert "no regressions within tolerance" in capsys.readouterr().out


def test_trace_diff_added_removed_span_exits_nonzero(capsys, tmp_path):
    import json

    base = _artifact(tmp_path, "base",
                     [_span("assemble", 0.2), _span("solve", 0.5)])
    new = _artifact(tmp_path, "new",
                    [_span("solve", 0.5), _span("precondition", 0.1)])
    out = tmp_path / "diff.json"
    with pytest.raises(SystemExit) as exc:
        main(["trace-diff", str(base), str(new), "--json", str(out)])
    assert exc.value.code == 1
    cap = capsys.readouterr().out
    assert "assemble: removed" in cap
    assert "precondition: added" in cap
    doc = json.loads(out.read_text())
    assert doc["flagged"] is True
    status = {d["path"]: d["status"] for d in doc["deltas"]}
    assert status == {"assemble": "removed", "precondition": "added",
                      "solve": "ok"}


def test_trace_diff_counter_drift_exits_nonzero(capsys, tmp_path):
    base = _artifact(tmp_path, "base",
                     [_span("solve", 0.5, counters={"matvecs": 12})])
    new = _artifact(tmp_path, "new",
                    [_span("solve", 0.5, counters={"matvecs": 13})])
    with pytest.raises(SystemExit) as exc:
        main(["trace-diff", str(base), str(new)])
    assert exc.value.code == 1
    assert "counter matvecs drifted 12 -> 13" in capsys.readouterr().out


# -- flight recorder CLI ------------------------------------------------


def _serve_events(tmp_path, capsys):
    """serve-demo --events fixture: returns (events path, stdout)."""
    ev = tmp_path / "ev.json"
    rc = main(["serve-demo", "--requests", "8", "--events", str(ev)])
    assert rc == 0
    return ev, capsys.readouterr().out


def test_serve_demo_events_digest_line(capsys, tmp_path):
    from repro.obs import load_events

    ev, cap = _serve_events(tmp_path, capsys)
    log = load_events(ev)  # digest re-verified on load
    digest_line = [ln for ln in cap.splitlines()
                   if ln.startswith("event digest:")]
    assert digest_line == [f"event digest: {log.digest}"]
    assert f"events: {len(log)} written to {ev}" in cap


def test_request_trace_list_and_timeline(capsys, tmp_path):
    ev, _ = _serve_events(tmp_path, capsys)
    listing = tmp_path / "list.txt"
    rc = main(["request-trace", str(ev), "--list", "--out", str(listing)])
    assert rc == 0
    capsys.readouterr()
    rows = listing.read_text().strip().splitlines()
    assert len(rows) == 8
    rid = rows[0].split()[0]

    out = tmp_path / "tl.txt"
    rc = main(["request-trace", str(ev), rid[:12], "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    text = out.read_text()
    assert f"request {rid}" in text
    assert "stages: " in text and "(sum=" in text

    with pytest.raises(SystemExit, match="no request matching"):
        main(["request-trace", str(ev), "zzzz"])


def test_fleet_health_cli_outputs_and_strict(capsys, tmp_path):
    import json

    ev = tmp_path / "fleet_ev.json"
    rc = main(["fleet-demo", "--shards", "2", "--requests", "12",
               "--mean-gap", "40", "--burst-gap", "5",
               "--events", str(ev)])
    assert rc == 0
    capsys.readouterr()

    hjson = tmp_path / "health.json"
    chrome = tmp_path / "chrome.json"
    report = tmp_path / "health.txt"
    rc = main(["fleet-health", str(ev), "--json", str(hjson),
               "--chrome", str(chrome), "--out", str(report)])
    assert rc == 0
    capsys.readouterr()
    assert report.read_text().startswith("fleet health:")
    doc = json.loads(hjson.read_text())
    assert doc["schema"] == "repro.obs/health.v1"
    assert doc["requests"] == 12
    trace = json.loads(chrome.read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])

    # an unmeetable stage ceiling turns --strict into a gate
    with pytest.raises(SystemExit) as exc:
        main(["fleet-health", str(ev), "--stage-p95", "solve=1", "--strict"])
    assert exc.value.code == 1
    assert "VIOLATION stage_p95:solve" in capsys.readouterr().out

    with pytest.raises(SystemExit, match="STAGE=TICKS"):
        main(["fleet-health", str(ev), "--stage-p95", "solve"])


def test_fleet_demo_kill_wants_an_integer_tick():
    for bad in ("abc:shard0", "2000", ":shard0"):
        with pytest.raises(SystemExit, match="--kill wants TICK:SHARD_ID"):
            main(["fleet-demo", "--shards", "2", "--requests", "4",
                  "--kill", bad])


# -- ckpt-info ----------------------------------------------------------


def test_ckpt_info_prints_a_checkpoint(tmp_path):
    from repro import Domain
    from repro.core.mesh import build_uniform_mesh
    from repro.geometry import SphereCarve
    from repro.resilience.checkpoint import save_checkpoint

    mesh = build_uniform_mesh(Domain(SphereCarve([0.5, 0.5], 0.25)), 3)
    path = save_checkpoint(tmp_path / "a.ckpt.json", mesh, step=2,
                           vectors={"x": np.ones(4)}, scalars={"rz": 0.5})
    out = tmp_path / "info.txt"
    assert main(["ckpt-info", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    assert "step:        2" in text and "vector 'x': shape (4,)" in text


@pytest.mark.parametrize("text,reason", [
    ('{"schema": "x"}', "schema tag must be 'repro.resilience/ckpt.v1', "
                        "got 'x'"),
    ("[1, 2]", "a checkpoint is a JSON object, got list"),
])
def test_ckpt_info_names_a_foreign_or_corrupt_file(tmp_path, text, reason):
    path = tmp_path / "bad.ckpt.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["ckpt-info", str(path)])
    assert exc.value.code == f"ckpt-info: {path}: {reason}"
