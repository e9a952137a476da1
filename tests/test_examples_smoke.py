"""Smoke tests: the fast example scripts run end-to-end as documented.

(The slow flow-solver examples — drag_cylinder, drag_sphere,
classroom_airflow — are exercised through their underlying modules in
the solver tests and through the benches; running them here would
dominate the suite's wall time.)
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_quickstart_runs():
    r = _run("quickstart.py")
    assert r.returncode == 0, r.stderr
    assert "Poisson solved" in r.stdout
    assert "max diff" in r.stdout


def test_moving_object_runs():
    r = _run("moving_object.py")
    assert r.returncode == 0, r.stderr
    assert "re-meshing" in r.stdout


def test_channel_scaling_runs():
    r = _run("channel_scaling.py")
    assert r.returncode == 0, r.stderr
    assert "bit-identical" in r.stdout


def test_adaptive_multigrid_runs():
    r = _run("adaptive_multigrid.py")
    assert r.returncode == 0, r.stderr
    assert "multigrid" in r.stdout
    assert "coarsened mesh" in r.stdout


def test_examples_have_docstrings_and_main():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert text.lstrip().startswith(('#!', '"""')), script
        assert '__main__' in text, f"{script} is not runnable"
