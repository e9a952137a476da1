"""Design rules of the source tree, enforced where the builder runs.

Each rule is a pattern that must not grow back (or must stay in one
place) under ``src/repro``; a failure prints the offending
``path:line: text`` the way ``grep -rn`` would.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _grep(pattern: str, *subdirs: str) -> list[str]:
    """``path:line: text`` of every match under ``src/repro[/subdir]``."""
    rx = re.compile(pattern)
    hits = []
    for root in [SRC / d for d in subdirs] or [SRC]:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if rx.search(line):
                    hits.append(f"{rel}:{n}: {line.strip()}")
    return hits


def _files(hits: list[str]) -> set[str]:
    return {h.split(":", 1)[0] for h in hits}


def test_one_recorder_convention():
    """A service's recorder is always an ``EventLog`` (``None`` is
    normalised to a disabled log in ``obs/events.py``), so no site in
    ``serve/`` or ``fleet/`` tests it, and the two observer hooks are
    always callable."""
    assert _grep(r"recorder is (not )?None", "serve", "fleet") == []
    assert _grep(r"(completion_guard|on_response) is not None") == []


def test_the_map_based_ablation_stays_off_every_solve_path():
    """``MapBasedMatVec`` is the paper's ablation column and a test
    reference: it is constructed only where it is defined and in the two
    commands that report it next to the compiled operator."""
    assert _files(_grep(r"MapBasedMatVec\(")) <= {
        "core/matvec.py", "analysis/roofline.py", "cli.py"}


def test_one_unit_memo_in_one_place():
    """A unit problem is solved by ``solve_batch``'s memo miss and
    nowhere else, and only the batcher knows unit responses exist — no
    second solve path, no second solution cache in ``serve/``."""
    calls = _grep(r"\.unit\(")
    assert len(calls) == 1 and calls[0].startswith("serve/batcher.py:"), calls
    assert _files(_grep(r"\.units\b|UnitResponse")) == {"serve/batcher.py"}


def test_one_kernel_set():
    """``kernels/`` holds one implementation of each kernel and nothing
    that selects one: no second class with an ``elem_apply`` or a
    ``traversal_matvec``, no environment read, and the two names the
    frozen e2e harness still imports are mentioned nowhere else."""
    for method in ("elem_apply", "traversal_matvec"):
        defs = _grep(rf"^\s+def {method}\(", "kernels")  # methods only
        assert len(defs) == 1, defs
        assert defs[0].startswith("kernels/numpy_backend.py:")
    assert _grep(r"os\.environ|getenv", "kernels") == []
    assert _files(_grep(r"use_backend|available_backends")) == {
        "kernels/__init__.py"}


def test_one_dirichlet_elimination():
    """Strong Dirichlet data is eliminated in ``fem/dirichlet.py`` only:
    no other module slices a free/fixed block, builds a 0/1 diagonal
    from a free/fixed mask, or replaces matrix rows through ``lil``.
    (``assembly.py``'s ``Ke[np.ix_(slot, slot)]`` is a gather, not an
    elimination, and does not match.)"""
    idioms = (r"np\.ix_\([^)]*\b\w*(free|fixed)",
              r"sp\.diags\(\(?~?[\w.]*(free|fixed)",
              r"\.tolil\(",
              r"\.rows\[[^\]]*\]\s*=")
    for pattern in idioms:
        assert _files(_grep(pattern)) <= {"fem/dirichlet.py"}, (
            pattern, _grep(pattern))
    assert _files(_grep(idioms[0])) == {"fem/dirichlet.py"}


def test_one_operator_plan_path():
    """Every AMR step rebuilds its mesh and every rank runs the compiled
    program: no rank-restricted gather CSR, no incremental plan update
    and nothing that reuses one.  ``core/plan_delta.py`` holds only the
    rebuild the e2e harness resolves by name; nothing imports it."""
    assert _grep(r"\bg_loc|_plan_update|update_exchange_plan") == []
    assert _grep(r"plan_delta import|import .*plan_delta") == []
