"""Design rules of the source tree, enforced where the builder runs.

Each rule is a pattern that must not grow back (or must stay in one
place) under ``src/repro``; a failure prints the offending
``path:line: text`` the way ``grep -rn`` would.  One rule is checked in
a fresh interpreter instead: which modules a process loads.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


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


def test_sparsetools_is_imported_only_by_the_kernel_set():
    """``scipy.sparse._sparsetools`` (the compiled loops behind ``A @ x``,
    private to scipy and unchecked on indices) is named in
    ``kernels/numpy_backend.py`` only: every call into it goes through
    ``NumpyKernels.csr_matvec``'s shape check, and a scipy release that
    moves it breaks one file."""
    assert _files(_grep(r"\b_sparsetools\b")) == {"kernels/numpy_backend.py"}


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


def test_one_assembly_path():
    """Every ``Σ P_eᵀ K_e P_e`` goes through ``kernels.assemble``: a
    ``bsr_matrix`` is built in ``kernels/numpy_backend.py`` and nowhere
    else.  The stabilised advection–diffusion form is written once, in
    ``fem/transport.py``: the SUPG intrinsic time τ, the element-mean
    advection and the SUPG contractions of the reference tensors;
    Navier–Stokes takes its velocity blocks from it."""
    assert _files(_grep(r"bsr_matrix")) == {"kernels/numpy_backend.py"}
    for pattern in (r"12\.0 \* [\w.]+ / h",   # τ's diffusive term
                    r"npe\)\.mean\(axis=1\)",  # element-mean advection
                    r'"fk,fl,klij->fij"',      # (a·∇w, a·∇c)
                    r'"fk,kji->fij"'):         # (a·∇w, c)
        hits = _grep(pattern)
        assert len(hits) == 1 and hits[0].startswith("fem/transport.py:"), (
            pattern, hits)


def test_one_fault_model():
    """Every fault, rank or shard, is an entry of the one
    ``FaultSchedule`` in ``resilience/faults.py``, and every consumer
    holds one (``FaultSchedule.of`` turns ``None`` into an empty
    schedule): no site tests a schedule for ``None``, no second
    schedule or clock type, no ``kill=`` side door to a shard crash,
    and one class keeps the consumed-fault set."""
    assert _grep(r"\b(chaos|sched|fault_schedule) is (not )?None") == []
    assert _grep(r"ChaosSchedule|ChaosClock") == []
    assert _grep(r"\bkill(: [^=,)]+)?\s*=(?![={])") == []  # a parameter
    assert not (SRC / "chaos" / "schedule.py").exists()
    consumed = _grep(r"consumed\w*(: [^=]+)? = set\(\)")
    assert _files(consumed) == {"resilience/faults.py"}, consumed
    assert len(consumed) == 1, consumed


def test_scipy_spatial_is_imported_only_where_it_is_used():
    """``scipy.spatial`` (a k-d tree for triangle meshes, nearest-node
    fallbacks) is imported inside the functions that use it: a process
    that imports ``repro``, ``repro.serve`` and ``repro.fleet`` and runs a
    matrix-free solve never loads it."""
    script = (
        "import sys\n"
        "import repro, repro.serve, repro.fleet\n"
        "from repro.fem.poisson import PoissonProblem\n"
        "from repro.geometry import SphereCarve\n"
        "mesh = repro.build_mesh(repro.Domain(SphereCarve([0.5] * 3, 0.3)), 2, 3)\n"
        "PoissonProblem(mesh, f=1.0).solve(solver='matrix-free')\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_one_operator_plan_path():
    """Every AMR step rebuilds its mesh and every rank runs the compiled
    program: no rank-restricted gather CSR, no incremental plan update
    and nothing that reuses one.  ``core/plan_delta.py`` holds only the
    rebuild the e2e harness resolves by name; nothing imports it."""
    assert _grep(r"\bg_loc|_plan_update|update_exchange_plan") == []
    assert _grep(r"plan_delta import|import .*plan_delta") == []


def test_one_krylov_recurrence():
    """The CG recurrence is written once, in ``solvers/krylov.py``: its
    ``pAp`` / ``rz_new`` appear nowhere else (the resilient distributed
    solve steps the same state), the masked full-length Poisson forms
    are gone, and no solver takes a ``callback``."""
    assert _files(_grep(r"\b(pAp|rz_new)\b")) == {"solvers/krylov.py"}
    assert _grep(r"masked_system|masked_apply|masked_rhs") == []
    assert _grep(r"\bcallback\b") == []


def test_one_free_system():
    """Every Poisson solve inverts one ``FreeSystem``
    (``solvers/system.py``): ``cg`` is called there and nowhere else
    (the resilient solve steps the same recurrence on its
    preconditioner), a sparse LU is factored under ``solvers/`` only —
    transport's and Navier–Stokes' steps call its ``sparse_lu`` — and
    ``spsolve``, a second door to the same SuperLU, appears nowhere."""
    assert _grep(r"\bspsolve\b") == []
    splu = _grep(r"\bsplu\b")
    assert splu and all(h.startswith("solvers/") for h in splu), splu
    assert _files(_grep(r"\bcg\(")) == {"solvers/krylov.py", "solvers/system.py"}


def test_one_sealed_document():
    """Both checkpoint schemas are sealed by one writer and verified by
    one reader: ``_digest`` is the only sha256 in ``resilience/``, and
    it is called from exactly those two functions."""
    assert _files(_grep(r"sha256\(", "resilience")) == {
        "resilience/checkpoint.py"}
    assert len(_grep(r"sha256\(", "resilience")) == 1
    tree = ast.parse((SRC / "resilience" / "checkpoint.py").read_text())
    callers = sorted(
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_digest")
    assert callers == ["_read_sealed", "_write_sealed"], callers


def _method(rel: str, cls: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / rel).read_text())
    owner = next(n for n in tree.body
                 if isinstance(n, ast.ClassDef) and n.name == cls)
    return next(n for n in owner.body
                if isinstance(n, ast.FunctionDef) and n.name == name)


def _callers(rel: str, callee: str) -> list[str]:
    """Names of the functions in ``rel`` whose bodies call ``callee``."""
    tree = ast.parse((SRC / rel).read_text())
    return sorted(
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == callee)


def test_one_read_set():
    """What a cache hit reads is named in one place, ``CacheEntry.reads``:
    an L1 hit re-hashes exactly that read set and the ``corrupt_cache``
    fault damages its first array.  The base digest is taken at build
    and for the read set's base piece only — never a second time on the
    lookup path."""
    assert _files(_grep(r"def reads\(")) == {"serve/cache.py"}
    assert _files(_grep(r"\.reads\(")) == {"serve/cache.py", "fleet/service.py"}
    lookup = ast.unparse(_method("serve/cache.py", "ArtifactCache", "lookup"))
    assert "entry.check(entry.reads(batch_key))" in lookup, lookup
    assert "verify(" not in lookup and "digest(" not in lookup, lookup
    assert _callers("serve/cache.py", "_entry_content_digest") == [
        "__init__", "_base"]
    resolve = _method("fleet/service.py", "FleetShard", "_resolve_entry")
    (damage,) = [n for n in ast.walk(resolve) if isinstance(n, ast.Call)
                 and getattr(n.func, "id", "") == "corrupt_in_place"]
    target = ast.unparse(damage.args[0])
    (source,) = [ast.unparse(n.value) for n in ast.walk(resolve)
                 if isinstance(n, ast.Assign)
                 and [ast.unparse(t) for t in n.targets] == [target]]
    assert source == "victim.reads(request.batch_key)[0].arrays[0]", source
    assert _files(_grep(r"corrupt_in_place\(")) == {
        "fleet/service.py", "resilience/faults.py"}


_METHOD = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEF = (*_METHOD, ast.ClassDef)

#: a ``"module:Qual.name"`` string, as the e2e harness resolves them
_QUALIFIED = re.compile(r"([\w.]+):(\w+)(?:\.[\w.]+)?")


class _Namespaces:
    """The modules under ``src/repro`` and ``tests/oracles``: each one's
    module-level defs and import table, and a resolver from a name (or
    an attribute of a module, or a ``"module:Qual"`` string) to the def
    it binds, following package re-exports to the defining module."""

    def __init__(self):
        self.trees, self.packages = {}, set()
        for base, pkg in ((SRC.parent, SRC), (ROOT, ROOT / "tests" / "oracles")):
            for path in sorted(pkg.rglob("*.py")):
                parts = path.relative_to(base).with_suffix("").parts
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                    self.packages.add(".".join(parts))
                self.trees[".".join(parts)] = ast.parse(path.read_text())
        self.defs = {mod: {n.name: n for n in tree.body if isinstance(n, _DEF)}
                     for mod, tree in self.trees.items()}
        self.imports = {mod: self.import_table(mod, tree)
                        for mod, tree in self.trees.items()}

    def import_table(self, mod: str, tree: ast.AST) -> dict:
        """``alias -> (module, attr)`` for every import in any scope of
        ``tree`` (``attr`` is ``None`` for ``import module``)."""
        table = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        table[a.asname] = (a.name, None)
                    else:
                        head = a.name.split(".")[0]
                        table[head] = (head, None)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    pkg = mod if mod in self.packages else mod.rpartition(".")[0]
                    for _ in range(node.level - 1):
                        pkg = pkg.rpartition(".")[0]
                    base = ".".join(filter(None, [pkg, node.module]))
                for a in node.names:
                    table[a.asname or a.name] = (base, a.name)
        return table

    def resolve(self, mod: str, name: str, table=None, seen=()):
        """``("def", "mod:name")``, ``("mod", module)`` or ``None``."""
        if (mod, name) in seen:
            return None
        if table is None:
            if mod not in self.trees:
                return None
            if name in self.defs[mod]:
                return ("def", f"{mod}:{name}")
            table = self.imports[mod]
        if name in table:
            target, attr = table[name]
            if attr is None:
                return ("mod", target) if target in self.trees else None
            return self.resolve(target, attr, seen=(*seen, (mod, name)))
        if f"{mod}.{name}" in self.trees:
            return ("mod", f"{mod}.{name}")
        return None

    def refs(self, mod: str, node: ast.AST, table=None, attrs=None) -> set[str]:
        """The defs ``node`` refers to, read in module ``mod``'s
        namespace (or in a root file's import ``table``); the attribute
        names it reads go into ``attrs``: every ``x.name``, every string
        that is an identifier (``getattr(x, "name")``) and each part of
        a ``"module:Qual.name"`` string."""
        def expr(e):
            if isinstance(e, ast.Name):
                return self.resolve(mod, e.id, table)
            if isinstance(e, ast.Attribute):
                base = expr(e.value)
                if base and base[0] == "mod":
                    return self.resolve(base[1], e.attr)
            return None

        found = set()
        for n in ast.walk(node):
            hit = None
            if isinstance(n, (ast.Name, ast.Attribute)):
                hit = expr(n)
                if isinstance(n, ast.Attribute) and attrs is not None:
                    attrs.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                m = _QUALIFIED.fullmatch(n.value)
                hit = m and self.resolve(m[1], m[2])
                if attrs is not None:
                    if m:
                        attrs.update(n.value.partition(":")[2].split("."))
                    elif n.value.isidentifier():
                        attrs.add(n.value)
            if hit and hit[0] == "def":
                found.add(hit[1])
        return found

    @staticmethod
    def body(node: ast.AST) -> list[ast.AST]:
        """What a live def runs or defines: a function whole, a class
        without its methods (each of those lives on its own)."""
        if not isinstance(node, ast.ClassDef):
            return [node]
        return [*node.bases, *node.keywords, *node.decorator_list,
                *(s for s in node.body if not isinstance(s, _METHOD))]

    def unreached(self, package: str, root_files) -> list[str]:
        """The module-level defs under ``package`` (dunders aside) that
        nothing reaches, through the defs' bodies, from the statements
        of ``root_files`` (``(path, module name)`` pairs) or the
        package's own top-level code (imports and ``__all__`` aside),
        then the methods of the reached classes whose name no reached
        code reads as an attribute (``"mod:Class.method"``)."""
        inside = [mod for mod in self.trees
                  if f"{mod}.".startswith(f"{package}.")]
        live, attrs, stack = set(), set(), []

        def reach(mod, nodes, table=None):
            for node in nodes:
                for ref in self.refs(mod, node, table, attrs) - live:
                    live.add(ref)
                    stack.append(ref)

        for path, mod in root_files:
            tree = ast.parse(path.read_text())
            reach(mod, [tree], self.import_table(mod, tree))
        for mod in inside:
            reach(mod, [top for top in self.trees[mod].body
                        if not isinstance(top, (*_DEF, ast.Import, ast.ImportFrom))
                        and not (isinstance(top, ast.Assign) and any(
                            getattr(t, "id", "") == "__all__" for t in top.targets))])
        methods = {}  # "mod:Class.method" -> its def, for the reached classes
        grown = True
        while grown:
            while stack:
                key = stack.pop()
                mod, name = key.split(":")
                node = self.defs[mod][name]
                reach(mod, self.body(node))
                if isinstance(node, ast.ClassDef):
                    methods.update({f"{key}.{m.name}": (mod, m) for m in node.body
                                    if isinstance(m, _METHOD)})
            grown = False
            for key, (mod, m) in methods.items():
                if key not in live and (m.name in attrs or _dunder(m.name)):
                    live.add(key)
                    reach(mod, [m])
                    grown = True
        dead = [f"{mod}:{name}" for mod in inside for name in self.defs[mod]
                if not _dunder(name) and f"{mod}:{name}" not in live]
        dead += [key for key in methods if key not in live
                 and key.partition(":")[0] in inside]
        return sorted(dead)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_public_def_has_a_caller():
    """Every module-level ``def``/``class`` under ``src/repro`` (private
    ones included) is reached, through the bodies of the defs that refer
    to it, from a product root: any statement under ``benchmarks/`` or
    ``examples/``, or a module's own top-level code (``__main__`` runs
    ``cli.main``).  A name counts only where it resolves to the def —
    through the module's defs and imports, an attribute of a module, or
    a ``"module:Qual"`` string — so a method that shares a def's name
    keeps nothing alive.  A method of a reached class is reached when
    reached code reads its name as an attribute of anything (or it is a
    dunder): a conservative rule, since any same-named attribute counts.
    Oracles that only tests need live in ``tests/oracles/``, and each of
    their defs and methods is reached from a test."""
    ns = _Namespaces()
    product = [(path, f"{tree_dir}.{path.stem}")
               for tree_dir in ("benchmarks", "examples")
               for path in sorted((ROOT / tree_dir).rglob("*.py"))]
    assert ns.unreached("repro", product) == [], "no product caller"
    tests = [(path, f"tests.{path.stem}")
             for path in sorted((ROOT / "tests").glob("test_*.py"))]
    assert ns.unreached("tests.oracles", tests) == [], "no test caller"


def test_no_lazy_module_attributes():
    """A package re-exports only what it imports at its top: no module
    under ``src/repro`` defines a module-level ``__getattr__``."""
    lazy = [path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            for top in ast.parse(path.read_text()).body
            if isinstance(top, _DEF) and top.name == "__getattr__"]
    assert lazy == []
