"""Outside-in span tracing for the ``e2e`` benchmark.

The traced pass measures each layer **from outside**: a fixed list of
public callables (:data:`SHIMS`) is rebound, wherever callers look the
callable up, to a wrapper that records one in-memory span per call —
name, start, end, parent span, op id — and, for some, a count read from
the public return value.  Nothing under ``src/`` is edited and every
binding is restored on exit.

A span's *self time* is its duration minus the part its child spans
cover, so the self times of one pass add up exactly to the time spent
inside the outermost (root) spans, i.e. inside the timed calls.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

__all__ = ["SHIMS", "LAYERS", "Tracer", "resolve", "self_times",
           "reduce_spans", "span_cost"]

#: layer of a span name = its first dotted component
LAYERS = ("geometry", "core", "kernels", "fem", "solvers", "amr", "serve",
          "fleet")


# -- count hooks: (counts, args, result) read from public values ----------

def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_mesh(counts, args, mesh):
    _add(counts, "core.mesh.elements_built", mesh.n_elem)


def _count_update_mesh(counts, args, result):
    mesh, delta = result
    # a non-incremental update rebuilds through mesh_from_leaves, which
    # already counted the elements
    if delta.incremental:
        _add(counts, "core.mesh.elements_built", mesh.n_elem)


def _count_map_apply(counts, args, out):
    mv = args[0]
    _add(counts, "core.matvec.dofs", len(out))
    _add(counts, "kernels.flops_computed", mv.flops())
    _add(counts, "kernels.bytes_computed", mv.traffic_bytes())


def _count_traversal(counts, args, out):
    _add(counts, "core.matvec.dofs", len(out))


def _count_cg(counts, args, res):
    _add(counts, "solvers.cg.iterations", int(res.iterations))
    if res.col_reasons is not None:
        _add(counts, "solvers.cg.block_matvecs", int(res.matvecs))


def _count_amr(counts, args, res):
    _add(counts, "amr.cycles", len(res.history))


def _count_batch(counts, args, outcome):
    _add(counts, "serve.batch.matvecs", int(outcome.matvecs))


#: ``(span name, "module:attr.path", count hook)`` — the public callable
#: behind every span.  A module-level function is rebound in its own
#: module and at every ``repro.*`` import site holding the same object; a
#: method or property is rebound on its class.
SHIMS = (
    ("geometry.classify", "repro.core.domain:Domain.classify_octants", None),
    ("geometry.carved_points", "repro.core.domain:Domain.carved_points", None),
    ("core.construct", "repro.core.construct:construct_adaptive", None),
    ("core.balance", "repro.core.balance:balance_2to1", None),
    ("core.nodes", "repro.core.nodes:build_nodes", None),
    ("core.mesh", "repro.core.mesh:mesh_from_leaves", _count_mesh),
    ("core.plan", "repro.core.plan:OperatorContext.__init__", None),
    ("core.plan", "repro.core.plan:TraversalPlan.__init__", None),
    ("core.assembly", "repro.core.assembly:assemble", None),
    ("core.plan_delta", "repro.core.plan_delta:update_mesh",
     _count_update_mesh),
    ("core.adapt", "repro.core.adapt:refine_leaves", None),
    ("core.adapt", "repro.core.interpolate:transfer_field", None),
    ("core.matvec.map_apply", "repro.core.matvec:MapBasedMatVec.__call__",
     _count_map_apply),
    ("core.matvec.traversal", "repro.core.matvec:traversal_matvec",
     _count_traversal),
    ("kernels.gather", "repro.kernels.api:gather", None),
    ("kernels.scatter", "repro.kernels.api:scatter", None),
    ("kernels.elem_apply", "repro.kernels.api:elem_apply", None),
    ("kernels.dot", "repro.kernels.api:dot", None),
    ("kernels.axpy", "repro.kernels.api:axpy", None),
    ("kernels.traversal_apply", "repro.kernels.api:traversal_apply", None),
    ("kernels.assemble", "repro.kernels.api:assemble", None),
    ("fem.load_vector", "repro.fem.poisson:load_vector", None),
    ("fem.sbm_terms", "repro.fem.sbm:sbm_terms", None),
    ("fem.transport_setup", "repro.fem.transport:TransportProblem.__init__",
     None),
    ("fem.poisson_solve", "repro.fem.poisson:PoissonProblem.solve", None),
    ("solvers.cg", "repro.solvers.krylov:cg", _count_cg),
    ("solvers.direct.factor", "scipy.sparse.linalg:splu", None),
    ("amr.solve", "repro.amr.loop:amr_solve", _count_amr),
    ("amr.estimator", "repro.amr.estimators:poisson_estimator", None),
    ("amr.mark", "repro.amr.marking:dorfler_mark", None),
    ("serve.client_solve", "repro.serve.service:SolverClient.solve", None),
    ("serve.submit", "repro.serve.service:SolverService.submit_item", None),
    ("serve.step", "repro.serve.service:SolverService.step", None),
    ("serve.scheduler.next_batch",
     "repro.serve.scheduler:Scheduler.next_batch", None),
    ("serve.cache.lookup", "repro.serve.cache:ArtifactCache.lookup", None),
    ("serve.cache.insert", "repro.serve.cache:ArtifactCache.insert", None),
    ("serve.batcher.build_entry", "repro.serve.batcher:build_entry", None),
    ("serve.batcher.ensure_factor", "repro.serve.batcher:ensure_factor",
     None),
    ("serve.batcher.solve_batch", "repro.serve.batcher:solve_batch",
     _count_batch),
    ("serve.digest", "repro.serve.api:solution_digest", None),
    ("serve.digest", "repro.serve.api:SolveRequest.digest", None),
    ("serve.digest", "repro.serve.api:SolveRequest.batch_key", None),
    ("serve.digest", "repro.serve.api:SolveRequest.mesh_digest", None),
    ("serve.digest", "repro.serve.api:SolveResponse.digest", None),
    ("serve.digest", "repro.fleet.service:core_digest", None),
    ("fleet.run", "repro.fleet.service:FleetService.run", None),
    ("fleet.route", "repro.fleet.router:HashRing.route", None),
    ("fleet.l2.fetch", "repro.fleet.tiercache:TierCache.fetch", None),
    ("fleet.l2.publish", "repro.fleet.tiercache:TierCache.publish_entry",
     None),
    ("fleet.steal.plan", "repro.fleet.steal:plan_steals", None),
    ("fleet.checkpointer",
     "repro.fleet.failover:ShardCheckpointer.on_response", None),
)

#: span recorded around ``lu.solve`` of every factor ``splu`` returns
#: while shims are installed (SuperLU objects cannot be rebound, so the
#: ``splu`` shim hands out a thin timing proxy instead)
LU_SOLVE_SPAN = "solvers.direct.solve"


def resolve(path: str) -> tuple:
    """``(owner, attr)`` of a ``"module:attr.path"`` entry of :data:`SHIMS`:
    the module or class whose namespace holds the callable."""
    mod_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class _TimedLU:
    """Forwarding proxy whose ``solve`` is a shimmed call."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder plus the shim installer.

    ``spans`` holds ``(name, start, end, parent_index, op_id)`` rows in
    call order; ``counts`` accumulates the count hooks.  The harness sets
    :attr:`op` before each timed call so spans of one call share an id.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: dict = {}
        self.op = -1
        self._cur = [-1]  # index of the innermost open span
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------

    def shim(self, name: str, fn, count=None):
        """Wrap ``fn`` so every call records one span named ``name``."""
        spans, cur, clock, counts = (self.spans, self._cur, self.clock,
                                     self.counts)

        def wrapper(*args, **kwargs):
            parent = cur[0]
            idx = cur[0] = len(spans)
            spans.append(None)  # children index past their parent
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # tuples of scalars stay out of the cyclic GC's way
                spans[idx] = (name, t0, clock(), parent, self.op)
                cur[0] = parent
            if count is not None:
                count(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def mark(self) -> tuple:
        """Snapshot to :meth:`rewind` to (the harness brackets its output
        checks with these so their spans never reach the pass)."""
        return len(self.spans), dict(self.counts)

    def rewind(self, mark: tuple) -> None:
        n_spans, counts = mark
        del self.spans[n_spans:]
        self.counts.clear()
        self.counts.update(counts)

    def _splu_shim(self, splu):
        factor = self.shim("solvers.direct.factor", splu)

        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TimedLU(lu, self.shim(LU_SOLVE_SPAN, lu.solve))

        traced_splu.__wrapped__ = splu
        return traced_splu

    # -- installing / restoring -------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        holder = owner if isinstance(owner, dict) else vars(owner)
        self._saved.append((owner, attr, holder[attr]))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every callable of :data:`SHIMS` (once per tracer)."""
        if self._saved:
            raise RuntimeError("shims already installed")
        # resolve everything first: a bad path must not leave half the
        # shims installed
        targets = [(name, *resolve(path), count)
                   for name, path, count in SHIMS]
        for name, owner, attr, count in targets:
            original = vars(owner)[attr]
            if isinstance(original, property):
                new = property(self.shim(name, original.fget, count))
            elif name == "solvers.direct.factor":
                new = self._splu_shim(original)
            else:
                new = self.shim(name, original, count)
            is_module = isinstance(owner, type(sys))
            self._rebind(owner, attr, new)
            if is_module:
                self._rebind_import_sites(owner, original, new)

    def _rebind_import_sites(self, home, original, new) -> None:
        """``from x import f`` copies the binding: follow it into every
        loaded ``repro.*`` module, and into module-level dict registries
        (``amr.loop._MARKERS`` holds the marking functions by value)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is home:
                continue
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, new)
                elif type(value) is dict and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._rebind(value, key, new)

    def restore(self) -> None:
        """Put every original object back (reverse order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path) -> None:
        """Write the raw spans (and counts) of the pass as JSON."""
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, fh)


def span_cost() -> float:
    """Seconds one span adds to a call: a no-op called through a shim
    minus the same no-op called bare, fastest of 5 batches of 10 000."""
    def noop():
        return None

    def batch(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(10_000):
            fn()
        return time.perf_counter() - t0

    shimmed = Tracer().shim("x.noop", noop)
    fastest = {fn: min(batch(fn) for _ in range(5)) for fn in (noop, shimmed)}
    return max(fastest[shimmed] - fastest[noop], 0.0) / 10_000


# -- arithmetic on recorded spans ------------------------------------------

def self_times(spans) -> dict:
    """Per span name: summed self seconds, inclusive seconds, calls.

    Self time of a span = its duration minus the durations of its direct
    children, so ``sum(self_s)`` over all names equals the summed
    duration of the root spans exactly (up to float rounding).
    """
    self_s = [row[2] - row[1] for row in spans]
    for row in spans:
        if row[3] >= 0:
            self_s[row[3]] -= row[2] - row[1]
    out: dict = {}
    for row, own in zip(spans, self_s):
        rec = out.setdefault(row[0], {"self_s": 0.0, "incl_s": 0.0,
                                      "calls": 0})
        rec["self_s"] += own
        rec["incl_s"] += row[2] - row[1]
        rec["calls"] += 1
    return out


def root_seconds(spans) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(row[2] - row[1] for row in spans if row[3] < 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def reduce_spans(spans, counts: dict) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    by_name = self_times(spans)
    total = sum(rec["self_s"] for rec in by_name.values())
    out: dict = {}
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, rec in by_name.items():
        out[f"{name}.self_s"] = rec["self_s"]
        out[f"{name}.calls"] = rec["calls"]
        layer_s[name.split(".")[0]] += rec["self_s"]
    for layer, secs in layer_s.items():
        out[f"{layer}.share"] = _ratio(secs, total)
    out.update(counts)

    def incl(*names) -> float:
        return sum(by_name[n]["incl_s"] for n in names if n in by_name)

    def own(*names) -> float:
        return sum(by_name[n]["self_s"] for n in names if n in by_name)

    def calls(name) -> int:
        return by_name[name]["calls"] if name in by_name else 0

    out["core.plan.builds"] = calls("core.plan")
    out["core.mesh.elements_per_s"] = _ratio(
        counts.get("core.mesh.elements_built", 0),
        own("geometry.classify", "geometry.carved_points", "core.construct",
            "core.balance", "core.nodes", "core.mesh", "core.plan_delta",
            "core.adapt"))
    out["core.matvec.dofs_per_s"] = _ratio(
        counts.get("core.matvec.dofs", 0),
        incl("core.matvec.map_apply", "core.matvec.traversal"))
    out["kernels.intensity_computed"] = _ratio(
        counts.get("kernels.flops_computed", 0),
        counts.get("kernels.bytes_computed", 0))
    out["solvers.cg.iters_per_solve"] = _ratio(
        counts.get("solvers.cg.iterations", 0), calls("solvers.cg"))
    out["solvers.direct.factor_s"] = own("solvers.direct.factor")
    out["solvers.direct.solve_s"] = own(LU_SOLVE_SPAN)
    out["fleet.shard_step.incl_s"] = (
        incl("serve.step") if "fleet.run" in by_name else 0.0)
    out["trace.spans"] = len(spans)
    out["trace.inside_s"] = total
    return out
