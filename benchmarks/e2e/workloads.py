"""The five ``e2e`` workloads and their seeded input generators.

Every input (geometries, request streams, arrival ticks, right-hand
sides) is generated here from ``--seed`` with one ``numpy`` generator
per workload; the program under test only ever sees the generated
requests and arrays.  Op counts are fixed constants (scaled by the
runner's ``--seconds``/``--quick``), so every count repeats exactly.

Sizes that set how much work one op does (sphere radii, catalog mesh
sizes) are drawn *stratified*: one draw per cell of a fixed grid over the
range, jittered by the seed, and a catalog assigns the cells to
popularity ranks in a fixed order.  Different seeds give different
streams while the work of a pass barely moves, which is what lets ten
runs on ten seeds agree within the benchmark's bounds.

Workloads whose calls would all cost the same run a few *classes* of
call instead (chunk sizes, tolerances, meshes) whose costs lie > 1.5x
apart, with shares chosen so that the 50th and 90th latency percentile
each fall well inside one class; see "Call classes" in the README.

``repro`` is imported inside ``setup`` so that set-up time covers it.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

__all__ = ["WORKLOADS", "stratified", "cold_requests", "hot_catalog",
           "hot_requests", "fleet_catalog", "fleet_arrivals",
           "request_stream_digest"]

_clock = time.perf_counter


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """``n`` ascending draws covering ``[lo, hi)`` evenly: one per
    1/n-wide stratum, jittered inside it."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _fixed_order(n: int) -> np.ndarray:
    """A seed-independent permutation that keeps neighbours apart (golden
    ratio sequence): which stratum a popularity rank gets never changes,
    so a zipf-weighted catalog costs the same on every seed."""
    return np.argsort((np.arange(n) * 0.6180339887498949) % 1.0)


def _shuffled(rng, groups: list[list]) -> list:
    """The items of all ``groups`` in one seeded order."""
    items = [item for group in groups for item in group]
    return [items[i] for i in rng.permutation(len(items))]


def _split_counts(n: int, shares) -> list[int]:
    """``n`` split by ``shares``; rounding slack goes to the first part."""
    counts = [int(round(share * n)) for share in shares]
    counts[0] += n - sum(counts)
    return counts


def _amplitude(rng) -> float:
    return round(float(rng.uniform(0.5, 2.0)), 6)


def _sphere(center, radius) -> dict:
    return {"shape": "sphere", "center": tuple(round(float(c), 6)
                                               for c in center),
            "radius": round(float(radius), 6)}


def request_stream_digest(requests) -> str:
    """sha256 over the request digests in order (generator determinism)."""
    h = hashlib.sha256()
    for req in requests:
        h.update(req.digest.encode())
    return h.hexdigest()


def _residual_ok(req, resp) -> bool:
    """Reported residual within the request tolerance.

    ``poisson``: CG stops at ``max(tol*|b|, 1e-14)`` and the unit load
    sums to the retained volume <= 1, so ``|b| <= f``.  ``sbm``: the LU
    residual is round-off.  ``transport`` reports 0 and ``amr`` reports
    the error estimate, which only has to be finite.
    """
    if not np.isfinite(resp.residual):
        return False
    if req.pde in ("poisson", "sbm"):
        return resp.residual <= max(req.tol * req.f, 1e-14)
    return True


def _response_failures(requests, responses) -> int:
    """Failed items of one op: every request needs exactly one ``ok``
    response with an in-tolerance residual."""
    by_digest: dict = {}
    for resp in responses:
        by_digest.setdefault(resp.request_digest, []).append(resp)
    failed = 0
    for req, digest in requests:
        got = by_digest.get(digest, [])
        resp = got.pop() if got else None
        if resp is None or not resp.ok or not _residual_ok(req, resp):
            failed += 1
    # a response no request asked for is a failure of the op as well
    return failed + sum(len(rest) for rest in by_digest.values())


# -- cold_solve -------------------------------------------------------------

#: exact pde mix of cold_solve (shares of the op count)
COLD_MIX = (("poisson", 0.5), ("sbm", 0.2), ("transport", 0.1), ("amr", 0.2))


def cold_requests(seed: int, n: int) -> list:
    """``n`` requests, each on a 3-D carved sphere never seen before.

    Per pde kind the radii are stratified.  The order of (kind, stratum)
    is the same on every seed — the seed draws radii inside the strata,
    centres and amplitudes — because the allocator's high-water mark
    follows the order of allocation sizes: with a seeded order
    ``peak_rss_mb`` ranged 162-201 MiB over ten seeds, with a fixed one
    173-177 MiB over six."""
    from repro.serve import SolveRequest

    rng = _rng(seed, 1)
    groups = []
    counts = _split_counts(n, [share for _, share in COLD_MIX])
    for (pde, _), k in zip(COLD_MIX, counts):
        kwargs = {"amr_cycles": 1} if pde == "amr" else {}
        # distinct strata => distinct radii => distinct mesh digests
        groups.append([SolveRequest(
            geometry=_sphere(0.5 + rng.uniform(-0.06, 0.06, 3), radius),
            pde=pde, base_level=3, boundary_level=4, f=_amplitude(rng),
            **kwargs) for radius in stratified(rng, k, 0.12, 0.26)])
    return _shuffled(_rng(0, 9), groups)


class ColdSolve:
    """Time-to-solution on a new geometry through one small-cache service."""

    name = "cold_solve"
    base_ops = 100

    def setup(self, seed: int, n_ops: int) -> list:
        from repro.serve import SolveRequest, SolverClient, SolverService

        # ~4 entries of the 0.2-1.5 MB these meshes make
        self.service = SolverService(cache_bytes=3 << 20)
        self.client = SolverClient(self.service)
        reqs = cold_requests(seed, n_ops)
        for pde, _ in COLD_MIX:  # warm-up: lazy imports, lru caches
            kwargs = {"amr_cycles": 1} if pde == "amr" else {}
            self.client.solve(SolveRequest(
                geometry=_sphere((0.5, 0.5, 0.5), 0.3), pde=pde,
                base_level=3, boundary_level=4, **kwargs))
        self._seen = len(self.service.responses)
        self._base = _serve_counts([self.service])
        return [(req, req.digest) for req in reqs]

    def n_items(self, op) -> int:
        return 1

    def call(self, op):
        return self.client.solve(op[0]), None, None

    def check(self, op, resp) -> int:
        n_new = len(self.service.responses) - self._seen
        self._seen += n_new
        return max(_response_failures([op], [resp]), int(n_new != 1))

    def finish(self) -> dict:
        return {"output_digest": self.service.stream_digest,
                "stats": _serve_stats([self.service], self._base)}


# -- serve_hot ----------------------------------------------------------------

#: pde kind by popularity rank of the 8-entry hot catalog
HOT_KINDS = ("poisson", "poisson", "sbm", "poisson", "poisson", "transport",
             "poisson", "poisson")
HOT_WINDOW = 16


def hot_catalog(seed: int) -> list[dict]:
    """8 3-D discretizations in popularity rank order."""
    rng = _rng(seed, 2)
    radii = stratified(rng, len(HOT_KINDS), 0.2, 0.3)
    out = []
    for pde, radius in zip(HOT_KINDS, radii[_fixed_order(len(radii))]):
        center = 0.5 + rng.uniform(-0.05, 0.05, 3)
        out.append(dict(geometry=_sphere(center, radius), pde=pde,
                        base_level=3, boundary_level=5))
    return out


def _zipf_ranks(rng, n_ranks: int, n: int) -> np.ndarray:
    """``n`` popularity ranks in seeded order whose counts follow
    zipf(1.1) exactly (largest remainders take the rounding slack), so
    every seed asks for each template equally often."""
    w = 1.0 / np.arange(1, n_ranks + 1) ** 1.1
    exact = n * w / w.sum()
    counts = np.floor(exact).astype(int)
    slack = np.argsort(counts - exact, kind="stable")[:n - counts.sum()]
    counts[slack] += 1
    return rng.permutation(np.repeat(np.arange(n_ranks), counts))


def hot_requests(seed: int, n: int) -> list:
    from repro.serve import SolveRequest

    catalog = hot_catalog(seed)
    rng = _rng(seed, 3)
    ranks = _zipf_ranks(rng, len(catalog), n)
    return [SolveRequest(f=_amplitude(rng), **catalog[r]) for r in ranks]


class ServeHot:
    """Closed loop over a pre-built catalog: the cache in pure read mode."""

    name = "serve_hot"
    base_ops = 110  # windows of HOT_WINDOW requests

    def setup(self, seed: int, n_ops: int) -> list:
        from repro.serve import SolveRequest, SolverService

        self.service = SolverService(max_batch=8, cache_bytes=1 << 30)
        self.queue_waits: list[float] = []
        for tmpl in hot_catalog(seed):  # build + factor every entry
            self.service.submit(SolveRequest(**tmpl))
        self.service.drain()
        warm = 2
        reqs = hot_requests(seed, (warm + n_ops) * HOT_WINDOW)
        pairs = [(req, req.digest) for req in reqs]
        windows = [pairs[i:i + HOT_WINDOW]
                   for i in range(0, len(pairs), HOT_WINDOW)]
        for window in windows[:warm]:
            self.call(window)
        self.queue_waits.clear()
        self._base = _serve_counts([self.service])
        return windows[warm:]

    def n_items(self, op) -> int:
        return len(op)

    def call(self, op):
        """Submit one window, step until the queue is empty.  A request's
        latency is the return time of the step that completed it minus
        its own submit time."""
        svc = self.service
        submitted: dict = {}
        inside = 0.0
        for req, digest in op:
            t0 = _clock()
            svc.submit(req)
            inside += _clock() - t0
            submitted.setdefault(digest, []).append(t0)
        out, samples = [], []
        while svc.scheduler.depth:
            t0 = _clock()
            done = svc.step()
            t1 = _clock()
            inside += t1 - t0
            for resp in done:
                t_sub = submitted[resp.request_digest].pop()
                samples.append(t1 - t_sub)
                self.queue_waits.append(t0 - t_sub)
            out.extend(done)
        return out, samples, inside

    def check(self, op, responses) -> int:
        return _response_failures(op, responses)

    def finish(self) -> dict:
        stats = _serve_stats([self.service], self._base)
        stats["serve.queue_wait_s_p50"] = float(np.median(self.queue_waits))
        return {"output_digest": self.service.stream_digest, "stats": stats}


# -- fleet_zipf -----------------------------------------------------------------

FLEET_POOL = 16
#: (arrivals per ``run`` call, share of the calls) — see "Call classes" in
#: the README: percentiles of per-call latency land inside a class
FLEET_CHUNKS = ((20, 0.25), (40, 0.5), (80, 0.25))


def fleet_catalog(seed: int) -> list[dict]:
    """``FLEET_POOL`` small 2-D templates in popularity rank order.

    Disks with radius in [0.12, 0.34] (always positive — unlike
    ``repro.fleet.workload.mesh_catalog``, whose radius reaches 0 at
    ``pool >= 20``), every fifth rank the channel transport problem.
    """
    rng = _rng(seed, 4)
    radii = stratified(rng, FLEET_POOL, 0.12, 0.34)[_fixed_order(FLEET_POOL)]
    channel = {"shape": "box", "lo": (0.0, 0.0), "hi": (4.0, 1.0),
               "domain_hi": (4.0, 4.0), "scale": 4.0}
    out = []
    for i, radius in enumerate(radii):
        if i % 5 == 3:
            out.append(dict(geometry=channel, pde="transport",
                            velocity=(1.0, 0.0), kappa=0.05, dt=0.2,
                            steps=1 + (i // 5) % 2,
                            base_level=2, boundary_level=3))
            continue
        center = 0.5 + rng.uniform(-0.04, 0.04, 2)
        out.append(dict(geometry=_sphere(center, radius),
                        pde="poisson" if i % 5 == 4 else "sbm",
                        base_level=2, boundary_level=3))
    return out


def fleet_arrivals(seed: int, n: int) -> list:
    """``n`` zipf(1.1) arrivals with non-decreasing ticks: exponential
    gaps of mean 80 ticks, and with probability 0.15 an arrival starts a
    burst of 8 whose gaps have mean 8."""
    from repro.fleet import Arrival
    from repro.serve import SolveRequest

    catalog = fleet_catalog(seed)
    rng = _rng(seed, 5)
    ranks = _zipf_ranks(rng, len(catalog), n)
    tick = 0.0
    burst_left = 0
    out = []
    for rank in ranks:
        if burst_left == 0 and rng.random() < 0.15:
            burst_left = 8
        gap = 8.0 if burst_left else 80.0
        burst_left = max(0, burst_left - 1)
        tick += rng.exponential(gap)
        req = SolveRequest(f=_amplitude(rng), priority=int(rng.integers(0, 3)),
                           **catalog[rank])
        out.append(Arrival(tick=int(round(tick)), request=req))
    return out


class FleetZipf:
    """Tiny meshes through a 4-shard fleet: the control plane dominates."""

    name = "fleet_zipf"
    base_ops = 280  # run(chunk) calls
    recorder = None  # the obs pass sets an EventLog

    def setup(self, seed: int, n_ops: int) -> list:
        from repro.fleet import FleetService

        # L1 holds ~3 of the 4-30 KB entries per shard
        self.fleet = FleetService(4, cache_bytes=40_000, stealing=True,
                                  recorder=self.recorder)
        counts = _split_counts(n_ops, [share for _, share in FLEET_CHUNKS])
        warm = [40, 40]
        sizes = warm + _shuffled(_rng(seed, 8), [
            [size] * k for (size, _), k in zip(FLEET_CHUNKS, counts)])
        arrivals = fleet_arrivals(seed, sum(sizes))
        ops, start = [], 0
        for size in sizes:
            chunk = arrivals[start:start + size]
            start += size
            ops.append((chunk, [(a.request, a.request.digest)
                                for a in chunk]))
        self._seen = 0
        for op in ops[:len(warm)]:
            self.call(op)
        self._base = _serve_counts(list(self.fleet.shards.values()))
        self._fleet_base = self._counts()
        return ops[len(warm):]

    def n_items(self, op) -> int:
        return len(op[0])

    def call(self, op):
        responses = self.fleet.run(op[0])
        new = responses[self._seen:]
        self._seen = len(responses)
        return new, None, None

    def check(self, op, responses) -> int:
        return _response_failures(op[1], responses)

    def _counts(self) -> dict:
        fs = self.fleet.stats()
        out = {"steals": fs["steals"], "l2_hits": fs["l2"]["hits"],
               "l2_misses": fs["l2"]["misses"],
               "events": len(self.recorder or ())}
        out.update({f"routed.{sid}": n for sid, n in fs["routed"].items()})
        return out

    def finish(self) -> dict:
        shards = list(self.fleet.shards.values())
        stats = _serve_stats(shards, self._base)
        now = self._counts()
        d = {k: now[k] - self._fleet_base[k] for k in now}
        routed = [v for k, v in d.items() if k.startswith("routed.")]
        stats.update({
            "fleet.steals": d["steals"],
            "fleet.l2.hits": d["l2_hits"],
            "fleet.l2.misses": d["l2_misses"],
            "fleet.routed_imbalance": max(routed) * len(routed) / sum(routed),
            "obs.recorder.events": d["events"],
        })
        return {"output_digest": self.fleet.fleet_digest, "stats": stats}


def _serve_counts(services) -> dict:
    """Cache/batch counts summed over services, from the public stats()."""
    docs = [svc.stats() for svc in services]
    return {
        "hits": sum(d["cache"]["hits"] for d in docs),
        "misses": sum(d["cache"]["misses"] for d in docs),
        "evictions": sum(d["cache"]["evictions"] for d in docs),
        "batches": sum(d["batches"] for d in docs),
        "ok": sum(d["status"].get("ok", 0) for d in docs),
    }


def _serve_stats(services, base: dict) -> dict:
    """Per-layer serve counts of the pass: now minus the set-up's."""
    now = _serve_counts(services)
    d = {k: now[k] - base[k] for k in now}
    return {
        "serve.cache.hits": d["hits"],
        "serve.cache.misses": d["misses"],
        "serve.cache.evictions": d["evictions"],
        "serve.cache.hit_ratio": d["hits"] / max(d["hits"] + d["misses"], 1),
        "serve.batches": d["batches"],
        "serve.batch.mean_size": d["ok"] / max(d["batches"], 1),
    }


# -- matfree_solve ----------------------------------------------------------------

def _carved_sphere_mesh(radius: float, base: int, boundary: int):
    from repro.core.domain import Domain
    from repro.core.mesh import build_mesh
    from repro.geometry import SphereCarve

    return build_mesh(Domain(SphereCarve([0.5, 0.5, 0.5], radius)),
                      base, boundary, p=1)


#: (rtol, share of the solves): most users stop at engineering accuracy,
#: a quarter ask for a reference-quality solve
MATFREE_RTOLS = ((1e-2, 0.75), (1e-10, 0.25))


class MatfreeSolve:
    """The production matrix-free operator: map-based MATVEC + kernels +
    single-RHS Krylov; no service, no cache, no assembly."""

    name = "matfree_solve"
    base_ops = 160

    def setup(self, seed: int, n_ops: int) -> list:
        from repro.fem.poisson import PoissonProblem

        self.problem_cls = PoissonProblem
        self.mesh = _carved_sphere_mesh(0.3, 4, 6)
        # the output check measures the true residual of every solution
        # against the assembled unit system (a SuperLU factor of a 3-D
        # system this size costs seconds and hundreds of MiB here, so no
        # direct reference solve)
        A, b, fixed = PoissonProblem(self.mesh, f=1.0).system()
        self.free = ~fixed
        self.A_free = A[self.free]
        self.b_free = b[self.free]
        self.b_norm = float(np.linalg.norm(self.b_free))
        self.digest = hashlib.sha256()
        rng = _rng(seed, 6)
        for _ in range(3):  # lazy operator set-up happens here
            self.call((1.0, 1e-10))
        counts = _split_counts(n_ops, [share for _, share in MATFREE_RTOLS])
        return _shuffled(rng, [
            [(_amplitude(rng), rtol) for _ in range(k)]
            for (rtol, _), k in zip(MATFREE_RTOLS, counts)])

    def n_items(self, op) -> int:
        return 1

    def call(self, op):
        amplitude, rtol = op
        u = self.problem_cls(self.mesh, f=amplitude).solve(
            solver="matrix-free", rtol=rtol)
        return u, None, None

    def check(self, op, u) -> int:
        """Dirichlet rows exact, interior residual within 2x the asked
        tolerance (CG stops its recurrence residual at
        ``max(rtol*|b|, atol=1e-12)``)."""
        amplitude, rtol = op
        self.digest.update(np.ascontiguousarray(u).tobytes())
        res = float(np.linalg.norm(self.A_free @ u - amplitude * self.b_free))
        ok = res <= 2.0 * max(rtol * amplitude * self.b_norm, 1e-12)
        return int(not (ok and np.all(u[~self.free] == 0.0)))

    def finish(self) -> dict:
        return {"output_digest": self.digest.hexdigest(), "stats": {}}

    def backend_slice(self, backend: str, calls: int) -> tuple:
        """Seconds per map-based apply under ``backend``."""
        from repro.core.matvec import MapBasedMatVec
        from repro.kernels import use_backend

        u = np.linspace(0.0, 1.0, self.mesh.n_nodes)
        with use_backend(backend):
            mv = MapBasedMatVec(self.mesh)
            mv(u)
            t0 = _clock()
            for _ in range(calls):
                mv(u)
            return "core.matvec.map_apply", (_clock() - t0) / calls


# -- traversal_apply ----------------------------------------------------------------

#: (sphere radius, base level, boundary level, share of the applies):
#: three meshes of 120, 560 and 848 elements whose apply times are > 1.6x
#: apart
TRAVERSAL_MESHES = ((0.2, 2, 3, 0.4), (0.12, 3, 4, 0.35), (0.2, 3, 4, 0.25))


class TraversalApply:
    """The paper's traversal MATVEC through the default backend."""

    name = "traversal_apply"
    base_ops = 150

    def setup(self, seed: int, n_ops: int) -> list:
        from repro.core import matvec

        # looked up on the module at call time, where the traced pass
        # rebinds it
        self.matvec = matvec
        self.meshes = [_carved_sphere_mesh(radius, base, boundary)
                       for radius, base, boundary, _ in TRAVERSAL_MESHES]
        self.references = [matvec.MapBasedMatVec(m) for m in self.meshes]
        self.digest = hashlib.sha256()
        rng = _rng(seed, 7)
        for k, mesh in enumerate(self.meshes):  # builds the traversal plans
            self.call((k, rng.standard_normal(mesh.n_nodes)))
        counts = _split_counts(n_ops, [m[-1] for m in TRAVERSAL_MESHES])
        return _shuffled(rng, [
            [(k, rng.standard_normal(self.meshes[k].n_nodes))
             for _ in range(count)] for k, count in enumerate(counts)])

    def n_items(self, op) -> int:
        return 1

    def call(self, op):
        k, u = op
        return self.matvec.traversal_matvec(self.meshes[k], u), None, None

    def check(self, op, w) -> int:
        k, u = op
        self.digest.update(np.ascontiguousarray(w).tobytes())
        ref = self.references[k](u)
        err = float(np.linalg.norm(w - ref)) / float(np.linalg.norm(ref))
        return int(not err <= 1e-10)

    def finish(self) -> dict:
        return {"output_digest": self.digest.hexdigest(), "stats": {}}

    def backend_slice(self, backend: str, calls: int) -> tuple:
        """Seconds per traversal apply on the largest mesh under
        ``backend``."""
        from repro.kernels import use_backend

        k = len(self.meshes) - 1
        op = (k, np.linspace(0.0, 1.0, self.meshes[k].n_nodes))
        with use_backend(backend):
            self.call(op)
            t0 = _clock()
            for _ in range(calls):
                self.call(op)
            return "core.matvec.traversal", (_clock() - t0) / calls


WORKLOADS = {cls.name: cls for cls in
             (ColdSolve, ServeHot, FleetZipf, MatfreeSolve, TraversalApply)}
