"""The in-process solver service: facade, synchronous client, workload.

:class:`SolverService` composes the serving stack — typed requests
(:mod:`repro.serve.api`), the content-addressed artifact cache
(:mod:`repro.serve.cache`), fingerprint batching
(:mod:`repro.serve.batcher`) and the deterministic virtual-clock
scheduler (:mod:`repro.serve.scheduler`) — behind two calls::

    svc = SolverService(cache_bytes=64 << 20, max_batch=8)
    for req in workload:
        svc.submit(req)        # → Rejected on admission refusal
    responses = svc.drain()    # completion order
    svc.stream_digest          # sha256 chain over response digests

Every completed response folds its canonical digest into a running
**stream digest** in completion order; replaying an identical request
stream reproduces it bit for bit (the CI smoke step runs the demo
workload twice and diffs the digests).  Per-request observability:
``serve.request`` spans, ``serve.requests{status=…}`` counters, a
``serve.latency_ticks`` histogram and a ``serve.queue_depth`` gauge.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.nodes import EmptyMeshError
from ..obs import EventLog, Histogram
from ..obs import add as obs_add
from ..obs import observe as obs_observe
from ..obs import set_gauge, span
from ..resilience.faults import ArtifactCorruption, SolverBreakdown
from .api import Rejected, SolveRequest, SolveResponse
from .batcher import build_entry, ensure_factor, solve_batch
from .cache import ArtifactCache
from .scheduler import (
    BrownoutPolicy,
    PendingItem,
    Scheduler,
    VirtualClock,
    cost_build,
    cost_factor,
    cost_solve,
)

__all__ = ["SolverService", "SolverClient", "demo_workload"]


class SolverService:
    """Deterministic in-process solver-as-a-service facade.

    ``fault_injector(request, retries)`` is the resilience hook: called
    before each batch member executes, it may raise
    :class:`~repro.resilience.faults.SolverBreakdown` to exercise the
    retry-with-backoff path (the serve analogue of
    :class:`repro.resilience.faults.FaultSchedule`).  Real Krylov
    breakdowns surface through the same path.
    """

    def __init__(self, *, cache_bytes: int = 256 << 20,
                 max_pending: int = 128, max_batch: int = 8,
                 max_retries: int = 2, backoff: int = 1000,
                 fault_injector=None, name: str | None = None,
                 recorder=None, brownout: BrownoutPolicy | None = None,
                 clock: VirtualClock | None = None):
        self.name = name
        self.cache = ArtifactCache(cache_bytes, name=name)
        self.scheduler = Scheduler(
            max_pending=max_pending, max_batch=max_batch,
            max_retries=max_retries, backoff=backoff,
        )
        #: a fleet shard substitutes its slowdown-scaling clock here;
        #: default is the plain monotonic tick counter
        self.clock = VirtualClock() if clock is None else clock
        self.fault_injector = fault_injector
        self.responses: list[SolveResponse] = []
        self.latency = Histogram()
        self.batches = 0
        self.batched_requests = 0
        self._status_counts: dict[str, int] = {}
        self._stream = hashlib.sha256()
        #: flight recorder (:class:`repro.obs.EventLog`), shared with the
        #: scheduler; ``recorder=None`` is a disabled log
        self.recorder = EventLog.of(recorder)
        self.scheduler.recorder = self.recorder
        self.scheduler.shard = name
        #: monotonic batch counter — unlike ``self.batches`` it also
        #: counts batches that died in a breakdown, so every dispatched
        #: batch gets a distinct ``bid`` in the event stream
        self._batch_seq = 0
        #: observer called with every finalized response — the fleet
        #: layer hangs its durable completion log and digests here
        self.on_response = lambda resp: None
        #: deadline-aware brownout policy (None = never shed/degrade)
        self.brownout = brownout
        #: external overload signal (the fleet raises it while circuit
        #: breakers are open and survivors absorb rerouted traffic)
        self.pressure = False
        #: exactly-once hook: ``completion_guard(item, kind)`` is
        #: consulted before any terminal disposition of a pending item
        #: (kind ∈ solve/failed/expire/shed — mark-if-first — or retry
        #: — peek only).  Returning False suppresses the response
        #: silently: the item's delivery instance already completed on
        #: another shard (hedge race, duplicated handoff).
        self.completion_guard = lambda item, kind: True

    # -- submission ------------------------------------------------------

    def submit(self, request: SolveRequest, *,
               t_submit: int | None = None) -> SolveResponse | None:
        """Admit a request.  Returns ``None`` on acceptance or a typed
        :class:`Rejected` (already finalized into the stream) when the
        queue is full.  ``t_submit`` overrides the recorded submission
        tick (fleet arrivals trail the shard clock when it is busy)."""
        _, rejected = self.submit_item(request, t_submit=t_submit)
        return rejected

    def submit_item(self, request: SolveRequest, *,
                    t_submit: int | None = None, instance: int = -1
                    ) -> tuple[PendingItem | None, SolveResponse | None]:
        """:meth:`submit` variant returning the admitted pending item.

        The fleet uses the item handle for hedging and exactly-once
        bookkeeping; ``instance`` is the fleet-assigned delivery id.
        Returns ``(item, None)`` on admission or ``(None, rejected)``
        on backpressure.
        """
        request.validate()
        rid = request.digest
        arrival = self.clock.now if t_submit is None else int(t_submit)
        self.recorder.emit(
            "submit", rid, tick=arrival, shard=self.name,
            pde=request.pde, priority=request.priority,
            deadline=request.deadline,
        )
        item = self.scheduler.submit(request, self.clock,
                                     t_submit=t_submit, instance=instance)
        if item is None:
            self.recorder.emit(
                "reject", rid, tick=self.clock.now,
                shard=self.name, reason="queue_full",
                depth=self.scheduler.depth,
            )
            rej = Rejected(
                rid, "queue_full", pde=request.pde,
                t_submit=arrival, t_done=self.clock.now,
            )
            self._finalize(rej)
            return None, rej
        self.recorder.emit(
            "admit", rid, tick=self.clock.now,
            shard=self.name, depth=self.scheduler.depth,
        )
        set_gauge("serve.queue_depth", self.scheduler.depth)
        return item, None

    # -- the serving loop ------------------------------------------------

    def step(self) -> list[SolveResponse]:
        """One scheduling round: expire what is overdue, run one batch.

        The fleet's discrete-event loop interleaves many shards by
        stepping each one batch at a time; :meth:`drain` is just
        ``step`` until empty."""
        done: list[SolveResponse] = []
        shed: list[PendingItem] = []
        if self.brownout is not None:
            shed = self.scheduler.shed_overload(
                self.clock, self.brownout, pressure=self.pressure
            )
        batch, expired = self.scheduler.next_batch(self.clock)
        for it in expired:
            if not self.completion_guard(it, "expire"):
                continue
            self.recorder.emit(
                "reject", it.digest, tick=self.clock.now,
                shard=self.name, reason="deadline_exceeded",
                retries=it.retries,
            )
            done.append(self._finalize(Rejected(
                it.digest, "deadline_exceeded", pde=it.request.pde,
                t_submit=it.t_submit, t_done=self.clock.now,
                retries=it.retries,
            )))
        for it in shed:
            if not self.completion_guard(it, "shed"):
                continue
            self.recorder.emit(
                "shed", it.digest, tick=self.clock.now,
                shard=self.name, depth=self.scheduler.depth,
                priority=it.request.priority,
            )
            obs_add("serve.shed", 1)
            done.append(self._finalize(Rejected(
                it.digest, "shed", pde=it.request.pde,
                t_submit=it.t_submit, t_done=self.clock.now,
                retries=it.retries,
            )))
        set_gauge("serve.queue_depth", self.scheduler.depth)
        if batch:
            done.extend(self._run_batch(batch))
        return done

    def drain(self) -> list[SolveResponse]:
        """Run the event loop until the queue is empty; returns the
        responses completed by this call, in completion order."""
        done: list[SolveResponse] = []
        while self.scheduler.depth:
            done.extend(self.step())
        return done

    def ready_time(self) -> int | None:
        """Earliest virtual tick this service could act (see
        :meth:`repro.serve.scheduler.Scheduler.ready_time`)."""
        return self.scheduler.ready_time(self.clock)

    def _resolve_entry(self, request: SolveRequest, bid: str = ""):
        """Resolve the request's cache entry: L1 lookup, else
        :meth:`_cold_entry`.

        Returns ``(entry, hit)``.  ``bid`` is the dispatching batch's
        id; cache/build events are batch-scoped and join every member's
        timeline through it."""
        try:
            entry = self.cache.lookup(request.mesh_digest, request.batch_key)
        except ArtifactCorruption as exc:
            # the cache already evicted + quarantined the entry: record
            # the detection and take the miss path, so corruption costs
            # one rebuild, never a wrong solution
            self._record_quarantine(request, bid, exc)
            entry = None
        if entry is not None:
            self.recorder.emit(
                "cache_hit", request.digest, tick=self.clock.now,
                shard=self.name, tier="l1", bid=bid, ticks=0,
            )
            return entry, True
        self.recorder.emit(
            "cache_miss", request.digest, tick=self.clock.now,
            shard=self.name, tier="l1", bid=bid,
        )
        return self._cold_entry(request, bid)

    def _cold_entry(self, request: SolveRequest, bid: str):
        """The step after an L1 miss; the shard adapter hook.

        Returns ``(entry inserted into L1, hit)``.  The base service
        knows one tier: build, advancing the clock by the build cost.
        The fleet's shard override consults the shared second tier
        first."""
        entry = build_entry(request)
        ticks = cost_build(entry.mesh.n_elem)
        self.clock.advance(ticks)
        self.recorder.emit(
            "build", request.digest, tick=self.clock.now,
            shard=self.name, bid=bid, ticks=ticks,
            n_elem=entry.mesh.n_elem,
        )
        return self.cache.insert(request.mesh_digest, entry), False

    def _record_quarantine(self, request: SolveRequest, bid: str,
                           exc: ArtifactCorruption) -> None:
        """The event pair of one failed digest re-verification."""
        self.recorder.emit(
            "corrupt_detect", request.digest, tick=self.clock.now,
            shard=self.name, bid=bid, tier=exc.tier, key=exc.key,
        )
        self.recorder.emit(
            "quarantine", request.digest, tick=self.clock.now,
            shard=self.name, bid=bid, key=exc.key,
        )

    def _run_batch(self, batch: list[PendingItem]) -> list[SolveResponse]:
        req0, rid0 = batch[0].request, batch[0].digest
        out: list[SolveResponse] = []
        self._batch_seq += 1
        bid = f"{self.name or 'serve'}#b{self._batch_seq}"
        # brownout degrade decision at batch formation: queue depth
        # (batch included) past the watermark, or external pressure
        degraded = False
        tol_scale = 1.0
        if self.brownout is not None and self.brownout.degrades(
                self.scheduler.depth + len(batch), pressure=self.pressure):
            degraded = True
            tol_scale = self.brownout.degrade_tol_factor
        with span("serve.batch", pde=req0.pde) as bsp:
            t_start = self.clock.now
            for it in batch:
                self.recorder.emit(
                    "batch_form", it.digest, tick=t_start,
                    shard=self.name, bid=bid, size=len(batch),
                )
            if degraded:
                for it in batch:
                    self.recorder.emit(
                        "degrade", it.digest, tick=t_start,
                        shard=self.name, bid=bid, tol_scale=tol_scale,
                    )
                obs_add("serve.degraded", len(batch))
            try:
                entry, hit = self._resolve_entry(req0, bid)
                factor, built = ensure_factor(entry, req0)
            except EmptyMeshError:
                bsp.event("empty_mesh")
                return self._fail_batch(batch, "empty_mesh", bid)
            if built:
                ticks = cost_factor(entry.mesh.n_nodes)
                self.clock.advance(ticks)
                self.cache.enforce_budget(protect=entry.fingerprint)
                self.recorder.emit(
                    "factor", rid0, tick=self.clock.now,
                    shard=self.name, bid=bid, ticks=ticks,
                )
            try:
                if self.fault_injector is not None:
                    for it in batch:
                        self.fault_injector(it.request, it.retries)
                for it in batch:
                    self.recorder.emit(
                        "solve_start", it.digest, tick=self.clock.now,
                        shard=self.name, bid=bid,
                    )
                outcome = solve_batch(
                    factor, [it.request for it in batch],
                    tol_scale=tol_scale,
                )
            except SolverBreakdown as exc:
                bsp.event("solver_breakdown",
                          reason=getattr(exc, "reason", "breakdown"))
                obs_add("serve.breakdowns", 1)
                return self._handle_breakdown(batch)
            self.recorder.emit(
                "solve_exec", rid0, tick=self.clock.now,
                shard=self.name, bid=bid, columns=len(batch),
                matvecs=outcome.matvecs, pde=factor.kind,
            )
            self.clock.advance(cost_solve(
                entry.mesh.n_nodes, outcome.matvecs, len(batch)
            ))
            bsp.add("requests", len(batch))
            bsp.add("cache_hit", int(hit))
            self.batches += 1
            self.batched_requests += len(batch)
            for j, it in enumerate(batch):
                if not self.completion_guard(it, "solve"):
                    continue  # a copy already won the hedge race
                reason = outcome.reasons[j]
                status = "ok" if reason in ("converged", "direct") else "failed"
                resp = SolveResponse(
                    request_digest=it.digest, status=status,
                    pde=it.request.pde, reason=reason, cache_hit=hit,
                    batch_size=len(batch),
                    iterations=outcome.iterations[j],
                    residual=outcome.residuals[j],
                    solution_digest=outcome.digest(j),
                    t_submit=it.t_submit, t_start=t_start,
                    t_done=self.clock.now, retries=it.retries,
                    degraded=degraded,
                )
                out.append(self._finalize(resp, bid=bid))
        return out

    def _fail_batch(self, batch: list[PendingItem], reason: str,
                    bid: str = "") -> list[SolveResponse]:
        """One typed ``failed`` response per batch member."""
        out = []
        for it in batch:
            if not self.completion_guard(it, "failed"):
                continue
            out.append(self._finalize(SolveResponse(
                request_digest=it.digest, status="failed",
                pde=it.request.pde, reason=reason,
                t_submit=it.t_submit, t_start=self.clock.now,
                t_done=self.clock.now, retries=it.retries,
            ), bid=bid))
        return out

    def _handle_breakdown(self, batch: list[PendingItem]
                          ) -> list[SolveResponse]:
        """Retry-with-backoff on SolverBreakdown, typed failure when
        the retry budget is spent."""
        out = []
        for it in batch:
            if it.retries >= self.scheduler.max_retries:
                out.extend(self._fail_batch([it], "retries_exhausted"))
            else:
                if not self.completion_guard(it, "retry"):
                    continue  # instance already completed elsewhere
                self.scheduler.requeue(it, self.clock)
                obs_add("serve.retries", 1)
        set_gauge("serve.queue_depth", self.scheduler.depth)
        return out

    # -- response stream -------------------------------------------------

    def _finalize(self, resp: SolveResponse,
                  bid: str = "") -> SolveResponse:
        self.recorder.emit(
            "complete", resp.request_digest, tick=resp.t_done,
            shard=self.name, status=resp.status, reason=resp.reason,
            t_submit=resp.t_submit, retries=resp.retries,
            pde=resp.pde, batch_size=resp.batch_size, bid=bid,
            degraded=resp.degraded,
        )
        self.responses.append(resp)
        self._stream.update(resp.digest.encode())
        self._status_counts[resp.status] = (
            self._status_counts.get(resp.status, 0) + 1
        )
        self.latency.observe(resp.latency)
        with span("serve.request", merge=True) as rsp:
            rsp.add("requests", 1)
            rsp.add("latency_ticks", resp.latency)
        obs_add("serve.requests", 1, status=resp.status)
        obs_observe("serve.latency_ticks", resp.latency)
        self.on_response(resp)
        return resp

    @property
    def stream_digest(self) -> str:
        """sha256 chained over response digests in completion order —
        the single value that certifies a deterministic replay."""
        return self._stream.hexdigest()

    def stats(self) -> dict:
        mean_batch = (
            self.batched_requests / self.batches if self.batches else 0.0
        )
        return {
            "responses": len(self.responses),
            "status": dict(sorted(self._status_counts.items())),
            "batches": self.batches,
            "mean_batch_size": round(mean_batch, 3),
            "clock_ticks": self.clock.now,
            "latency_ticks": self.latency.summary(),
            "cache": self.cache.stats(),
            "stream_digest": self.stream_digest,
        }


class SolverClient:
    """Synchronous convenience wrapper: submit one request, drain, and
    return that request's response."""

    def __init__(self, service: SolverService):
        self.service = service

    def solve(self, request: SolveRequest) -> SolveResponse:
        rejected = self.service.submit(request)
        if rejected is not None:
            return rejected
        digest = request.digest
        completed = self.service.drain()
        matches = [r for r in completed if r.request_digest == digest]
        if not matches:  # pragma: no cover - drain always resolves the queue
            raise RuntimeError(f"request {digest[:12]}… was never completed")
        return matches[-1]


def demo_workload(n: int = 30, seed: int = 0,
                  base_level: int = 2, boundary_level: int = 3
                  ) -> list[SolveRequest]:
    """A deterministic mixed workload: a few discretizations × three
    PDE kinds × per-request RHS amplitudes and priorities.

    Used by the ``serve-demo`` CLI, the throughput bench and the replay
    tests; the same ``(n, seed)`` always generates byte-identical
    requests.
    """
    disk = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3}
    small_disk = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.2}
    channel = {"shape": "box", "lo": (0.0, 0.0), "hi": (4.0, 1.0),
               "domain_hi": (4.0, 4.0), "scale": 4.0}
    templates = [
        dict(geometry=disk, pde="poisson"),
        dict(geometry=small_disk, pde="poisson"),
        dict(geometry=disk, pde="sbm"),
        dict(geometry=channel, pde="transport",
             velocity=(1.0, 0.0), kappa=0.05, dt=0.2, steps=2),
        dict(geometry=small_disk, pde="poisson"),
        dict(geometry=disk, pde="poisson"),
    ]
    rng = np.random.default_rng(seed)
    reqs = []
    for i in range(n):
        t = templates[i % len(templates)]
        reqs.append(SolveRequest(
            base_level=base_level, boundary_level=boundary_level,
            f=round(float(rng.uniform(0.5, 2.0)), 6),
            priority=int(rng.integers(0, 3)),
            **t,
        ))
    return reqs
