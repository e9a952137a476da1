"""The sharded serving fleet: discrete-event loop, digests, fail-over.

:class:`FleetService` composes the fleet subsystem — consistent-hash
routing (:mod:`repro.fleet.router`), per-shard
:class:`~repro.serve.service.SolverService` instances behind a shared
second-tier cache (:mod:`repro.fleet.tiercache`), work stealing
(:mod:`repro.fleet.steal`) and checkpointed fail-over
(:mod:`repro.fleet.failover`) — into one deterministic discrete-event
simulation::

    fleet = FleetService(4, seed-independent config...)
    fleet.run(synthetic_workload(200, seed=7))
    fleet.stream_digest   # chained digest, fleet completion order
    fleet.fleet_digest    # order-free digest over the response set

**The event loop.**  Each shard runs its own virtual clock; the fleet
tracks a global event time ``now`` and repeatedly executes the
earliest of four event kinds — a scheduled shard crash, the next
workload arrival, the next due hedge, or the earliest shard-ready
execution step — with ties broken crash < arrival < hedge < exec.
Arrivals are canonically sorted by ``(tick, request digest)`` before
the loop starts, so *any* submission order of the same workload yields
the same simulation (the shuffle test asserts this on both digests).

**Exactly-once completion.**  Every delivery gets a fleet-assigned
*instance* id.  Hedged re-dispatch, duplicated handoffs and fail-over
replay can put several live copies of one instance on the fleet; a
completion guard installed on every shard consults the instance
registry before any terminal disposition, so exactly one response per
delivery ever reaches the stream — the winner — while losers are
suppressed and still-queued copies are cancelled.  Suppressed and
cancelled copies are logged as completed in their shard's durable log,
keeping the fail-over rebuild algebra consistent.

**Defense layers** (:mod:`repro.fleet.defense`).  ``hedge=`` enables
speculative re-dispatch of deliveries stuck past a p95-derived delay;
``breaker=`` gives each shard a closed/open/half-open circuit breaker
that routes arrivals (and steal targets) around unhealthy shards;
``brownout=`` (a :class:`repro.serve.scheduler.BrownoutPolicy`) lets
overloaded shards shed their lowest-priority tail and degrade solve
tolerances, with external *pressure* asserted fleet-wide while any
breaker is open.

**Faults** (:mod:`repro.resilience.faults`).  ``chaos=`` installs a
seeded :class:`~repro.resilience.faults.FaultSchedule` (``None`` is an
empty one): per-shard slowdown windows (via :class:`ShardClock`), stall
windows, shard crashes (a kill is a scheduled ``crash``), cache-artifact
bit corruption and duplicated/dropped handoffs — all deterministic,
which is what lets :mod:`repro.chaos.invariants` assert bit-level
properties of faulted runs.

**Two digests, two guarantees.**  Responses fold a **core document**
(request digest, status, reason, PDE, solution digest, iterations,
residual, degraded flag — no timing, no cache/batch metadata) into
both digests.  ``stream_digest`` chains core digests in fleet
completion order and certifies deterministic replay of an identical
run (the CI smoke step runs the demo twice and compares).
``fleet_digest`` hashes the *sorted* core digests, so it is
completion-order-free — the value a killed-and-recovered run must
reproduce bit-for-bit against the failure-free run even though
fail-over reshuffles completion order.

**Fail-over scope.**  Solutions are bit-deterministic per *batch*, so
the fleet digest survives a kill exactly when the replacement shard
reforms the batches the dead shard would have formed.  That holds for
kills after the last arrival with stealing quiescent (the certified
scenario in the tests, demo and bench); for arbitrary kill points the
fleet still guarantees exactly-once completion of every admitted
request (no loss, no duplicates), which the early-kill and chaos tests
assert.
"""

from __future__ import annotations

import hashlib
import json

from ..obs import EventLog, Histogram
from ..obs import add as obs_add
from ..resilience.faults import (
    ArtifactCorruption,
    FaultSchedule,
    corrupt_in_place,
)
from ..serve.api import SolveRequest, SolveResponse
# unused here since the shard stopped building on its own; kept because
# benchmarks/e2e/test_harness.py (not editable from a program change)
# asserts its shims follow this binding
from ..serve.batcher import build_entry  # noqa: F401
from ..serve.scheduler import BrownoutPolicy, VirtualClock
from ..serve.service import SolverService
from .defense import BreakerPolicy, CircuitBreaker, HedgePolicy
from .failover import FailoverEvent, ShardCheckpointer, ShardLog, rebuild_queue
from .router import HashRing
from .steal import StealEvent, plan_steals
from .tiercache import TierCache
from .workload import Arrival

__all__ = ["ShardClock", "FleetShard", "FleetService", "core_doc",
           "core_digest"]


def core_doc(resp: SolveResponse) -> dict:
    """The replay-invariant core of a response: *what* was computed,
    never *when* or *where*.  Timing (submit/start/done ticks), cache
    hits, batch sizes and retry counts legitimately differ between a
    failure-free run and a killed-and-recovered one; the solution
    bits may not.  ``degraded`` is part of the core: a browned-out
    solve is a *different answer* and must digest differently."""
    return {
        "request_digest": resp.request_digest,
        "status": resp.status,
        "reason": resp.reason,
        "pde": resp.pde,
        "solution_digest": resp.solution_digest,
        "iterations": resp.iterations,
        "residual": resp.residual,
        "degraded": resp.degraded,
    }


def core_digest(resp: SolveResponse) -> str:
    return hashlib.sha256(json.dumps(
        core_doc(resp), sort_keys=True, separators=(",", ":")
    ).encode()).hexdigest()


class ShardClock(VirtualClock):
    """A :class:`~repro.serve.scheduler.VirtualClock` that scales every
    advance by the fault schedule's slowdown factor for its shard.

    Work whose execution *starts* inside a slowdown window pays the
    full factor — the discrete-event analogue of a degraded host, and
    still a pure function of (schedule, history)."""

    def __init__(self, schedule: FaultSchedule, shard: str):
        super().__init__()
        self.schedule = schedule
        self.shard = shard

    def advance(self, ticks: int) -> int:
        factor = self.schedule.slow_factor(self.shard, self.now)
        return super().advance(int(ticks) * factor)


class FleetShard(SolverService):
    """One fleet shard: a :class:`SolverService` wired into the shared
    second tier.

    The override point is :meth:`_cold_entry` — between the private
    L1 miss and a cold build, the shard consults the fleet's
    :class:`TierCache`, paying the (much cheaper) transfer cost when
    another shard already built the mesh.  Cold builds write through
    to L2, and L1 byte-budget victims demote into L2 instead of being
    dropped, so each discretization is built at most once fleet-wide.

    The shard runs on a :class:`ShardClock` and counts its L1 lookups;
    a ``corrupt_cache`` fault flips one bit of the first array the due
    lookup will read (:meth:`~repro.serve.cache.CacheEntry.reads`: a
    sealed unit response or the base) *before* the lookup — the L1
    re-verification of that read set then catches the damage,
    quarantines the entry and degrades to a rebuild.  An L2 fetch
    re-hashes the whole entry, base and every sealed unit, since the
    tiers share entry objects: one that fails is quarantined from L2
    and rebuilt as well.
    """

    def __init__(self, shard_id: str, l2: TierCache, *, chaos=None, **kwargs):
        chaos = FaultSchedule.of(chaos)
        super().__init__(name=shard_id, clock=ShardClock(chaos, shard_id),
                         **kwargs)
        self.shard_id = shard_id
        self.l2 = l2
        self.cache.on_evict = l2.publish_entry
        self.l2_fetches = 0
        self.chaos = chaos
        self._lookups = 0

    def _resolve_entry(self, request: SolveRequest, bid: str = ""):
        self._lookups += 1
        if self.chaos.take("corrupt_cache", self._lookups, self.shard_id):
            victim = self.cache.peek(request.mesh_digest)
            if victim is not None:
                # the first array this lookup will read; a sealed unit
                # is read-only, so lift the flag for the flip only
                arr = victim.reads(request.batch_key)[0].arrays[0]
                writeable = arr.flags.writeable
                arr.flags.writeable = True
                corrupt_in_place(arr, (self.chaos.seed, self._lookups))
                arr.flags.writeable = writeable
        return super()._resolve_entry(request, bid)

    def _cold_entry(self, request: SolveRequest, bid: str):
        fetched = self.l2.fetch(request.mesh_digest)
        if fetched is not None:
            try:
                fetched.verify(tier="l2")
            except ArtifactCorruption as exc:
                self.l2.quarantine(fetched)
                self._record_quarantine(request, bid, exc)
                fetched = None
        if fetched is not None:
            ticks = self.l2.fetch_cost(fetched)
            self.clock.advance(ticks)
            self.l2_fetches += 1
            self.recorder.emit(
                "cache_hit", request.digest, tick=self.clock.now,
                shard=self.name, tier="l2", bid=bid, ticks=ticks,
            )
            return self.cache.insert(request.mesh_digest, fetched), True
        self.recorder.emit(
            "cache_miss", request.digest, tick=self.clock.now,
            shard=self.name, tier="l2", bid=bid,
        )
        entry, _ = super()._cold_entry(request, bid)
        self.l2.publish(request.mesh_digest, entry)
        return entry, False

    def stats(self) -> dict:
        out = super().stats()
        out["l2_fetches"] = self.l2_fetches
        return out


class FleetService:
    """N deterministic shards behind a consistent-hash ring.

    One instance simulates one fleet run: build it (``chaos=`` may
    schedule faults, a mid-run shard crash among them), :meth:`run` a
    workload — in one call or in chunks — then read the digests and
    :meth:`stats`.  All shard construction parameters are
    identical across shards, so any fleet with the same configuration
    and workload replays bit-identically.
    """

    def __init__(self, n_shards: int = 4, *, cache_bytes: int = 64 << 20,
                 l2_bytes: int = 512 << 20, max_pending: int = 256,
                 max_batch: int = 8, steal_threshold: int = 6,
                 steal_latency: int = 200, steal_max: int | None = None,
                 stealing: bool = True, ckpt_dir=None, ckpt_interval: int = 8,
                 l2_promote_after: int = 4, l2_window: int = 32,
                 recorder=None, hedge: HedgePolicy | None = None,
                 breaker: BreakerPolicy | None = None,
                 brownout: BrownoutPolicy | None = None, chaos=None):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.shard_ids = [f"shard{i}" for i in range(int(n_shards))]
        self.chaos = FaultSchedule.of(chaos)
        # a fault on a shard that does not exist would never fire
        self._require_shards(self.chaos.affected_shards(), "chaos fault names")
        self.l2 = TierCache(l2_bytes, promote_after=l2_promote_after,
                            window=l2_window)
        self.ring = HashRing(self.shard_ids)
        #: flight recorder shared by the fleet loop, every shard and
        #: every breaker — one :class:`repro.obs.EventLog` receives the
        #: entire causal history of the run (route → shard → batch →
        #: response); ``recorder=None`` is a disabled log
        self.recorder = EventLog.of(recorder)
        #: defense-layer policies (all optional; None disables)
        self.hedge = hedge
        self.breaker_policy = breaker
        self.breakers: dict[str, CircuitBreaker] = (
            {sid: CircuitBreaker(sid, breaker, self.recorder)
             for sid in self.shard_ids}
            if breaker is not None else {}
        )
        self._shard_kwargs = dict(
            cache_bytes=cache_bytes, max_pending=max_pending,
            max_batch=max_batch, recorder=self.recorder, brownout=brownout,
        )
        self.steal_threshold = int(steal_threshold)
        self.steal_latency = int(steal_latency)
        self.steal_max = steal_max
        self.stealing = bool(stealing)
        self.shards: dict[str, FleetShard] = {}
        self.logs: dict[str, ShardLog] = {
            sid: ShardLog() for sid in self.shard_ids
        }
        self.checkpointers: dict[str, ShardCheckpointer] = {
            sid: ShardCheckpointer(sid, ckpt_dir, interval=ckpt_interval)
            for sid in self.shard_ids
        }
        for sid in self.shard_ids:
            self.shards[sid] = self._make_shard(sid)
        #: global event time: the tick of the last event the loop ran
        self.now = 0
        self.responses: list[SolveResponse] = []
        self.latency = Histogram()
        self.steal_events: list[StealEvent] = []
        self.failover_events: list[FailoverEvent] = []
        self.routed: dict[str, int] = {sid: 0 for sid in self.shard_ids}
        self._status_counts: dict[str, int] = {}
        self._stream = hashlib.sha256()
        self._core_digests: list[str] = []
        #: delivery-instance registry: index = instance id; each record
        #: tracks the request, its original submission tick, whether a
        #: terminal response was produced, and how many hedges fired
        self._instances: list[dict] = []
        #: fleet-wide latency decomposition feeding the hedge delay
        self._wait_hist = Histogram()
        self._service_hist = Histogram()
        self._completions = 0
        self._handoffs = 0
        self.hedges_fired = 0
        self.hedge_wins = 0

    # -- shard lifecycle --------------------------------------------------

    def _require_shards(self, sids, what: str) -> None:
        unknown = sorted(set(sids) - set(self.shard_ids))
        if unknown:
            raise ValueError(
                f"{what} unknown shard {unknown[0]!r} "
                f"(fleet has {self.shard_ids[0]}..{self.shard_ids[-1]})"
            )

    def _make_shard(self, sid: str) -> FleetShard:
        shard = FleetShard(sid, self.l2, chaos=self.chaos,
                           **self._shard_kwargs)
        shard.on_response = self._make_on_response(sid)
        shard.completion_guard = self._make_completion_guard(sid)
        return shard

    def _make_on_response(self, sid: str):
        def on_response(resp: SolveResponse) -> None:
            self.logs[sid].completed.append(resp.request_digest)
            self._fleet_finalize(sid, resp)
        return on_response

    def _make_completion_guard(self, sid: str):
        """Exactly-once arbitration for multi-copy deliveries.

        ``kind`` semantics (see ``SolverService.completion_guard``):
        ``solve``/``failed``/``expire``/``shed`` are terminal —
        mark-if-first, suppress otherwise; ``retry`` only peeks (a
        requeue is not terminal, but a copy whose instance already
        completed elsewhere is disposed of instead of backed off).
        Every disposal without a response appends the digest to the
        shard's durable completion log so fail-over rebuilds stay
        consistent.
        """
        def guard(item, kind: str) -> bool:
            iid = item.instance
            if iid < 0 or iid >= len(self._instances):
                return True
            rec = self._instances[iid]
            if rec["completed"]:
                self.logs[sid].completed.append(item.digest)
                return False
            if kind == "retry":
                return True
            rec["completed"] = True
            cancelled = self._cancel_copies(iid)
            if rec["hedges"] > 0 and kind in ("solve", "failed"):
                self.hedge_wins += 1
                self.recorder.emit(
                    "hedge_win", item.digest,
                    tick=self.shards[sid].clock.now, shard=sid,
                    cancelled=cancelled,
                )
            return True
        return guard

    def _cancel_copies(self, iid: int) -> int:
        """Remove every still-queued copy of a delivery instance
        fleet-wide (hedge losers, duplicated handoffs), logging each as
        completed on its shard."""
        n = 0
        for osid in sorted(self.shards):
            for it in self.shards[osid].scheduler.cancel_instance(iid):
                self.logs[osid].completed.append(it.digest)
                n += 1
        return n

    def _fleet_finalize(self, sid: str, resp: SolveResponse) -> None:
        self.responses.append(resp)
        d = core_digest(resp)
        self._core_digests.append(d)
        self._stream.update(d.encode())
        self._status_counts[resp.status] = (
            self._status_counts.get(resp.status, 0) + 1
        )
        self.latency.observe(resp.latency)
        if resp.status in ("ok", "failed"):
            self._completions += 1
            self._wait_hist.observe(max(resp.t_start - resp.t_submit, 0))
            self._service_hist.observe(max(resp.t_done - resp.t_start, 0))
            if self.breakers:
                self.breakers[sid].record(
                    resp.status == "ok", self.shards[sid].clock.now
                )
        obs_add("fleet.responses", 1, shard=sid, status=resp.status)

    def _update_pressure(self) -> None:
        """Assert brownout pressure on every shard while any breaker is
        open: survivors are absorbing rerouted traffic and should shed
        earlier."""
        if not self.breakers:
            return
        pressure = any(b.state == "open" for b in self.breakers.values())
        for sh in self.shards.values():
            sh.pressure = pressure

    # -- the discrete-event loop ------------------------------------------

    def run(self, arrivals: list[Arrival]) -> list[SolveResponse]:
        """Simulate the fleet over a workload; returns all responses in
        fleet completion order.

        Each pending ``crash`` of the fault schedule fires once: the
        shard's process state is discarded and :meth:`_fail_over`
        rebuilds a replacement from the checkpoint and logs.  Event
        ties resolve crash < arrival < hedge < exec, and arrivals are
        canonically re-sorted, so the simulation is a pure function of
        (config, workload multiset, fault schedule).  A crash naming an
        unknown shard raises ``ValueError`` before anything is
        delivered.
        """
        kills = sorted((f.at, f.who) for f in self.chaos.pending()
                       if f.kind == "crash")
        self._require_shards((sid for _, sid in kills), "cannot kill")
        queue = sorted(arrivals, key=lambda a: (a.tick, a.request.digest))
        i = 0
        while True:
            self._update_pressure()
            next_arrival = queue[i].tick if i < len(queue) else None
            ready: dict[str, int] = {}
            for sid, sh in self.shards.items():
                rt = sh.ready_time()
                if rt is not None:
                    ready[sid] = self.chaos.stall_until(sid, rt)
            next_exec = min(ready.values()) if ready else None
            kill_tick = kills[0][0] if kills else None
            next_hedge = self._next_hedge_tick()
            events = [t for t in (kill_tick, next_arrival, next_hedge,
                                  next_exec) if t is not None]
            if not events:
                break
            t = min(events)
            self.now = max(self.now, t)
            if kill_tick == t:
                tick, sid = kills.pop(0)
                self.chaos.take("crash", tick, sid)  # one-shot: fires once
                self._fail_over(sid)
                continue
            if next_arrival == t:
                while i < len(queue) and queue[i].tick == t:
                    self._deliver(queue[i])
                    i += 1
            elif next_hedge == t:
                self._fire_hedges(t)
            else:
                sid = min(s for s, rt in ready.items() if rt == t)
                shard, log = self.shards[sid], self.logs[sid]
                if t > shard.ready_time():
                    # a stalled shard resumes at the window's end; its
                    # clock must not pretend the pause never happened
                    shard.clock.jump_to(t)
                for _ in shard.step():
                    self.checkpointers[sid].on_response(shard, log)
            self._maybe_steal()
        return self.responses

    def _deliver(self, arrival: Arrival) -> None:
        """Route one arrival to its ring owner — or, when the owner's
        circuit breaker refuses, to the first willing ring successor.
        Jumping the target's clock to the arrival tick is safe: the
        loop never delivers an arrival while any shard has strictly
        earlier executable work."""
        req = arrival.request
        req.validate()  # a refused request leaves no log or registry entry
        owner = self.ring.route(req.mesh_digest)
        sid = owner
        if self.breakers:
            for cand in self.ring.successors(req.mesh_digest):
                if self.breakers[cand].allow(arrival.tick):
                    sid = cand
                    break
            else:
                sid = owner  # every breaker open: the owner it is
        attrs = {"key": req.mesh_digest}
        if sid != owner:
            attrs["rerouted_from"] = owner
        rid = req.digest
        self.recorder.emit("route", rid, tick=arrival.tick, shard=sid,
                           **attrs)
        iid = len(self._instances)
        rec = {"request": req, "digest": rid,
               "t_submit": int(arrival.tick), "completed": False,
               "hedges": 0}
        self._instances.append(rec)
        shard = self.shards[sid]
        shard.clock.jump_to(arrival.tick)
        self.logs[sid].record_arrival(arrival.tick, req, instance=iid)
        item, _ = shard.submit_item(req, t_submit=arrival.tick, instance=iid)
        if item is None:
            rec["completed"] = True  # rejected at admission: terminal
        self.routed[sid] += 1
        obs_add("fleet.requests", 1, shard=sid)

    # -- hedged requests --------------------------------------------------

    def _hedge_delay(self) -> int:
        """Current hedge delay: conservative until the histograms have
        ``min_samples`` completions, then p95-derived."""
        p = self.hedge
        if self._completions < p.min_samples:
            return p.initial_delay
        observed = (self._wait_hist.quantile(0.95)
                    + self._service_hist.quantile(0.95))
        return max(p.min_delay, int(p.multiplier * observed))

    def _next_hedge_tick(self) -> int | None:
        """Earliest tick at which any live delivery is due a hedge."""
        if self.hedge is None or len(self.shards) < 2:
            return None
        delay = self._hedge_delay()
        best = None
        for rec in self._instances:
            if rec["completed"] or rec["hedges"] >= self.hedge.max_hedges:
                continue
            due = rec["t_submit"] + delay * (rec["hedges"] + 1)
            if best is None or due < best:
                best = due
        return best

    def _fire_hedges(self, t: int) -> None:
        delay = self._hedge_delay()
        for iid, rec in enumerate(self._instances):
            if rec["completed"] or rec["hedges"] >= self.hedge.max_hedges:
                continue
            if rec["t_submit"] + delay * (rec["hedges"] + 1) <= t:
                self._fire_one_hedge(iid, rec, t)

    def _fire_one_hedge(self, iid: int, rec: dict, t: int) -> None:
        """Speculatively re-dispatch one overdue delivery to the ring
        successor of the shard holding its primary copy.  The attempt
        is consumed even when no copy or target is found, guaranteeing
        loop progress."""
        rec["hedges"] += 1
        src = None
        src_item = None
        for sid in sorted(self.shards):
            for it in self.shards[sid].scheduler.pending:
                if it.instance == iid and not it.hedge:
                    src, src_item = sid, it
                    break
            if src is not None:
                break
        if src is None:
            return  # the primary is mid-dispatch or already gone
        key = rec["request"].mesh_digest
        dst = None
        for cand in self.ring.successors(key):
            if cand == src:
                continue
            if self.breakers and not self.breakers[cand].allow(t):
                continue
            dst = cand
            break
        if dst is None:
            return
        not_before = t + self.hedge.transfer_latency
        item = self.shards[dst].scheduler.adopt(
            src_item.request, self.shards[dst].clock,
            t_submit=src_item.t_submit, retries=src_item.retries,
            not_before=not_before, instance=iid, hedge=True,
        )
        if item is None:
            return  # destination backpressured; attempt still consumed
        self.logs[dst].record_arrival(
            src_item.t_submit, src_item.request, src_item.retries,
            instance=iid, hedge=True,
        )
        self.recorder.emit(
            "hedge", src_item.digest, tick=t, shard=dst, src=src,
            not_before=not_before,
        )
        self.hedges_fired += 1
        obs_add("fleet.hedges", 1)

    # -- work stealing ----------------------------------------------------

    def _maybe_steal(self) -> None:
        if not self.stealing or len(self.shards) < 2:
            return
        depths = {sid: sh.scheduler.depth for sid, sh in self.shards.items()}
        capacity = {
            sid: sh.scheduler.max_pending - sh.scheduler.depth
            for sid, sh in self.shards.items()
        }
        exclude = ({sid for sid, b in self.breakers.items()
                    if b.state != "closed"}
                   if self.breakers else None)
        plans = plan_steals(depths, threshold=self.steal_threshold,
                            capacity=capacity, max_items=self.steal_max,
                            exclude=exclude)
        # every pairing is logged before the first item moves
        for plan in plans:
            self.recorder.emit("steal_plan", tick=self.now, shard=plan.src,
                               dst=plan.dst, n=plan.n)
        for plan in plans:
            src, dst = self.shards[plan.src], self.shards[plan.dst]
            items = src.scheduler.steal_items(plan.n, src.clock.now)
            if not items:
                continue
            digests = []
            for it in items:
                fault = self.chaos.take("handoff", self._handoffs)
                self._handoffs += 1
                mode = fault.mode if fault else ""
                if mode == "drop":
                    # lost in transit: the copy never departs the
                    # source's durable log and never arrives at the
                    # destination; the source retransmits to itself
                    # after a timeout
                    it.not_before = max(
                        it.not_before, self.now + 2 * self.steal_latency
                    )
                    src.scheduler.pending.append(it)
                    self.recorder.emit(
                        "steal", it.digest, tick=self.now,
                        shard=plan.src, src=plan.src,
                        not_before=it.not_before, fault="drop",
                    )
                    continue
                adopted = dst.scheduler.adopt(
                    it.request, dst.clock, t_submit=it.t_submit,
                    retries=it.retries,
                    not_before=self.now + self.steal_latency,
                    instance=it.instance, hedge=it.hedge,
                )
                if adopted is None:
                    src.scheduler.pending.append(it)
                    continue
                if mode == "dup":
                    # delivered AND kept at the source: two live copies
                    # of one delivery instance — the completion guard
                    # dedups, and the source log keeps its arrival
                    src.scheduler.pending.append(it)
                else:
                    self.logs[plan.src].stolen_away.append(it.digest)
                self.logs[plan.dst].record_arrival(
                    it.t_submit, it.request, it.retries,
                    instance=it.instance, hedge=it.hedge,
                )
                attrs = {"src": plan.src,
                         "not_before": self.now + self.steal_latency}
                if mode == "dup":
                    attrs["fault"] = "dup"
                self.recorder.emit("steal", it.digest, tick=self.now,
                                   shard=plan.dst, **attrs)
                digests.append(it.digest)
            self.steal_events.append(StealEvent(
                tick=self.now, src=plan.src, dst=plan.dst,
                digests=tuple(digests),
            ))
            obs_add("fleet.steals", 1)
            obs_add("fleet.stolen_items", len(digests))

    # -- fail-over --------------------------------------------------------

    def _fail_over(self, sid: str) -> None:
        """Kill ``sid`` and rebuild it from checkpoint + log replay.

        The dead shard's in-memory state (queue, clock, L1 cache) is
        discarded wholesale — recovery may use only the durable
        artifacts: the sealed state checkpoint, the fleet-side logs,
        and the shared L2 (which survives because it lives outside the
        shard).  The replacement inherits the ring slot, so no other
        shard's keyspace moves.  Delivery-instance ids ride through
        the logs, so replayed copies stay under exactly-once
        arbitration; the shard's breaker resets to closed (the
        replacement's health is its own).
        """
        ckpt = self.checkpointers[sid]
        state = ckpt.latest_state()
        self.recorder.emit(
            "failover", tick=self.now, shard=sid,
            ckpt_step=ckpt.step if state is not None else None,
        )
        replay = rebuild_queue(state, self.logs[sid])
        for doc in replay:
            self.recorder.emit(
                "failover_replay", doc["digest"], tick=self.now, shard=sid,
                t_submit=doc["t_submit"], retries=doc["retries"],
            )
        replacement = self._make_shard(sid)
        replacement.clock.jump_to(self.now)
        if state is not None:
            replacement.clock.jump_to(state["clock"])
        for doc in replay:
            replacement.scheduler.adopt(
                SolveRequest.from_doc(doc["request"]), replacement.clock,
                t_submit=doc["t_submit"], retries=doc["retries"],
                instance=doc.get("instance", -1),
                hedge=doc.get("hedge", False),
            )
        self.shards[sid] = replacement
        ckpt.reset_after_failover()
        if self.breakers:
            self.breakers[sid] = CircuitBreaker(
                sid, self.breaker_policy, self.recorder
            )
        survivors = sorted(s for s in self.shards if s != sid)
        event = FailoverEvent(
            tick=self.now, shard_id=sid,
            host=survivors[0] if survivors else None,
            replayed=len(replay),
            ckpt_step=ckpt.step if state is not None else None,
        )
        self.failover_events.append(event)
        obs_add("fleet.failovers", 1)
        obs_add("fleet.replayed_requests", len(replay))

    # -- certification and reporting --------------------------------------

    @property
    def stream_digest(self) -> str:
        """sha256 chained over response core digests in fleet
        completion order — certifies identical replay of an identical
        run (CI runs the demo twice and diffs this)."""
        return self._stream.hexdigest()

    @property
    def fleet_digest(self) -> str:
        """sha256 over the *sorted* response core digests — the
        completion-order-free certificate a recovered run must match
        against the failure-free run."""
        h = hashlib.sha256()
        for d in sorted(self._core_digests):
            h.update(d.encode())
        return h.hexdigest()

    @property
    def makespan(self) -> int:
        """Virtual makespan: the furthest any shard clock advanced."""
        return max(sh.clock.now for sh in self.shards.values())

    def stats(self) -> dict:
        out = {
            "n_shards": len(self.shards),
            "responses": len(self.responses),
            "status": dict(sorted(self._status_counts.items())),
            "routed": dict(self.routed),
            "makespan_ticks": self.makespan,
            "latency_ticks": self.latency.summary(),
            "steals": len(self.steal_events),
            "stolen_items": sum(e.n for e in self.steal_events),
            "failovers": [e.describe() for e in self.failover_events],
            "l2": self.l2.stats(),
            "shards": {sid: sh.stats()
                       for sid, sh in sorted(self.shards.items())},
            "stream_digest": self.stream_digest,
            "fleet_digest": self.fleet_digest,
        }
        if self.hedge is not None or self.breakers:
            out["defense"] = {
                "hedges": self.hedges_fired,
                "hedge_wins": self.hedge_wins,
                "breaker_states": {sid: b.state for sid, b
                                   in sorted(self.breakers.items())},
                "breaker_opens": sum(b.opens
                                     for b in self.breakers.values()),
            }
        if self.chaos.faults:
            out["chaos"] = self.chaos.describe()
        return out
