"""Tests for repro.serve: typed requests, artifact caching, fingerprint
batching, deterministic scheduling and the service facade."""

import numpy as np
import pytest

from repro import obs
from repro.serve import (
    Rejected,
    SolverClient,
    SolverService,
    SolveRequest,
    build_entry,
    demo_workload,
    ensure_factor,
    solve_batch,
)

pytestmark = pytest.mark.serve

DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3}
SMALL_DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.2}
TINY_DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.15}


def _req(**kw):
    kw.setdefault("geometry", DISK)
    kw.setdefault("base_level", 2)
    kw.setdefault("boundary_level", 3)
    return SolveRequest(**kw)


# -- api: canonical digests and validation -----------------------------


def test_request_digest_canonical_across_spellings():
    a = _req(geometry={"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3})
    # ints where floats are meant, list instead of tuple, reordered keys
    b = _req(geometry={"radius": 0.3, "center": [0.5, 0.5], "shape": "sphere"})
    assert a.digest == b.digest
    assert a.mesh_digest == b.mesh_digest
    assert a.batch_key == b.batch_key
    # RHS data changes the request identity but not the mesh/batch keys
    c = _req(f=2.0)
    assert c.digest != a.digest
    assert c.mesh_digest == a.mesh_digest
    assert c.batch_key == a.batch_key
    # tolerance is part of the batch key but not the mesh key
    d = _req(tol=1e-8)
    assert d.mesh_digest == a.mesh_digest
    assert d.batch_key != a.batch_key


def test_request_validation():
    with pytest.raises(ValueError, match="pde"):
        _req(pde="heat").validate()
    with pytest.raises(ValueError, match="shape"):
        _req(geometry={"shape": "torus"}).validate()
    with pytest.raises(ValueError, match="base_level"):
        _req(base_level=5, boundary_level=3).validate()
    with pytest.raises(ValueError, match="radius"):
        _req(geometry={"shape": "sphere", "center": (0.5, 0.5),
                       "radius": -1.0}).validate()
    _req().validate()  # the default request is valid


BOX = {"shape": "box", "lo": (0.0, 0.25), "hi": (1.0, 0.75)}
_DIGEST_DISK = "9bfed230a4c35672f7513b84ae0bec24be12b199b8d523c593599392fc36831d"
_DIGEST_BOX = "91bb6d8bb4dda62d5aefaeb7032b1e506c653c930f1d30366f2fba1f765ceeca"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field, make", [
    ("radius", lambda v: {**DISK, "radius": v}),
    ("center", lambda v: {**DISK, "center": (0.5, v)}),
    ("scale", lambda v: {**DISK, "scale": v}),
    ("scale", lambda v: {**BOX, "scale": v}),
    ("lo", lambda v: {**BOX, "lo": (v, 0.25)}),
    ("hi", lambda v: {**BOX, "hi": (1.0, v)}),
    ("domain_hi", lambda v: {**BOX, "domain_hi": (v, 1.0)}),
])
def test_non_finite_geometry_rejected_by_field(field, make, bad):
    with pytest.raises(ValueError, match=f"geometry {field} must be finite"):
        _req(geometry=make(bad)).validate()
    with pytest.raises(ValueError, match=field):
        _req(geometry=make(bad)).digest
    with pytest.raises(ValueError, match=field):
        SolverClient(SolverService()).solve(_req(geometry=make(bad)))


def test_box_needs_lo_below_hi_and_valid_digests_stand():
    with pytest.raises(ValueError, match="lo must be below hi"):
        _req(geometry={**BOX, "lo": (0.0, 0.75)}).validate()
    with pytest.raises(ValueError, match="lo must be below hi"):
        _req(geometry={**BOX, "lo": (1.5, 0.25)}).validate()
    # pinned at the commit before the finite checks went in
    assert _req().digest == _DIGEST_DISK
    assert _req(geometry=BOX, pde="transport").digest == _DIGEST_BOX


@pytest.mark.parametrize("field, bad", [
    ("p", 1.0), ("p", True), ("base_level", 2.0), ("boundary_level", 3.5),
    ("steps", 1.5), ("amr_cycles", 2.5), ("priority", "high"),
    ("deadline", True), ("deadline", 10.0),
])
def test_integer_fields_refused_by_type(field, bad):
    """A bool, a float or a string where an int is meant is refused up
    front, naming the field — not solved under a second digest, not
    crashed on inside the solve."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverService().submit(_req(**{field: bad}))
    doc = {**_req().to_doc(), field: bad}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolveRequest.from_doc(doc)
    assert _req().digest == _DIGEST_DISK  # valid digests stand


BALL = {"shape": "sphere", "center": (0.5, 0.5, 0.5), "radius": 0.3}


@pytest.mark.parametrize("field, bad", [
    ("dt", {"dt": 0.0}), ("dt", {"dt": -0.1}), ("kappa", {"kappa": -0.01}),
    ("velocity", {"velocity": (1.0,)}),
    ("velocity", {"velocity": (1.0, 0.0), "geometry": BALL}),
])
def test_ill_posed_transport_refused_by_field(field, bad):
    """A transport step with dt <= 0, kappa < 0 or fewer velocity
    components than axes is refused at submit, naming the field: it
    never reaches a factor build inside drain(), where it would take the
    requests queued behind it down.  Other pdes do not read the fields."""
    svc = SolverService()
    with pytest.raises(ValueError, match=field):
        svc.submit(_req(pde="transport", **bad))
    doc = {**_req(pde="transport").to_doc(), **bad}
    with pytest.raises(ValueError, match=field):
        SolveRequest.from_doc(doc)
    _req(**bad).validate()
    svc.submit(_req())
    (resp,) = svc.drain()
    assert resp.status == "ok"
    assert _req(geometry=BOX, pde="transport").digest == _DIGEST_BOX


# -- a carve that leaves no element ---------------------------------------

ALL_CARVED = {"shape": "sphere", "center": (0.5, 0.5, 0.5), "radius": 2.0}


def test_empty_mesh_is_a_typed_failure_not_a_lost_request():
    from repro.core import Domain, EmptyMeshError, build_mesh
    from repro.geometry import SphereCarve
    from repro.obs.events import EventLog

    with pytest.raises(EmptyMeshError, match="empty mesh"):
        build_mesh(Domain(SphereCarve(ALL_CARVED["center"],
                                      ALL_CARVED["radius"])), 2, 3)
    assert issubclass(EmptyMeshError, ValueError)

    log = EventLog()
    svc = SolverService(max_batch=4, recorder=log)
    reqs = [_req(geometry=ALL_CARVED, f=f) for f in (1.0, 2.0, 3.0)]
    for r in reqs:  # one batch: same batch key, three right-hand sides
        assert svc.submit(r) is None
    before = svc.stream_digest
    done = svc.step()
    assert svc.scheduler.depth == 0
    assert sorted(r.request_digest for r in done) == sorted(
        r.digest for r in reqs)
    assert {(r.status, r.reason) for r in done} == {("failed", "empty_mesh")}
    assert svc.stream_digest != before and len(svc.responses) == 3
    completes = [e for e in log.events if e.kind == "complete"]
    assert [e.attrs["reason"] for e in completes] == ["empty_mesh"] * 3
    # the service is usable afterwards, and amr requests fail the same way
    client = SolverClient(svc)
    assert client.solve(_req()).status == "ok"
    amr = client.solve(_req(geometry=ALL_CARVED, pde="amr", amr_cycles=1))
    assert (amr.status, amr.reason) == ("failed", "empty_mesh")
    assert svc.stats()["status"] == {"failed": 4, "ok": 1}


# -- admission control and deadlines -----------------------------------


def test_queue_full_typed_rejection():
    svc = SolverService(max_pending=2)
    assert svc.submit(_req(f=1.0)) is None
    assert svc.submit(_req(f=2.0)) is None
    rej = svc.submit(_req(f=3.0))
    assert isinstance(rej, Rejected)
    assert rej.status == "rejected" and rej.reason == "queue_full"
    # the rejection is part of the response stream
    assert svc.responses[0] is rej
    done = svc.drain()
    assert len(done) == 2 and all(r.ok for r in done)
    assert svc.stats()["status"] == {"ok": 2, "rejected": 1}


def test_deadline_exceeded():
    svc = SolverService(max_batch=4)
    # priority 0 dispatches first and its (cold) batch advances the
    # virtual clock well past the second request's deadline
    svc.submit(_req(priority=0))
    svc.submit(_req(geometry=SMALL_DISK, priority=5, deadline=10))
    done = svc.drain()
    by_reason = {r.reason: r for r in done}
    assert "deadline_exceeded" in by_reason
    rej = by_reason["deadline_exceeded"]
    assert rej.status == "rejected" and rej.t_done > 10


# -- caching ------------------------------------------------------------


@pytest.fixture
def traced():
    obs.disable()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _span_names(spans, out=None):
    out = [] if out is None else out
    for sp in spans:
        out.append(sp.name)
        _span_names(sp.children, out)
        _span_names(list(sp._merged.values()), out)
    return out


def test_cache_hot_request_skips_all_build_work(traced):
    svc = SolverService()
    svc.submit(_req(f=1.0))
    svc.drain()
    cold = _span_names(obs.TRACER.roots)
    assert "build_mesh" in cold and "plan.context_build" in cold
    assert "serve.factor_build" in cold

    obs.reset()
    svc.submit(_req(f=2.0))  # same mesh + batch key, different RHS
    done = svc.drain()
    assert done[0].ok and done[0].cache_hit
    hot = _span_names(obs.TRACER.roots)
    assert "serve.batch" in hot and "serve.solve" in hot
    assert "build_mesh" not in hot
    assert "plan.context_build" not in hot
    assert "serve.factor_build" not in hot
    assert obs.get_value("serve.cache.hits") == 1
    assert svc.cache.hits == 1 and svc.cache.misses == 1


def _spans(spans, name, out=None):
    """Every span called ``name`` in the forest, merged ones included."""
    out = [] if out is None else out
    for sp in spans:
        if sp.name == name:
            out.append(sp)
        _spans(sp.children, name, out)
        _spans(list(sp._merged.values()), name, out)
    return out


@pytest.mark.parametrize("pde", ["poisson", "sbm"])
def test_one_poisson_factor_labels_its_work_by_pde(traced, pde):
    """Nodal and SBM Poisson share one factor class; its solve spans and
    unit-memo counters still carry the request's pde."""
    req = _req(pde=pde, f=1.0, g=1.0)
    factor, _ = ensure_factor(build_entry(req), req)
    assert type(factor).__name__ == "_PoissonFactor" and factor.kind == pde
    solve_batch(factor, [req])
    solve_batch(factor, [req])
    assert [sp.attrs for sp in _spans(obs.TRACER.roots, "serve.solve")] == [
        {"pde": pde}] * 2
    assert obs.get_value("serve.unit.misses", pde=pde) == 2  # u_f and u_g
    assert obs.get_value("serve.unit.hits", pde=pde) == 2
    other = {"poisson": "sbm", "sbm": "poisson"}[pde]
    assert obs.get_value("serve.unit.misses", pde=other) is None


def test_eviction_and_interleaving_determinism():
    # size the budget from a measured entry so exactly ~1 entry fits
    probe = build_entry(_req())
    budget = int(probe.nbytes * 1.5)
    reqs = [
        _req(geometry=g, f=float(f), priority=pr)
        for g, f, pr in [
            (DISK, 1.0, 0), (SMALL_DISK, 1.5, 1), (TINY_DISK, 2.0, 2),
            (DISK, 2.5, 0), (SMALL_DISK, 3.0, 1),
        ]
    ]

    def run(stream):
        svc = SolverService(cache_bytes=budget, max_batch=4)
        for r in stream:
            assert svc.submit(r) is None
        svc.drain()
        return svc

    a = run(reqs)
    b = run(reversed(reqs))
    assert len(a.cache.eviction_log) > 0
    assert a.cache.eviction_log == b.cache.eviction_log
    assert a.stream_digest == b.stream_digest
    da = {r.request_digest: r.digest for r in a.responses}
    db = {r.request_digest: r.digest for r in b.responses}
    assert da == db


def test_stream_replay_bit_identical():
    def run():
        svc = SolverService(max_batch=8)
        for r in demo_workload(18, seed=1):
            svc.submit(r)
        svc.drain()
        return svc

    a, b = run(), run()
    assert a.stream_digest == b.stream_digest
    assert [r.digest for r in a.responses] == [r.digest for r in b.responses]


# -- batching ------------------------------------------------------------


def test_batch_solution_matches_single_request_solves():
    reqs = [_req(f=float(f), g=float(g))
            for f, g in [(1.0, 0.0), (2.5, 0.0), (0.5, 1.0), (3.0, -2.0)]]
    entry = build_entry(reqs[0])
    factor, built = ensure_factor(entry, reqs[0])
    assert built
    block = solve_batch(factor, reqs)
    assert block.solutions.shape[1] == len(reqs)
    for j, r in enumerate(reqs):
        single = solve_batch(factor, [r])
        scale = max(np.linalg.norm(single.solutions[:, 0]), 1.0)
        err = np.linalg.norm(block.solutions[:, j] - single.solutions[:, 0])
        assert err <= 1e-12 * scale


def test_service_batches_shared_fingerprints():
    svc = SolverService(max_batch=8)
    for f in (1.0, 2.0, 3.0, 4.0):
        svc.submit(_req(f=f))
    svc.submit(_req(geometry=SMALL_DISK, f=5.0))
    done = svc.drain()
    sizes = {r.request_digest: r.batch_size for r in done}
    assert sorted(sizes.values()) == [1, 4, 4, 4, 4]
    assert svc.stats()["batches"] == 2


def test_transport_batch_matches_transport_problem_run():
    from repro.fem.transport import TransportProblem

    req = SolveRequest(
        geometry=DISK, pde="transport", base_level=2, boundary_level=3,
        velocity=(1.0, 0.5), kappa=0.05, dt=0.2, steps=3, f=1.7,
    )
    entry = build_entry(req)
    factor, _ = ensure_factor(entry, req)
    out = solve_batch(factor, [req, req])
    mesh = entry.mesh
    prob = TransportProblem(
        mesh, np.tile([1.0, 0.5], (mesh.n_nodes, 1)), kappa=0.05, dt=0.2,
        dirichlet_mask=mesh.dirichlet_mask, dirichlet_value=0.0,
    )
    ref = prob.run(np.zeros(mesh.n_nodes), 3, source=1.7)
    for j in range(2):
        assert np.linalg.norm(out.solutions[:, j] - ref) <= 1e-12 * max(
            np.linalg.norm(ref), 1.0
        )


def test_client_solves_all_pde_kinds():
    svc = SolverService()
    client = SolverClient(svc)
    r1 = client.solve(_req(pde="poisson", f=2.0))
    r2 = client.solve(_req(pde="sbm", f=2.0))
    r3 = client.solve(SolveRequest(
        geometry=DISK, pde="transport", base_level=2, boundary_level=3,
        velocity=(1.0, 0.0), steps=2,
    ))
    assert r1.ok and r1.reason == "converged"
    assert r2.ok and r2.reason == "direct"
    assert r3.ok and r3.reason == "direct"
    # sbm shares the poisson request's mesh entry
    assert r2.cache_hit and r3.cache_hit
    assert len({r1.solution_digest, r2.solution_digest,
                r3.solution_digest}) == 3


# -- retry with backoff --------------------------------------------------


class _FlakyOnce:
    """Raise SolverBreakdown on each request's first attempt only."""

    def __init__(self):
        self.calls = 0

    def __call__(self, request, retries):
        from repro.resilience.faults import SolverBreakdown

        self.calls += 1
        if retries == 0:
            raise SolverBreakdown("injected", "breakdown", "first try fails")


def test_retry_with_backoff_recovers():
    svc = SolverService(fault_injector=_FlakyOnce(), backoff=500)
    svc.submit(_req(f=1.0))
    done = svc.drain()
    assert len(done) == 1
    (r,) = done
    assert r.ok and r.retries == 1
    assert r.t_done >= 500  # the backoff window actually elapsed


def test_retries_exhausted_is_typed_failure():
    def always_fail(request, retries):
        from repro.resilience.faults import SolverBreakdown

        raise SolverBreakdown("injected", "breakdown", "never succeeds")

    svc = SolverService(fault_injector=always_fail, max_retries=1)
    svc.submit(_req())
    done = svc.drain()
    (r,) = done
    assert r.status == "failed" and r.reason == "retries_exhausted"
    assert r.retries == 1
    assert svc.stats()["status"] == {"failed": 1}


# -- deadline edge case (regression) -------------------------------------


def test_deadline_equal_to_current_tick_is_expired():
    """A request whose deadline equals the current tick is already
    missed: the solve takes at least one tick, so dispatching it could
    never finish in time (regression: the old check used a strict
    inequality and dispatched it anyway)."""
    from repro.serve import PendingItem

    item = PendingItem(request=_req(deadline=10), digest="d",
                       t_submit=100, seq=1)
    assert not item.expired(109)
    assert item.expired(110)  # deadline == now: reject, don't dispatch
    assert item.expired(111)


def test_deadline_equal_tick_rejected_through_service():
    svc = SolverService()
    svc.submit(_req(priority=0, deadline=0))
    done = svc.drain()
    (r,) = done
    assert r.status == "rejected" and r.reason == "deadline_exceeded"


# -- per-cache gauges and the step loop ----------------------------------


def test_named_caches_publish_labeled_gauges(traced):
    """Two services with named caches must not overwrite each other's
    byte/entry gauges — fleet-stats reads per-shard cache pressure from
    the ``cache=<name>`` label."""
    a = SolverService(name="shardA")
    b = SolverService(name="shardB")
    a.submit(_req(f=1.0))
    a.drain()
    b.submit(_req(geometry=SMALL_DISK, f=1.0))
    b.drain()
    bytes_a = obs.get_value("serve.cache.bytes", cache="shardA")
    bytes_b = obs.get_value("serve.cache.bytes", cache="shardB")
    assert bytes_a and bytes_b and bytes_a != bytes_b
    assert obs.get_value("serve.cache.entries", cache="shardA") == 1
    assert obs.get_value("serve.cache.misses", cache="shardB") == 1
    # unnamed services keep the label-free series
    c = SolverService()
    c.submit(_req(f=2.0))
    c.drain()
    assert obs.get_value("serve.cache.entries") == 1
    assert a.cache.stats()["name"] == "shardA"


def test_step_loop_equivalent_to_drain():
    def run(stepwise):
        svc = SolverService(max_batch=4)
        for r in demo_workload(10, seed=3):
            svc.submit(r)
        if stepwise:
            done = []
            while svc.scheduler.depth:
                done.extend(svc.step())
        else:
            done = svc.drain()
        return svc, done

    a, da = run(stepwise=True)
    b, db = run(stepwise=False)
    assert [r.digest for r in da] == [r.digest for r in db]
    assert a.stream_digest == b.stream_digest


# -- demo workload -------------------------------------------------------


def test_demo_workload_deterministic_and_mixed():
    a = demo_workload(30, seed=0)
    b = demo_workload(30, seed=0)
    assert [r.digest for r in a] == [r.digest for r in b]
    kinds = {r.pde for r in a}
    assert kinds == {"poisson", "sbm", "transport"}
    assert [r.digest for r in demo_workload(30, seed=1)] != [
        r.digest for r in a
    ]
