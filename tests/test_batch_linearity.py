"""A batch solves the unit problems its requests are linear in, once.

Every factor kind returns *unit responses* and ``solve_batch`` forms each
request as a combination of the ones it has a non-zero coefficient on,
element-wise — so a response's bits are a function of the request, not
of the batch it rode in.  That is what lets the factor keep its nominal
unit responses: a unit problem is solved once per factor, not per batch."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.resilience.faults import FaultSchedule, SolverBreakdown
from repro.serve import SolverService, SolveRequest, batcher
from repro.serve.api import solution_digest
from repro.serve.batcher import build_entry, ensure_factor, solve_batch
from repro.solvers import system
from repro.solvers.krylov import KrylovResult

from .test_flightrec import demo_fleet

pytestmark = pytest.mark.serve

DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3}
TEMPLATES = {
    "poisson": dict(geometry=DISK, pde="poisson"),
    "sbm": dict(geometry=DISK, pde="sbm"),
    "transport": dict(geometry=DISK, pde="transport", velocity=(1.0, 0.5),
                      kappa=0.05, dt=0.2, steps=3),
    "amr": dict(geometry=DISK, pde="amr", amr_cycles=2, amr_theta=0.4),
}
HAS_G = ("poisson", "sbm")


def _req(pde, f=1.0, g=0.0, **kw):
    return SolveRequest(**{**dict(base_level=2, boundary_level=3, f=f,
                                  g=g if pde in HAS_G else 0.0),
                           **TEMPLATES[pde], **kw})


def _fresh(pde, **kw):
    """A factor nothing has been solved on yet."""
    req = _req(pde, **kw)
    factor, built = ensure_factor(build_entry(req), req)
    assert built and factor.kind == pde and factor.units == {}
    return factor


@pytest.fixture(scope="module")
def factors():
    """Shared, so its memo fills as tests run: not for counting solves."""
    return {pde: _fresh(pde) for pde in TEMPLATES}


def _column(out, j):
    return (out.solutions[:, j].tobytes(), out.iterations[j],
            out.residuals[j], out.reasons[j])


def _columns(out):
    return [_column(out, j) for j in range(out.solutions.shape[1])]


_amplitude = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-8, 1e8]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


# -- batch invariance -------------------------------------------------------


@pytest.mark.parametrize("pde", list(TEMPLATES))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_column_is_a_function_of_its_request_not_of_its_batch(
        factors, pde, data):
    factor = factors[pde]
    pairs = data.draw(st.lists(st.tuples(_amplitude, _amplitude),
                               min_size=1, max_size=8))
    reqs = [_req(pde, f, g) for f, g in pairs]
    solo = [_column(solve_batch(factor, [r]), 0) for r in reqs]
    whole = solve_batch(factor, reqs)
    assert whole.solutions.shape == (factor.n_nodes, len(reqs))
    assert [_column(whole, j) for j in range(len(reqs))] == solo
    # shuffled, and a sub-sample: same bits, position by position
    order = data.draw(st.permutations(range(len(reqs))))
    keep = order[:data.draw(st.integers(1, len(reqs)))]
    for picked in (order, keep):
        out = solve_batch(factor, [reqs[i] for i in picked])
        assert [_column(out, j) for j in range(len(picked))] == [
            solo[i] for i in picked]


def test_service_responses_do_not_depend_on_max_batch():
    rng = np.random.default_rng(3)
    kinds = ["poisson", "poisson", "sbm", "transport"]
    reqs = [_req(kinds[i % 4], f=round(float(rng.uniform(-2.0, 2.0)), 3),
                 g=float(rng.integers(-1, 2)), priority=int(rng.integers(0, 3)))
            for i in range(24)]
    assert len({r.digest for r in reqs}) == 24

    def run(max_batch):
        svc = SolverService(max_batch=max_batch)
        for r in reqs:
            assert svc.submit(r) is None
        done = svc.drain()
        assert len(done) == 24 and all(r.ok for r in done)
        return svc, {r.request_digest: (r.solution_digest, r.iterations,
                                        r.residual, r.reason) for r in done}

    one, by_one = run(1)
    eight, by_eight = run(8)
    assert by_one == by_eight
    assert one.stats()["batches"] == 24 and eight.stats()["batches"] < 12


# -- what a batch solves -----------------------------------------------------


def _count_units(monkeypatch, factor):
    calls = []
    unit = factor.unit
    monkeypatch.setattr(
        factor, "unit",
        lambda term, rtol: calls.append(term) or unit(term, rtol))
    return calls


@pytest.mark.parametrize("pde", list(TEMPLATES))
def test_a_unit_problem_is_solved_once_whatever_the_batch_size(
        pde, monkeypatch):
    factor = _fresh(pde)
    calls = _count_units(monkeypatch, factor)
    reqs = [_req(pde, f) for f in (1.5, -2.0, 0.25, 4.0, 1.5, 3.0, 0.5, 7.0)]
    out = solve_batch(factor, reqs)
    assert calls == ["f"] and list(factor.units) == ["f"]
    # ... and once per factor: the next batch reads the stored response,
    # and reports what the first one did, matvecs included
    again = solve_batch(factor, reqs)
    one = solve_batch(factor, reqs[:1])
    assert calls == ["f"]
    assert _columns(again) == _columns(out) and again.matvecs == out.matvecs
    with pytest.raises(ValueError, match="read-only"):
        factor.units["f"].u[0] = 1.0
    # the model's matvec count is the batch's, not k times it
    assert out.matvecs == one.matvecs
    assert out.iterations == [one.iterations[0]] * 8
    u = out.solutions
    assert np.array_equal(u[:, 1] * 1.5, u[:, 0] * -2.0)


@pytest.mark.parametrize("pde", list(TEMPLATES))
def test_all_zero_batch_solves_nothing_and_is_exact(factors, pde, monkeypatch):
    factor = factors[pde]
    calls = _count_units(monkeypatch, factor)
    out = solve_batch(factor, [_req(pde, 0.0), _req(pde, -0.0)])
    assert calls == [] and out.matvecs == 0
    assert not out.solutions.any() and out.solutions.shape[1] == 2
    assert out.iterations == [0, 0] and out.residuals == [0.0, 0.0]
    assert out.reasons == ["direct", "direct"]
    # through the service an all-zero request is an ok response
    svc = SolverService()
    svc.submit(_req(pde, 0.0))
    (resp,) = svc.drain()
    assert resp.ok and resp.reason == "direct" and resp.iterations == 0


@pytest.mark.parametrize("pde", HAS_G)
def test_only_the_member_with_boundary_data_sees_u_g(pde, monkeypatch):
    factor = _fresh(pde)
    calls = _count_units(monkeypatch, factor)
    u_f = solve_batch(factor, [_req(pde, 1.0)])
    assert calls == ["f"]  # a batch without boundary data never solves u_g
    u_g = solve_batch(factor, [_req(pde, 0.0, 1.0)])
    assert np.array_equal(u_g.solutions[factor.system.bc.fixed, 0],
                          np.ones(factor.system.bc.fixed.sum()))
    reqs = [_req(pde, 2.0), _req(pde, 0.0), _req(pde, -1.0, 3.0),
            _req(pde, 0.5), _req(pde, 0.0, -2.0)]
    out = solve_batch(factor, reqs)
    assert calls == ["f", "g"]  # each solved by the batch that first rode it
    assert out.matvecs == u_f.matvecs + u_g.matvecs
    f_only, g_only = _column(u_f, 0), _column(u_g, 0)
    # members 0 and 3 ride u_f alone: u_g's iterations, residual and bits
    # never reach them; member 4 rides u_g alone; member 1 rides nothing
    for j, r in ((0, reqs[0]), (3, reqs[3])):
        assert out.solutions[:, j].tobytes() == (
            0.0 + r.f * u_f.solutions[:, 0]).tobytes()
        assert out.iterations[j] == f_only[1]
        assert out.residuals[j] == abs(r.f) * f_only[2]
    assert out.iterations[4] == g_only[1]
    assert out.residuals[4] == 2.0 * g_only[2]
    assert not out.solutions[:, 1].any() and out.reasons[1] == "direct"
    # the mixed member: both units, iteration count the larger one's
    assert out.iterations[2] == max(f_only[1], g_only[1])
    assert out.residuals[2] == 1.0 * f_only[2] + 3.0 * g_only[2]
    want = 0.0 + -1.0 * u_f.solutions[:, 0]
    want += 3.0 * u_g.solutions[:, 0]
    assert out.solutions[:, 2].tobytes() == want.tobytes()


def test_mixed_request_meets_the_per_term_tolerance():
    """true residual ≤ reported residual ≤ tol·(|f|‖b_unit‖ + |g|‖lift‖)
    for a pair whose two parts nearly cancel in the interior — on a mesh
    large enough that CG stops at its tolerance, not at round-off."""
    fine = dict(base_level=3, boundary_level=5)
    first = _req("poisson", **fine)
    factor, _ = ensure_factor(build_entry(first), first)
    bc, Aff = factor.system.bc, factor.system.op
    free = bc.free_idx
    u_f = solve_batch(factor, [first]).solutions[:, 0]
    f = 3.0
    g = -f * float(u_f[free].mean())  # u_g ≡ 1: cancels the mean
    norm_a = abs(Aff).sum(axis=1).max()
    for req in (_req("poisson", f, g, **fine), _req("poisson", f, **fine),
                _req("poisson", 0.0, g, **fine),
                _req("poisson", f, g, tol=1e-6, **fine)):
        out = solve_batch(factor, [req])
        u = out.solutions[:, 0]
        assert np.array_equal(u[bc.fixed], np.full(bc.fixed.sum(), req.g))
        rhs = req.f * factor.b_unit[free] - req.g * factor.lift
        true = float(np.linalg.norm(Aff @ u[free] - rhs))
        bound = req.tol * (abs(req.f) * np.linalg.norm(factor.b_unit[free])
                           + abs(req.g) * np.linalg.norm(factor.lift))
        # the bound is exact arithmetic's; forming f·u_f + g·u_g and
        # re-evaluating the residual each round once
        round_off = 4 * np.finfo(float).eps * norm_a * np.linalg.norm(u[free])
        assert out.iterations[0] > 5 and out.reasons[0] == "converged"
        assert 0.0 < out.residuals[0] <= bound
        assert true <= out.residuals[0] + round_off
        assert round_off < 0.01 * out.residuals[0]
    mixed = solve_batch(factor, [_req("poisson", f, g, **fine)])
    assert abs(float(mixed.solutions[free, 0].mean())) < 1e-9


# -- a unit solve that breaks fails the whole batch --------------------------


def _break_u_g(monkeypatch, factor, times):
    """``cg`` reports a breakdown on u_g's solve, the first ``times`` times."""
    real, solved, broken = system.cg, [], []

    def cg(A, b, **kw):
        res = real(A, b, **kw)
        solved.append(kw["rtol"])
        if len(broken) < times and np.array_equal(b, -factor.lift):
            broken.append(kw["rtol"])
            return KrylovResult(res.x, 3, res.residual, False, 4, "breakdown")
        return res

    monkeypatch.setattr(system, "cg", cg)
    return solved, broken


_MIXED = [("poisson", 1.0), ("poisson", 2.0), ("poisson", 0.5, 1.0)]


def test_breakdown_in_a_unit_solve_fails_the_whole_batch(monkeypatch):
    factor = _fresh("poisson")
    reqs = [_req(*a) for a in _MIXED]
    solved, broken = _break_u_g(monkeypatch, factor, times=99)
    with pytest.raises(SolverBreakdown) as exc:
        solve_batch(factor, reqs)
    assert exc.value.reason == "breakdown" and len(broken) == 1
    # the broken unit is not stored, so the next batch solves it again;
    # u_f, solved before u_g broke, is
    assert list(factor.units) == ["f"]
    with pytest.raises(SolverBreakdown):
        solve_batch(factor, reqs)
    assert len(broken) == 2 and len(solved) == 3
    # without the member that needs u_g the batch is untouched
    assert solve_batch(factor, reqs[:2]).reasons == ["converged"] * 2
    # through the service: the members are retried together, then failed
    svc = SolverService(max_retries=1, backoff=10)
    for r in reqs:
        svc.submit(r)
    done = svc.drain()
    assert sorted((r.status, r.reason, r.retries) for r in done) == [
        ("failed", "retries_exhausted", 1)] * 3
    assert len(broken) == 4 and len(solved) == 6


def test_the_retry_after_a_breakdown_is_a_real_second_attempt(monkeypatch):
    factor = _fresh("poisson")
    reqs = [_req(*a) for a in _MIXED]
    solved, broken = _break_u_g(monkeypatch, factor, times=1)
    svc = SolverService(max_retries=1, backoff=10)
    for r in reqs:
        svc.submit(r)
    done = svc.drain()
    assert [(r.status, r.retries) for r in done] == [("ok", 1)] * 3
    assert len(broken) == 1 and len(solved) == 3  # u_f once, u_g twice
    # ... and answers what a factor that never broke answers
    clean = solve_batch(factor, reqs)
    assert {r.request_digest: r.solution_digest for r in done} == {
        r.digest: clean.digest(j) for j, r in enumerate(reqs)}


@pytest.mark.parametrize("pde", list(TEMPLATES))
def test_a_non_finite_unit_is_not_stored(pde, monkeypatch):
    factor, req = _fresh(pde), _req(pde, 2.0)
    unit, poisoned = factor.unit, []

    def nan_once(term, rtol):
        out = unit(term, rtol)
        if not poisoned:
            poisoned.append(term)
            out.u = out.u * np.nan
        return out

    monkeypatch.setattr(factor, "unit", nan_once)
    with pytest.raises(SolverBreakdown) as exc:
        solve_batch(factor, [req])
    assert exc.value.reason == "nonfinite" and factor.units == {}
    assert solve_batch(factor, [req]).reasons[0] in ("direct", "converged")
    assert list(factor.units) == ["f"]


@pytest.mark.parametrize("pde", ["sbm", "transport"])
def test_non_finite_unit_response_is_a_breakdown(pde, monkeypatch):
    req = _req(pde, 1.0)
    factor, _ = ensure_factor(build_entry(req), req)
    holder = factor.system if pde == "sbm" else factor.problem
    name = "lu" if pde == "sbm" else "_lu"
    lu = getattr(holder, name)

    class _NaNLU:
        def solve(self, b):
            return lu.solve(b) * np.nan

    monkeypatch.setattr(holder, name, _NaNLU())
    with pytest.raises(SolverBreakdown) as exc:
        solve_batch(factor, [req, _req(pde, 2.0)])
    assert exc.value.reason == "nonfinite"


# -- what the memo is not: a different tolerance, unaccounted bytes ----------


@pytest.mark.parametrize("pde", list(TEMPLATES))
def test_a_degraded_batch_solves_per_batch_and_leaves_the_memo_alone(
        pde, monkeypatch):
    # poisson on a mesh where CG stops at its tolerance, not at round-off
    kw = dict(base_level=3, boundary_level=5) if pde == "poisson" else {}
    factor = _fresh(pde, **kw)
    reqs = [_req(pde, 2.0, 1.0, **kw), _req(pde, -0.5, **kw)]
    terms = ["f", "g"] if pde in HAS_G else ["f"]
    calls = _count_units(monkeypatch, factor)
    loose = solve_batch(factor, reqs, tol_scale=1e6)
    assert calls == terms and factor.units == {}
    before = solve_batch(factor, reqs)
    stored = {t: id(u) for t, u in factor.units.items()}
    assert calls == terms * 2 and list(stored) == terms
    # only the nominal batch seals what it stores, each unit under its digest
    sealed = factor.sealed()
    assert len(sealed) == len(terms)
    assert all(seal == solution_digest(u) for u, seal in sealed)
    for _ in range(2):
        assert _columns(solve_batch(factor, reqs, tol_scale=1e6)) == (
            _columns(loose))
    assert calls == terms * 4
    assert {t: id(u) for t, u in factor.units.items()} == stored
    assert _columns(solve_batch(factor, reqs)) == _columns(before)
    assert calls == terms * 4
    if pde == "poisson":  # the one kind a tolerance reaches: flagged, different
        assert loose.iterations[0] < before.iterations[0]
        assert loose.solutions.tobytes() != before.solutions.tobytes()


@pytest.mark.parametrize("pde", list(TEMPLATES))
def test_cache_bytes_do_not_depend_on_what_has_been_solved(pde):
    from repro.serve.cache import ArtifactCache

    req = _req(pde, 2.0, 1.0)
    cache = ArtifactCache()
    entry = cache.insert(req.mesh_digest, build_entry(req))
    bare = entry.nbytes
    factor, _ = ensure_factor(entry, req)
    built = (entry.nbytes, cache.nbytes)
    assert built == (bare + factor.nbytes, bare + factor.nbytes)
    solve_batch(factor, [req])
    assert (entry.nbytes, cache.nbytes) == built
    # the unit responses were in the factor's bytes from the start
    held = sum(u.u.nbytes for u in factor.units.values())
    assert 0 < held <= factor.nbytes
    assert held == 8 * factor.n_nodes * len(factor.units)


# -- the same invariant, seen from the fleet ---------------------------------


@pytest.mark.fleet
def test_fleet_digest_does_not_depend_on_how_requests_were_batched():
    """Shard count, stealing and a mid-run kill all change which requests
    share a batch; none of them changes a response's core any more."""
    runs = [demo_fleet(4, seed=0, n_requests=40),
            demo_fleet(4, seed=0, n_requests=40,
                       chaos=FaultSchedule().crash(2500, "shard0")),
            demo_fleet(2, seed=0, n_requests=40, stealing=False),
            demo_fleet(1, seed=0, n_requests=40)]
    assert len({len(f.responses) for f in runs}) == 1
    assert len({f.fleet_digest for f in runs}) == 1
    # ... while the batches themselves did differ
    sizes = [sorted(r.batch_size for r in f.responses) for f in runs]
    assert len({tuple(s) for s in sizes}) > 1


@pytest.mark.fleet
def test_the_memo_survives_a_demotion_to_l2_and_dies_with_a_quarantine(
        monkeypatch):
    from repro.fleet import FleetService
    from repro.fleet.workload import Arrival
    from repro.resilience.faults import corrupt_in_place

    fleet = FleetService(2, cache_bytes=1, stealing=False)  # L1 holds one key
    a = _req("poisson")
    home = fleet.ring.route(a.mesh_digest)
    b = next(r for r in (_req("poisson", geometry={**DISK, "radius": 0.1 + i / 100})
                         for i in range(19))
             if fleet.ring.route(r.mesh_digest) == home)
    shard, solved = fleet.shards[home], []
    unit = batcher._PoissonFactor.unit
    monkeypatch.setattr(
        batcher._PoissonFactor, "unit",
        lambda self, term, rtol: solved.append(term) or unit(self, term, rtol))

    def serve(req):
        resp = fleet.run([Arrival(fleet.now + 1, req)])[-1]
        assert resp.ok and resp.request_digest == req.digest
        return resp

    serve(a)
    serve(b)
    assert solved == ["f", "f"] and shard.cache.peek(a.mesh_digest) is None
    # evicted to L2 and fetched back: the same entry, the same factor, no solve
    assert serve(_req("poisson", 2.0)).cache_hit and shard.l2_fetches == 1
    assert solved == ["f", "f"]
    # a flipped bit in the stored u_f: both tiers quarantine it, the
    # rebuilt key starts empty
    (u, _), = shard.cache.peek(a.mesh_digest).factors[a.batch_key].sealed()
    u.flags.writeable = True
    corrupt_in_place(u, (0,))
    assert not serve(_req("poisson", 3.0)).cache_hit
    assert solved == ["f", "f", "f"] and len(shard.cache.quarantined) == 1
