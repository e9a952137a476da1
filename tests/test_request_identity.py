"""A request is named once: ``SolveRequest`` is an immutable value whose
canonical geometry and three digests are computed at most once per
instance, and whose solve parameters are finite or refused."""

import copy
import dataclasses
from collections import Counter

import pytest

from repro.fleet import Arrival, FleetService, synthetic_workload
from repro.serve import SolverService, SolveRequest
from repro.serve import api

pytestmark = [pytest.mark.serve, pytest.mark.fleet]

GEOMETRY = {"shape": "sphere", "center": [0.5, 0.5], "radius": 0.3}
CHANNEL = {"shape": "box", "lo": [0.0, 0.0], "hi": [4.0, 1.0],
           "domain_hi": [4.0, 4.0], "scale": 4.0}


def _identity(req):
    return req.digest, req.mesh_digest, req.batch_key, req.to_doc()


# -- immutability -------------------------------------------------------------


@pytest.mark.parametrize("read_first", [False, True])
def test_mutating_the_callers_objects_changes_no_identity(read_first):
    geometry, velocity = copy.deepcopy(CHANNEL), [1.0, 0.0]
    req = SolveRequest(geometry=geometry, pde="transport", velocity=velocity)
    expected = _identity(SolveRequest(
        geometry=copy.deepcopy(CHANNEL), pde="transport", velocity=(1.0, 0.0)))
    if read_first:
        assert _identity(req) == expected
    geometry["scale"] = 8.0
    geometry["hi"][0] = 2.0
    geometry["lo"].append(0.0)
    del geometry["domain_hi"]
    velocity[0] = -3.0
    assert _identity(req) == expected
    req.validate()
    assert req.geometry == CHANNEL and req.velocity == (1.0, 0.0)


def test_a_changed_request_is_a_new_instance_with_its_own_identity():
    req = SolveRequest(geometry=GEOMETRY, f=1.5)
    before = _identity(req)
    looser = dataclasses.replace(req, tol=1e-6)
    assert _identity(looser) == _identity(
        SolveRequest(geometry=GEOMETRY, f=1.5, tol=1e-6))
    assert looser.mesh_digest == req.mesh_digest
    assert looser.batch_key != req.batch_key and looser.digest != req.digest
    back = SolveRequest.from_doc(req.to_doc())
    assert back is not req and _identity(back) == before
    assert _identity(req) == before


def test_documents_handed_out_share_nothing_with_the_request():
    req = SolveRequest(geometry=CHANNEL, pde="transport", velocity=(1.0, 0.0))
    expected = _identity(SolveRequest(
        geometry=CHANNEL, pde="transport", velocity=(1.0, 0.0)))
    for doc in (req.to_doc(), req.mesh_doc(), req.solver_doc()["mesh"]):
        doc["geometry"]["scale"] = 9.0
        doc["geometry"]["hi"].append(7.0)
        doc["geometry"].pop("lo")
    doc = req.to_doc()
    doc["velocity"][0] = 5.0
    doc["f"] = 99.0
    assert _identity(req) == expected
    assert req.mesh_doc()["geometry"] == expected[3]["geometry"]


def test_an_invalid_request_constructs_and_fails_in_validate():
    for kw, match in [
        (dict(geometry="torus"), "geometry must be a dict"),
        (dict(geometry={"shape": "torus"}), "shape"),
        (dict(velocity=None), "velocity"),
        (dict(pde="heat"), "pde"),
    ]:
        req = SolveRequest(**kw)  # never raises
        for _ in range(2):  # the error is not a one-shot
            with pytest.raises(ValueError, match=match):
                req.validate()


# -- non-finite solve parameters ------------------------------------------------

_NAN, _INF = float("nan"), float("inf")
NON_FINITE = [
    ("f", dict(f=_NAN)), ("f", dict(f=_INF)), ("g", dict(g=_NAN)),
    ("tol", dict(tol=_NAN)), ("tol", dict(tol=_INF)),
    ("kappa", dict(pde="transport", kappa=-_INF)),
    ("dt", dict(pde="transport", dt=_NAN)),
    ("velocity", dict(pde="transport", velocity=(1.0, _NAN))),
    ("deadline", dict(deadline=_NAN)), ("deadline", dict(deadline=_INF)),
    ("deadline", dict(deadline=2.5)),
]


@pytest.mark.parametrize("field, kw", NON_FINITE)
def test_non_finite_parameter_refused_by_the_service(field, kw):
    svc = SolverService()
    with pytest.raises(ValueError, match=f"^{field} must be"):
        svc.submit(SolveRequest(geometry=GEOMETRY, **kw))
    # refused at the door: nothing queued, dispatched or retried
    assert svc.scheduler.depth == 0 and svc.responses == []
    assert svc.drain() == [] and svc.clock.now == 0


@pytest.mark.parametrize("field, kw", NON_FINITE)
def test_non_finite_parameter_refused_by_the_fleet(field, kw):
    fleet = FleetService(2)
    good = SolveRequest(geometry=GEOMETRY)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        fleet.run([Arrival(0, good),
                   Arrival(5, SolveRequest(geometry=GEOMETRY, **kw))])
    # the refused arrival reached no shard queue and no fail-over log
    assert [len(log.arrivals) for log in fleet.logs.values()].count(1) == 1
    assert sum(fleet.routed.values()) == 1
    (resp,) = fleet.run([])
    assert resp.ok and resp.request_digest == good.digest


# -- a coefficient on a term the pde does not have ----------------------------

#: transport and amr are linear in ``f`` alone (``api.LINEAR_TERMS``): a
#: non-zero ``g`` used to be solved with boundary value 0 and answered ok
NO_SUCH_TERM = [
    dict(pde="transport", g=2.0),
    dict(pde="transport", g=-1e-300),
    dict(pde="amr", g=0.5, amr_cycles=1),
]


def test_linear_terms_name_every_pde_kind():
    assert set(api.LINEAR_TERMS) == set(api.PDE_KINDS)
    assert all(terms[0] == "f" and set(terms) <= {"f", "g"}
               for terms in api.LINEAR_TERMS.values())
    for pde in api.PDE_KINDS:  # g == 0 (and -0.0) is every kind's default
        SolveRequest(geometry=GEOMETRY, pde=pde).validate()
        SolveRequest(geometry=GEOMETRY, pde=pde, g=-0.0).validate()
    for pde in ("poisson", "sbm"):
        SolveRequest(geometry=GEOMETRY, pde=pde, g=2.0).validate()


@pytest.mark.parametrize("kw", NO_SUCH_TERM)
def test_term_the_pde_lacks_refused_by_the_service(kw):
    svc = SolverService()
    with pytest.raises(ValueError, match=f"^{kw['pde']} requests require g == 0"):
        svc.submit(SolveRequest(geometry=GEOMETRY, **kw))
    assert svc.scheduler.depth == 0 and svc.responses == []
    assert svc.drain() == [] and svc.clock.now == 0


@pytest.mark.parametrize("kw", NO_SUCH_TERM)
def test_term_the_pde_lacks_refused_by_the_fleet(kw):
    fleet = FleetService(2)
    good = SolveRequest(geometry=GEOMETRY)
    with pytest.raises(ValueError, match="requests require g == 0"):
        fleet.run([Arrival(0, good),
                   Arrival(5, SolveRequest(geometry=GEOMETRY, **kw))])
    # the refused arrival reached no shard queue and no fail-over log
    assert [len(log.arrivals) for log in fleet.logs.values()].count(1) == 1
    assert sum(fleet.routed.values()) == 1
    (resp,) = fleet.run([])
    assert resp.ok and resp.request_digest == good.digest


def test_valid_digests_are_where_they_were():
    # pinned at the commit before identity was memoised
    assert SolveRequest().digest == (
        "9bfed230a4c35672f7513b84ae0bec24be12b199b8d523c593599392fc36831d")
    req = SolveRequest(geometry=CHANNEL, pde="transport", velocity=[1, 0],
                       deadline=40, f=2, kappa=0.05)
    assert (req.digest, req.mesh_digest, req.batch_key) == (
        "e9cc9a4111bbe711f59e5ec7e60757837895ce12ecc47de4f020108545f36c34",
        "51b8192cb56cabf438e14d1b3149c97609c77876d71b40cc6b1c955f357904e5",
        "38892e2c13ed5bdd4470e345c77c11a8eb6f0a44fbb8a2cff069f78b6fcdcd88")


# -- computed once: counted, not timed ------------------------------------------

# re-pinned when a batch began solving its unit problems once: solution
# vectors are f·u_f instead of CG on f·b (last bits, <= 5e-16 relative)
# and the reported residual is |f|·(unit residual); nothing counted
# below moved
FLEET_DIGEST = "bb6f86de716f3bde34bf696a0aa145e4f9d1bcce9367bdc8cee7c753b50cd45a"
STREAM_DIGESTS = {
    "shard0": "d81a38eb4a3436ed2bdf2332400f4e869bf6dd385d1fea42b1788215b5f1af08",
    "shard1": "2ec60a81c9bf94edaa9e9dc59cd9baa9e12e2ac1e00a5beabb945ba24305f95a",
}


def _kind(doc: dict) -> str:
    if doc.get("schema") == api.REQ_SCHEMA_ID:
        return "digest"
    if doc.get("schema") == api.RESP_SCHEMA_ID:
        return "response"
    return "batch_key" if "mesh" in doc else "mesh_digest"


def test_fleet_names_each_request_once(monkeypatch):
    hashed, canonicalised = Counter(), Counter()
    sha256, canonical = api._sha256, api.canonical_geometry

    def counting_sha256(doc):
        hashed[_kind(doc)] += 1
        return sha256(doc)

    def counting_canonical(spec):
        canonicalised[id(spec)] += 1  # a request's own snapshot dict
        return canonical(spec)

    n = 200
    arrivals = synthetic_workload(n, seed=11, zipf_s=1.8, mean_gap=30,
                                  burst_gap=4)
    fleet = FleetService(2, cache_bytes=8 << 20, steal_threshold=3,
                         steal_latency=100, stealing=True, ckpt_interval=4)
    monkeypatch.setattr(api, "_sha256", counting_sha256)
    monkeypatch.setattr(api, "canonical_geometry", counting_canonical)
    responses = fleet.run(arrivals)
    monkeypatch.undo()

    assert len(responses) == n and all(r.ok for r in responses)
    # the run did exercise the repeat readers: steals re-log and re-adopt
    # items, every checkpoint documents the whole pending queue
    assert sum(e.n for e in fleet.steal_events) == 13
    assert sum(c.step for c in fleet.checkpointers.values()) == 49
    # every arrival is sorted by digest, routed by mesh digest and batched
    # by batch key, so "n per kind" is "exactly once per instance"
    assert hashed == {"digest": n, "mesh_digest": n, "batch_key": n,
                      "response": n}
    assert len(canonicalised) == n and set(canonicalised.values()) == {1}
    # same bits as the commit that recomputed them on every read
    assert fleet.fleet_digest == FLEET_DIGEST
    assert {sid: sh.stream_digest
            for sid, sh in fleet.shards.items()} == STREAM_DIGESTS
