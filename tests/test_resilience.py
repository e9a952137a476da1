"""Fault injection, checkpoint/restart and self-healing recovery tests.

All tests carry the ``resilience`` marker so CI can run the
fault-injection suite standalone (``pytest -m resilience``).
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from repro import Domain, build_mesh
from repro.core.mesh import build_uniform_mesh
from repro.fem.navier_stokes import NavierStokesProblem
from repro.fem.poisson import PoissonProblem
from repro.geometry import BoxRetain, SphereCarve
from repro.parallel import SimComm, shrink_splits
from repro.resilience import (
    Fault,
    FaultError,
    FaultSchedule,
    MessageCorruption,
    RankFailure,
    SolverBreakdown,
    corrupt_buffer,
)
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointCorruption,
    latest_checkpoint,
    load_checkpoint,
    load_state_checkpoint,
    prune_checkpoints,
    save_checkpoint,
    save_state_checkpoint,
)
from repro.resilience.faults import KINDS, Fault
from repro.resilience.recovery import ResilientNSDriver, resilient_poisson_solve
from repro.solvers import cg, system

from .oracles.collectives import allgather, alltoallv

pytestmark = pytest.mark.resilience


def _drop(sched, src, dst, at_op, silent=False):
    """``sched`` with a dropped ``src -> dst`` message at collective
    ``at_op`` (no product path schedules a message fault)."""
    return sched._add(Fault("drop", at_op, (src, dst), silent=silent))


def _corrupt(sched, src, dst, at_op, silent=False):
    """``sched`` with a corrupted ``src -> dst`` message at ``at_op``."""
    return sched._add(Fault("corrupt", at_op, (src, dst), silent=silent))


@pytest.fixture(scope="module")
def sphere_mesh():
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    return dom, build_mesh(dom, 2, 4, p=1)


@pytest.fixture(scope="module")
def channel():
    dom = Domain(BoxRetain([0, 0], [4, 1], domain=([0, 0], [4, 4])), scale=4.0)
    mesh = build_uniform_mesh(dom, 4, p=1)
    pts = mesh.node_coords()

    def bc(p_):
        mask = np.zeros((len(p_), 2), bool)
        vals = np.zeros((len(p_), 2))
        wall = np.isclose(p_[:, 1], 0) | np.isclose(p_[:, 1], 1)
        inlet = np.isclose(p_[:, 0], 0)
        mask[wall] = True
        mask[inlet] = True
        vals[inlet, 0] = 4 * p_[inlet, 1] * (1 - p_[inlet, 1])
        return mask, vals

    outlet = np.isclose(pts[:, 0], 4.0)

    def make():
        return NavierStokesProblem(
            mesh, nu=0.05, velocity_bc=bc, pressure_pin=outlet, dt=0.2
        )

    return dom, mesh, make


# -- fault schedules ---------------------------------------------------


def test_corrupt_buffer_deterministic_single_bit_flip():
    buf = np.arange(8, dtype=np.float64)
    a = corrupt_buffer(buf, (0, 1, 2, 3))
    b = corrupt_buffer(buf, (0, 1, 2, 3))
    assert np.array_equal(a, b)
    xor = np.frombuffer(buf.tobytes(), np.uint8) ^ np.frombuffer(
        a.tobytes(), np.uint8
    )
    assert int(np.unpackbits(xor).sum()) == 1  # exactly one bit flipped
    other = corrupt_buffer(buf, (0, 1, 2, 4))
    assert not np.array_equal(a, other)


def test_corrupt_buffer_is_a_copy_then_the_in_place_flip():
    from repro.resilience.faults import corrupt_in_place

    # values pinned at PR 14, when the two helpers each had the draw
    f64 = np.arange(8, dtype=np.float64)
    out = corrupt_buffer(f64, (0, 1, 2, 3))
    assert out.tolist() == [0.0, 1.0, 2.0, 3.0, 4.015625, 5.0, 6.0, 7.0]
    assert f64.tolist() == list(range(8))  # the input is untouched
    twin = f64.copy()
    assert corrupt_in_place(twin, (0, 1, 2, 3)) == (37, 4)
    assert twin.tobytes() == out.tobytes()

    i32 = np.arange(12, dtype=np.int32).reshape(3, 4)
    out = corrupt_buffer(i32, (7, 5))
    assert out.shape == (3, 4) and out.dtype == np.int32
    assert out.ravel().tolist() == [0, 1, 2, 3, 4, 5, 65542, 7, 8, 9, 10, 11]
    assert i32.ravel().tolist() == list(range(12))
    assert corrupt_in_place(i32.copy(), (7, 5)) == (26, 0)

    assert corrupt_buffer(np.float64(3.0), (1, 2)) == 3.00390625  # 0-d
    empty = np.zeros(0)
    assert corrupt_buffer(empty, (1,)).shape == (0,)
    assert corrupt_in_place(empty, (1,)) == (0, 0)


def test_crash_fires_at_exact_op_and_poisons_comm():
    comm = SimComm(3)
    comm.install_faults(FaultSchedule(seed=0).crash_rank(1, at_op=1))
    comm.allreduce([np.float64(r) for r in range(3)])  # op 0: fine
    with pytest.raises(RankFailure) as ei:
        comm.allreduce([np.float64(r) for r in range(3)])  # op 1: crash
    assert ei.value.rank == 1 and ei.value.op_index == 1
    assert comm.failed_ranks == {1}
    # the communicator stays broken: every later collective raises too
    with pytest.raises(RankFailure):
        allgather(comm, [np.zeros(1)] * 3)


def test_consumed_fault_does_not_refire():
    sched = FaultSchedule(seed=0).crash_rank(0, at_op=0)
    comm = SimComm(2)
    comm.install_faults(sched)
    with pytest.raises(RankFailure):
        comm.allreduce([np.float64(0), np.float64(1)])
    rebuilt = SimComm(1)
    rebuilt.install_faults(sched)  # same one-shot schedule, new op clock
    rebuilt.allreduce([np.float64(0)])  # op 0 again: must NOT refire
    assert not sched.pending()


def test_detected_drop_raises_typed_error():
    comm = SimComm(2)
    comm.install_faults(_drop(FaultSchedule(seed=0), 0, 1, at_op=0))
    with pytest.raises(MessageCorruption) as ei:
        comm.exchange({(0, 1): np.ones(4)})
    assert (ei.value.src, ei.value.dst, ei.value.mode) == (0, 1, "drop")


def test_silent_drop_removes_message():
    comm = SimComm(2)
    comm.install_faults(
        _drop(FaultSchedule(seed=0), 0, 1, at_op=0, silent=True)
    )
    out = comm.exchange({(0, 1): np.ones(4), (1, 0): np.ones(2)})
    assert (0, 1) not in out and (1, 0) in out


def test_silent_corruption_flips_one_bit_deterministically():
    payload = np.arange(16, dtype=np.float64)
    outs = []
    for _ in range(2):
        comm = SimComm(2)
        comm.install_faults(
            _corrupt(FaultSchedule(seed=5), 0, 1, at_op=0, silent=True)
        )
        outs.append(comm.exchange({(0, 1): payload.copy()})[(0, 1)])
    assert np.array_equal(outs[0], outs[1])  # same seed, same damage
    assert not np.array_equal(outs[0], payload)


#: one fault of each kind, built through its builder, with the line
#: ``describe()`` printed for it when ranks and shards had two schedules
_ONE_OF_EACH = {
    "crash_rank": (lambda s: s.crash_rank(1, at_op=0),
                   "crash rank 1 @ op 0"),
    "drop": (lambda s: _drop(s, 0, 1, at_op=0),
             "drop msg 0->1 @ op 0"),
    "corrupt": (lambda s: _corrupt(s, 0, 1, at_op=0, silent=True),
                "corrupt msg 0->1 @ op 0 (silent)"),
    "slow": (lambda s: s.slow("shard0", 0, 10**7, 5),
             "slowdown shard0 x5 @ [0, 10000000)"),
    "stall": (lambda s: s.stall("shard1", 100, 2000),
              "stall shard1 @ [100, 2000)"),
    "crash": (lambda s: s.crash(2500, "shard0"), "crash shard0 @ 2500"),
    "corrupt_cache": (lambda s: s.corrupt_cache("shard1", at_lookup=4),
                      "corrupt cache shard1 @ lookup 4"),
    "handoff": (lambda s: s.handoff(0, "dup"), "dup handoff #0"),
}


def _consume(scope: str, sched: FaultSchedule):
    """Run ``sched`` through the consumer of ``scope``; returns what a
    fault could change (delivered bytes, or the fleet's event digest)."""
    if scope == "rank":
        comm = SimComm(2)
        comm.install_faults(sched)
        try:
            out = comm.exchange({(0, 1): np.arange(4.0),
                                 (1, 0): np.arange(4.0)})
        except FaultError as exc:
            return repr(exc)
        return sorted((k, v.tobytes()) for k, v in out.items())
    from repro.fleet import FleetService, synthetic_workload
    from repro.obs import EventLog

    log = EventLog()
    fleet = FleetService(4, cache_bytes=8 << 20, steal_threshold=4,
                         steal_latency=100, recorder=log, chaos=sched)
    fleet.run(synthetic_workload(40, seed=0))
    return log.digest


@functools.cache
def _fault_free(scope: str):
    return _consume(scope, FaultSchedule())


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_kind_in_the_table_fires(kind):
    build, line = _ONE_OF_EACH[kind]
    sched = build(FaultSchedule(seed=3))
    assert sched.describe() == [line]
    assert sched.pending() == ([] if kind in ("slow", "stall")
                               else sched.faults)
    scope = KINDS[kind].scope
    assert _consume(scope, sched) != _fault_free(scope)
    assert sched.pending() == []  # every point fault is one-shot


def test_a_fault_of_an_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown fault kind 'kill'"):
        Fault("kill", 5, "shard0")
    with pytest.raises(ValueError, match="t1 > t0"):
        FaultSchedule().stall("shard0", 10, 10)


def test_a_rank_fault_on_a_missing_rank_is_refused_at_install(
        sphere_mesh, channel, tmp_path):
    with pytest.raises(ValueError, match="unknown rank 9"):
        SimComm(4).install_faults(FaultSchedule().crash_rank(9, at_op=0))
    with pytest.raises(ValueError, match="unknown rank 4"):
        SimComm(4).install_faults(_drop(FaultSchedule(), 0, 4, at_op=2))
    _, mesh = sphere_mesh
    with pytest.raises(ValueError, match="unknown rank 6"):
        resilient_poisson_solve(
            PoissonProblem(mesh, f=1.0), ranks=6, ckpt_dir=tmp_path / "p",
            fault_schedule=FaultSchedule().crash_rank(6, at_op=17),
        )
    assert not list(tmp_path.glob("p/*"))  # refused before any checkpoint
    _, _, make = channel
    with pytest.raises(ValueError, match="unknown rank 4"):
        ResilientNSDriver(make(), ranks=4, ckpt_dir=tmp_path / "ns",
                          fault_schedule=FaultSchedule().crash_rank(4, 1))


def test_a_shrunk_communicator_skips_faults_on_ranks_it_lost(sphere_mesh,
                                                           tmp_path):
    # rank 5 exists on the first communicator only: after the crash of
    # rank 2 shrinks six ranks to five, its fault can never fire
    _, mesh = sphere_mesh
    sched = (FaultSchedule(seed=1).crash_rank(2, at_op=17)
             .crash_rank(5, at_op=40))
    res = resilient_poisson_solve(
        PoissonProblem(mesh, f=1.0), ranks=6, ckpt_dir=tmp_path,
        ckpt_interval=5, fault_schedule=sched, rtol=1e-12,
    )
    assert res.reason == "converged" and len(res.recoveries) == 1
    assert sched.describe()[1:] == [f.describe() for f in sched.pending()]


# -- communicator validation (satellite) -------------------------------


def test_exchange_rejects_bad_keys():
    comm = SimComm(2)
    with pytest.raises(ValueError, match="outside"):
        comm.exchange({(0, 5): np.ones(1)})
    with pytest.raises(ValueError, match="malformed"):
        comm.exchange({"0->1": np.ones(1)})
    with pytest.raises(ValueError, match="self-send"):
        comm.exchange({(1, 1): np.ones(1)}, allow_self=False)
    # self-sends stay legal where explicitly allowed (default)
    out = comm.exchange({(1, 1): np.ones(1)})
    assert np.array_equal(out[(1, 1)], np.ones(1))


def test_alltoallv_rejects_negative_size_buffers():
    class _NegBytes(np.ndarray):
        @property
        def nbytes(self):
            return -8

    comm = SimComm(2)
    send = [[None] * 2 for _ in range(2)]
    send[0][1] = np.zeros(2).view(_NegBytes)
    with pytest.raises(ValueError, match="negative"):
        alltoallv(comm, send)


def test_alltoallv_rejects_aliased_buffers():
    comm = SimComm(3)
    buf = np.ones(4)
    send = [[None] * 3 for _ in range(3)]
    send[0][1] = buf
    send[0][2] = buf  # same object to two receivers
    with pytest.raises(ValueError, match="aliases"):
        alltoallv(comm, send)


# -- solver breakdown taxonomy (satellite) -----------------------------


def test_krylov_breakdown_reason_never_converged():
    # p ⟂ A p for the antisymmetric operator: pAp = 0 at the first step
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    res = cg(A, np.array([1.0, 1.0]), rtol=1e-12)
    assert res.reason == "breakdown"
    assert not res.converged


def test_krylov_nonfinite_reason():
    bad = np.full((2, 2), np.nan)
    res = cg(bad, np.ones(2))
    assert res.reason == "nonfinite"
    assert not res.converged


def test_krylov_converged_reason():
    A = np.diag([2.0, 3.0, 4.0])
    res = cg(A, np.ones(3), rtol=1e-10)
    assert res.reason == "converged" and res.converged


# -- checkpoint/restart (satellite) ------------------------------------


def test_checkpoint_roundtrip_bitwise_sphere(sphere_mesh, tmp_path):
    dom, mesh = sphere_mesh
    rng = np.random.default_rng(0)
    vecs = {"x": rng.standard_normal(mesh.n_nodes), "r": rng.standard_normal(mesh.n_nodes)}
    p1 = save_checkpoint(tmp_path / "a.ckpt.json", mesh, step=3,
                         splits=np.array([0, mesh.n_elem]), vectors=vecs,
                         scalars={"rz": 0.125}, name="t")
    p2 = save_checkpoint(tmp_path / "b.ckpt.json", mesh, step=3,
                         splits=np.array([0, mesh.n_elem]), vectors=vecs,
                         scalars={"rz": 0.125}, name="t")
    # bit-deterministic writer: same state, byte-identical files
    assert p1.read_bytes() == p2.read_bytes()
    ck = load_checkpoint(p1)
    assert isinstance(ck, Checkpoint) and ck.step == 3
    assert np.array_equal(ck.vector("x"), vecs["x"])  # exact, not approx
    assert ck.scalars["rz"] == 0.125
    mesh2, layout, plan = ck.restore(dom)
    assert mesh2.n_nodes == mesh.n_nodes
    assert plan.fingerprint == ck.fingerprint


def test_checkpoint_roundtrip_channel_dt(channel, tmp_path):
    dom, mesh, make = channel
    prob = make()
    U, P = prob.initial_state()
    path = save_checkpoint(tmp_path / "c.ckpt.json", mesh, step=2, t=0.4,
                           dt=prob.dt, vectors={"U": U, "P": P}, name="ns")
    ck = load_checkpoint(path)
    assert ck.dt == prob.dt and ck.time == 0.4
    assert np.array_equal(ck.vector("U"), U)
    assert ck.restore_mesh(dom).n_elem == mesh.n_elem


def test_checkpoint_tamper_detection(sphere_mesh, tmp_path):
    _, mesh = sphere_mesh
    path = save_checkpoint(tmp_path / "t.ckpt.json", mesh,
                           vectors={"x": np.ones(mesh.n_nodes)})
    doc = json.loads(path.read_text())
    doc["step"] = 99  # tamper with the header
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointCorruption, match="digest"):
        load_checkpoint(path)
    doc = json.loads(path.read_text())
    doc["step"] = 0
    doc["sha256"] = "0" * 64  # tamper with the digest itself
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointCorruption, match="digest"):
        load_checkpoint(path)
    path.write_text("not json at all")
    with pytest.raises(CheckpointCorruption, match="unreadable"):
        load_checkpoint(path)


def test_checkpoint_schema_tag_enforced(tmp_path):
    path = tmp_path / "w.ckpt.json"
    path.write_text(json.dumps({"schema": "something/else.v9"}))
    with pytest.raises(CheckpointCorruption, match="schema"):
        load_checkpoint(path)


@pytest.mark.parametrize("load", [load_checkpoint, load_state_checkpoint])
@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null", "3"])
def test_a_document_that_is_not_an_object_is_corruption(tmp_path, load, text):
    # valid JSON that is not an object used to raise AttributeError from
    # inside the schema-tag message
    path = tmp_path / "w.ckpt.json"
    path.write_text(text)
    kind = type(json.loads(text)).__name__
    with pytest.raises(CheckpointCorruption,
                       match=f"is a JSON object, got {kind}$"):
        load(path)


def test_sealed_documents_keep_their_bytes(tmp_path):
    """Both schemas go through one writer; the files are byte for byte
    what the two writers it replaced produced (sha256 pinned then)."""
    mesh = build_uniform_mesh(Domain(SphereCarve([0.5, 0.5], 0.25)), 3)
    x = np.linspace(-1.0, 1.0, mesh.n_nodes)
    ckpt = save_checkpoint(
        tmp_path / "pin_step000003.ckpt.json", mesh, step=3, t=0.5, dt=0.25,
        splits=np.array([0, 7, mesh.n_elem]),
        vectors={"x": x, "r": x[::-1].copy()},
        scalars={"rz": 0.125, "it": 3.0}, name="pin", meta={"case": "pin"})
    state = save_state_checkpoint(
        tmp_path / "s0_step000002.ckpt.json", name="s0", step=2,
        state={"pending": [1, 2, 3], "tick": 40}, meta={"shard": "s0"})
    sha = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (ckpt, state)}
    assert sha == {
        "pin_step000003.ckpt.json":
            "0db013f345d00a9d7e4993342b55e8bd3d1ac9aff13cf7b9ac0381dbdc00dfcc",
        "s0_step000002.ckpt.json":
            "6e2bb4e89f9a10d80a8110523a3154cebc08a99647f6b6b6f1ae48ed1f610246",
    }
    ck, st = load_checkpoint(ckpt), load_state_checkpoint(state)
    assert (ck.name, ck.step, ck.meta) == ("pin", 3, {"case": "pin"})
    assert (st.name, st.step, st.meta) == ("s0", 2, {"shard": "s0"})
    assert st.state == {"pending": [1, 2, 3], "tick": 40}


def test_latest_checkpoint_orders_by_step(tmp_path):
    (tmp_path / "run_step000002.ckpt.json").write_text("{}")
    (tmp_path / "run_step000010.ckpt.json").write_text("{}")
    assert latest_checkpoint(tmp_path, "run").name == "run_step000010.ckpt.json"
    assert latest_checkpoint(tmp_path / "missing") is None


def test_latest_checkpoint_numeric_step_order_unpadded(tmp_path):
    # step10 must beat step2 even without zero padding
    (tmp_path / "run_step2.ckpt.json").write_text("{}")
    (tmp_path / "run_step10.ckpt.json").write_text("{}")
    assert latest_checkpoint(tmp_path, "run").name == "run_step10.ckpt.json"


def test_checkpoint_retention_keep_last(sphere_mesh, tmp_path):
    _, mesh = sphere_mesh
    vec = {"x": np.ones(mesh.n_nodes)}
    for step in (1, 2, 3, 10):
        save_checkpoint(tmp_path / f"run_step{step}.ckpt.json", mesh,
                        step=step, vectors=vec, name="run", keep_last=2)
    survivors = sorted(p.name for p in tmp_path.glob("*.ckpt.json"))
    # numeric step order: step10 is newest, step3 second-newest
    assert survivors == ["run_step10.ckpt.json", "run_step3.ckpt.json"]
    assert latest_checkpoint(tmp_path, "run").name == "run_step10.ckpt.json"


def test_prune_checkpoints_scoped_by_name_and_validated(tmp_path):
    for step in (1, 2, 3):
        (tmp_path / f"a_step{step}.ckpt.json").write_text("{}")
        (tmp_path / f"b_step{step}.ckpt.json").write_text("{}")
    removed = prune_checkpoints(tmp_path, name="a", keep_last=1)
    assert [p.name for p in removed] == ["a_step1.ckpt.json",
                                         "a_step2.ckpt.json"]
    # "b" checkpoints are untouched by a name-scoped prune
    assert len(list(tmp_path.glob("b_step*.ckpt.json"))) == 3
    assert len(list(tmp_path.glob("a_step*.ckpt.json"))) == 1
    with pytest.raises(ValueError, match="keep_last"):
        prune_checkpoints(tmp_path, keep_last=0)


# -- partition shrink --------------------------------------------------


def test_shrink_splits_absorbs_failed_ranges():
    splits = np.array([0, 10, 20, 30, 40])
    assert shrink_splits(splits, [1]).tolist() == [0, 20, 30, 40]
    assert shrink_splits(splits, [0]).tolist() == [0, 20, 30, 40]
    assert shrink_splits(splits, [3]).tolist() == [0, 10, 20, 40]
    assert shrink_splits(splits, [1, 2]).tolist() == [0, 30, 40]
    with pytest.raises(ValueError, match="outside"):
        shrink_splits(splits, [7])
    with pytest.raises(ValueError, match="surviving"):
        shrink_splits(splits, [0, 1, 2, 3])


# -- end-to-end recovery ----------------------------------------------


def test_resilient_poisson_maxiter_zero_is_a_zero_budget(sphere_mesh, tmp_path):
    # ``maxiter or 20 * n`` read 0 as "unset" and solved to convergence
    dom, mesh = sphere_mesh
    res = resilient_poisson_solve(
        PoissonProblem(mesh, f=1.0), ranks=2, ckpt_dir=tmp_path, maxiter=0)
    assert res.iterations == 0 and res.reason == "maxiter"
    assert not res.converged and not np.any(res.x)


def test_resilient_poisson_crash_recovery_matches(sphere_mesh, tmp_path):
    dom, mesh = sphere_mesh
    prob = PoissonProblem(mesh, f=1.0)
    ref = resilient_poisson_solve(
        prob, ranks=6, ckpt_dir=tmp_path / "ref", ckpt_interval=5, rtol=1e-12
    )
    assert ref.reason == "converged" and not ref.recoveries
    sched = FaultSchedule(seed=1).crash_rank(2, at_op=17)
    res = resilient_poisson_solve(
        prob, ranks=6, ckpt_dir=tmp_path / "faulted", ckpt_interval=5,
        fault_schedule=sched, rtol=1e-12,
    )
    assert res.reason == "converged"
    assert len(res.recoveries) == 1
    assert res.ranks_final == 5
    ev = res.recoveries[0]
    assert ev.kind == "rank_failure" and ev.failed_ranks == (2,)
    assert "resumed" in ev.describe()
    assert float(np.abs(res.x - ref.x).max()) <= 1e-12


def test_resilient_poisson_recovery_is_deterministic(sphere_mesh, tmp_path):
    dom, mesh = sphere_mesh
    prob = PoissonProblem(mesh, f=1.0)
    runs = []
    for tag in ("a", "b"):
        sched = FaultSchedule(seed=1).crash_rank(2, at_op=17)
        runs.append(resilient_poisson_solve(
            prob, ranks=6, ckpt_dir=tmp_path / tag, ckpt_interval=5,
            fault_schedule=sched, rtol=1e-12,
        ))
    assert np.array_equal(runs[0].x, runs[1].x)
    assert [e.op_index for e in runs[0].recoveries] == [
        e.op_index for e in runs[1].recoveries
    ]


def test_resilient_poisson_respects_max_recoveries(sphere_mesh, tmp_path):
    _, mesh = sphere_mesh
    prob = PoissonProblem(mesh, f=1.0)
    sched = (FaultSchedule(seed=0)
             .crash_rank(1, at_op=5).crash_rank(0, at_op=8))
    with pytest.raises(RankFailure):
        resilient_poisson_solve(
            prob, ranks=6, ckpt_dir=tmp_path, ckpt_interval=3,
            fault_schedule=sched, max_recoveries=1,
        )


# -- one solve: the resilient solve is cg on the free-node system -------


_ONE_SOLVE_MESHES = {
    "2d-p1": lambda: build_mesh(Domain(SphereCarve([0.5, 0.5], 0.25)), 3, 5,
                                p=1),
    "3d-p2": lambda: build_mesh(Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), 2,
                                3, p=2),
}
_G = {"zero": 0.0, "constant": 0.75,
      "callable": lambda pts: 1.0 + pts[:, 0] - 2.0 * pts[:, 1]}


@functools.cache
def _matrix_free(mesh_case: str, g: str):
    """``(problem, x, iterations)`` of the serial matrix-free solve."""
    prob = PoissonProblem(_ONE_SOLVE_MESHES[mesh_case](), f=2.5,
                          dirichlet=_G[g])
    iterations = []

    def counted_cg(*args, **kwargs):
        res = cg(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system, "cg", counted_cg)
        x = prob.solve(solver="matrix-free", rtol=1e-12)
    return prob, x, iterations.pop()


@pytest.mark.parametrize("ranks", [1, 3, 6])
@pytest.mark.parametrize("g", list(_G))
@pytest.mark.parametrize("mesh_case", list(_ONE_SOLVE_MESHES))
def test_the_resilient_solve_is_the_matrix_free_solve(mesh_case, g, ranks,
                                                      tmp_path):
    """One rank reproduces ``solve(solver="matrix-free")`` bit for bit;
    k ranks reorder only the bottom-up sums of the apply."""
    prob, want, iterations = _matrix_free(mesh_case, g)
    res = resilient_poisson_solve(prob, ranks=ranks, ckpt_dir=tmp_path,
                                  rtol=1e-12)
    assert res.converged and not res.recoveries
    assert res.iterations == iterations
    if ranks == 1:
        assert res.x.tobytes() == want.tobytes()
    else:
        assert np.abs(res.x - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("at_op", [0, 1])
def test_a_crash_in_the_first_apply_recovers(sphere_mesh, at_op, tmp_path):
    """The step-0 checkpoint is written from the zero iterate before any
    collective, so a crash in either exchange leg of the first apply
    resumes from it."""
    _, mesh = sphere_mesh
    prob = PoissonProblem(mesh, f=1.0)
    ref = resilient_poisson_solve(prob, ranks=4, ckpt_dir=tmp_path / "ref",
                                  ckpt_interval=5)
    res = resilient_poisson_solve(
        prob, ranks=4, ckpt_dir=tmp_path / "faulted", ckpt_interval=5,
        fault_schedule=FaultSchedule(seed=0).crash_rank(1, at_op=at_op))
    assert res.converged and res.ranks_final == 3
    [ev] = res.recoveries
    assert (ev.op_index, ev.restored_step) == (at_op, 0)
    assert float(np.abs(res.x - ref.x).max()) <= 1e-12
    # the checkpointed Krylov state is free-length
    n_free = int((~mesh.dirichlet_mask).sum())
    ck = load_checkpoint(latest_checkpoint(tmp_path / "faulted", "poisson"))
    assert {k: v.shape for k, v in ck.vectors().items()} == {
        k: (n_free,) for k in ("x", "r", "p")}


def test_resilient_ns_crash_recovery_bit_identical(channel, tmp_path):
    dom, mesh, make = channel
    ref = ResilientNSDriver(
        make(), ranks=4, ckpt_dir=tmp_path / "ref", ckpt_interval=2
    ).run(6)
    sched = FaultSchedule(seed=7).crash_rank(1, at_op=4)
    res = ResilientNSDriver(
        make(), ranks=4, ckpt_dir=tmp_path / "faulted", ckpt_interval=2,
        fault_schedule=sched,
    ).run(6)
    assert len(res.recoveries) == 1 and res.ranks_final == 3
    assert res.recoveries[0].restored_step == 4
    # NS recovery replays from raw checkpoint bytes on the serial
    # stepper: the recovered trajectory is *bit*-identical
    assert np.array_equal(res.velocity, ref.velocity)
    assert np.array_equal(res.pressure, ref.pressure)


# -- dt-halving retry --------------------------------------------------


def test_ns_dt_halving_retry(channel, monkeypatch):
    _, mesh, make = channel
    prob = make()
    dt0 = prob.dt
    orig = NavierStokesProblem._substep

    def flaky(self, state, picard_per_step):
        if self.dt > dt0 / 2 + 1e-15:
            raise FloatingPointError("injected instability at full dt")
        return orig(self, state, picard_per_step)

    monkeypatch.setattr(NavierStokesProblem, "_substep", flaky)
    U, P = prob.initial_state()
    with pytest.raises(FloatingPointError):
        prob.advance(U, P, 1)  # no budget: the failure propagates
    assert prob.dt == dt0
    out = prob.advance(U, P, 2, max_dt_halvings=2)
    assert np.all(np.isfinite(out.velocity))
    assert prob.dt == dt0  # restored after the halved substeps


def test_ns_dt_halving_budget_exhaustion(channel, monkeypatch):
    _, mesh, make = channel
    prob = make()

    def always_fails(self, state, picard_per_step):
        raise FloatingPointError("injected")

    monkeypatch.setattr(NavierStokesProblem, "_substep", always_fails)
    U, P = prob.initial_state()
    with pytest.raises(SolverBreakdown, match="dt_budget_exhausted"):
        prob.advance(U, P, 1, max_dt_halvings=2)
    assert prob.dt == prob.dt  # dt restored by the finally


def test_matvec_rank_failure_carries_phase(sphere_mesh):
    from repro.parallel import analyze_partition, distributed_matvec, partition_mesh

    _, mesh = sphere_mesh
    splits = partition_mesh(mesh, 4)
    layout = analyze_partition(mesh, splits)
    comm = SimComm(4)
    comm.install_faults(FaultSchedule(seed=0).crash_rank(3, at_op=0))
    with pytest.raises(RankFailure) as ei:
        distributed_matvec(mesh, layout, np.ones(mesh.n_nodes), comm)
    assert ei.value.phase == "matvec.exchange.pre"
