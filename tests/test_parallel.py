"""Tests for the simulated-MPI substrate: SimComm, partitioning, ghost
analysis, distributed MATVEC and the performance model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Domain, build_mesh
from repro.core.matvec import traversal_matvec
from repro.core.plan import ApplyProgram, operator_context
from repro.geometry import SphereCarve
from repro.parallel import (
    FRONTERA,
    SimComm,
    analyze_partition,
    distributed_matvec,
    exchange_plan,
    model_matvec,
    partition_mesh,
    partition_weights,
    rank_statistics,
)


@pytest.fixture(scope="module")
def mesh():
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    return build_mesh(dom, 2, 5, p=1)


# -- SimComm -----------------------------------------------------------


def test_simcomm_size_validation():
    with pytest.raises(ValueError):
        SimComm(0)


def test_alltoallv_routing_and_counters():
    comm = SimComm(3)
    send = [[None] * 3 for _ in range(3)]
    send[0][1] = np.arange(10, dtype=np.float64)
    send[2][0] = np.arange(5, dtype=np.int32)
    send[1][1] = np.ones(7)  # self-message: free
    recv = comm.alltoallv(send)
    assert np.array_equal(recv[1][0], np.arange(10.0))
    assert np.array_equal(recv[0][2], np.arange(5, dtype=np.int32))
    assert comm.counters.bytes_sent[0] == 80
    assert comm.counters.bytes_sent[2] == 20
    assert comm.counters.bytes_sent[1] == 0  # self traffic not counted
    assert comm.counters.messages_sent.sum() == 2


def test_allgather_traffic():
    comm = SimComm(4)
    out = comm.allgather([np.zeros(2) for _ in range(4)])
    assert len(out) == 4 and all(len(o) == 4 for o in out)
    assert np.all(comm.counters.bytes_sent == 16 * 3)


def test_allreduce():
    comm = SimComm(3)
    out = comm.allreduce([np.array([1.0, 2.0])] * 3)
    assert np.allclose(out[0], [3.0, 6.0])


def test_exchange_counts_only_cross_rank():
    comm = SimComm(2)
    comm.exchange({(0, 1): np.zeros(4), (1, 1): np.zeros(100)})
    assert comm.counters.bytes_sent[0] == 32
    assert comm.counters.bytes_sent[1] == 0


# -- partitioning -------------------------------------------------------


def test_partition_weights_balanced():
    splits = partition_weights(np.ones(100), 4)
    assert list(splits) == [0, 25, 50, 75, 100]


def test_partition_weights_nonuniform():
    w = np.concatenate([np.full(10, 10.0), np.full(90, 1.0)])
    splits = partition_weights(w, 2)
    # heavy head: first rank gets far fewer than half the items
    assert splits[1] < 30


def test_partition_weights_validation():
    with pytest.raises(ValueError):
        partition_weights(np.ones(5), 0)


def test_partition_mesh_covers_all(mesh):
    splits = partition_mesh(mesh, 8)
    assert splits[0] == 0 and splits[-1] == mesh.n_elem
    assert np.all(np.diff(splits) >= 0)


def test_partition_load_tolerance_snaps_to_blocks(mesh):
    from repro.parallel.partition import splitter_block_levels

    tight = partition_mesh(mesh, 8, load_tol=0.0)
    loose = partition_mesh(mesh, 8, load_tol=0.5)
    assert splitter_block_levels(mesh, loose).mean() >= splitter_block_levels(
        mesh, tight
    ).mean()


# -- ghost analysis -----------------------------------------------------


def test_ghost_layout_consistency(mesh):
    splits = partition_mesh(mesh, 6)
    layout = analyze_partition(mesh, splits)
    assert layout.owned_counts.sum() == mesh.n_nodes
    # ghosts of rank r are owned by other ranks
    for r in range(6):
        assert np.all(layout.node_owner[layout.ghost_nodes[r]] != r)
        assert len(layout.ghost_nodes[r]) == layout.ghost_counts[r]
    assert np.all(layout.local_counts >= layout.ghost_counts)


def test_single_rank_has_no_ghosts(mesh):
    layout = analyze_partition(mesh, partition_mesh(mesh, 1))
    assert layout.ghost_counts[0] == 0
    assert layout.eta()[0] == 0.0


def test_eta_increases_with_ranks(mesh):
    etas = []
    for nranks in (2, 8, 32):
        layout = analyze_partition(mesh, partition_mesh(mesh, nranks))
        etas.append(layout.eta().mean())
    assert etas[0] < etas[-1]


# -- distributed matvec --------------------------------------------------


def _rel_diff(y, ref):
    return np.abs(y - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("nranks", [2, 5, 16])
def test_distributed_matvec_matches_serial(mesh, nranks):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    serial = traversal_matvec(mesh, u)
    comm = SimComm(nranks)
    layout = analyze_partition(mesh, partition_mesh(mesh, nranks))
    dist = distributed_matvec(mesh, layout, u, comm)
    assert _rel_diff(dist, serial) <= 1e-14
    if nranks > 1:
        assert comm.counters.total_bytes() > 0


_GRID_MESHES: dict = {}


def _grid_mesh(dim, p):
    """Carved sphere/disk meshes of the 1-vs-k grid, built once each."""
    if (dim, p) not in _GRID_MESHES:
        dom = Domain(SphereCarve([0.45] * dim, 0.3))
        _GRID_MESHES[dim, p] = build_mesh(dom, 2, 5 if dim == 2 else 4, p=p)
    return _GRID_MESHES[dim, p]


@pytest.mark.parametrize("nranks", [1, 3, 7])
@pytest.mark.parametrize("kind", ["stiffness", "mass"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_distributed_matvec_is_the_compiled_apply(dim, p, kind, nranks):
    """Each rank runs its compiled program: one rank is the serial
    compiled apply bit for bit, k ranks differ only in the order of the
    bottom-up sums."""
    mesh = _grid_mesh(dim, p)
    u = np.random.default_rng(dim * 10 + p).standard_normal(mesh.n_nodes)
    serial = traversal_matvec(mesh, u, kind=kind)
    layout = analyze_partition(mesh, partition_mesh(mesh, nranks))
    dist = distributed_matvec(mesh, layout, u, SimComm(nranks), kind=kind)
    if nranks == 1:
        assert np.array_equal(dist, serial)
    else:
        assert _rel_diff(dist, serial) <= 1e-14


@pytest.mark.parametrize("kind", ["stiffness", "mass"])
def test_distributed_matvec_with_empty_ranks(mesh, kind):
    n = mesh.n_elem
    splits = np.array([0, 0, n // 3, n // 3, n, n])  # ranks 0, 2, 4 own nothing
    layout = analyze_partition(mesh, splits)
    u = np.random.default_rng(3).standard_normal(mesh.n_nodes)
    dist = distributed_matvec(mesh, layout, u, SimComm(5), kind=kind)
    assert _rel_diff(dist, traversal_matvec(mesh, u, kind=kind)) <= 1e-14
    programs = exchange_plan(mesh, layout).programs
    assert [prog is None for prog in programs] == [True, False, True, False, True]


def test_distributed_matvec_rank_mismatch(mesh):
    layout = analyze_partition(mesh, partition_mesh(mesh, 4))
    with pytest.raises(ValueError):
        distributed_matvec(mesh, layout, np.zeros(mesh.n_nodes), SimComm(3))


def test_distributed_matvec_refuses_a_layout_of_another_mesh(mesh):
    """A layout of a smaller mesh would hand scipy out-of-range CSR
    columns (heap corruption), one of a larger mesh out-of-range vector
    indices: both are refused before any index table is built."""
    small = build_mesh(Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), 2, 3, p=1)
    assert small.n_nodes < mesh.n_nodes
    for a, b in ((mesh, small), (small, mesh)):
        layout = analyze_partition(b, partition_mesh(b, 3))
        with pytest.raises(ValueError, match="different mesh"):
            distributed_matvec(a, layout, np.zeros(a.n_nodes), SimComm(3))


@pytest.mark.parametrize("shape", ["long", "short", "2-D"])
def test_distributed_matvec_rejects_a_wrong_shape(mesh, shape):
    n = mesh.n_nodes
    u = {"long": np.zeros(n + 5), "short": np.zeros(n - 5),
         "2-D": np.zeros((n, 2))}[shape]
    layout = analyze_partition(mesh, partition_mesh(mesh, 3))
    with pytest.raises(ValueError, match=rf"shape \({u.shape[0]},"):
        distributed_matvec(mesh, layout, u, SimComm(3))


def test_rank_local_program_checks_its_index_space(mesh):
    plan = operator_context(mesh).traversal
    lo, hi = 0, mesh.n_elem // 4
    npe = mesh.npe
    ref = np.unique(plan.gather[lo * npe: hi * npe].indices)
    prog = ApplyProgram(plan, lo, hi, local=ref)
    assert prog.scatter(1).shape == (len(ref), (hi - lo) * npe)
    with pytest.raises(ValueError, match="outside the"):
        ApplyProgram(plan, lo, hi, local=ref[1:])


# -- performance model ----------------------------------------------------


def test_model_matvec_phases_positive(mesh):
    layout = analyze_partition(mesh, partition_mesh(mesh, 4))
    stats = rank_statistics(mesh, layout)
    ph = model_matvec(stats, p=1, dim=3, machine=FRONTERA)
    assert ph.time > 0
    br = ph.breakdown()
    assert set(br) == {"top_down", "leaf", "bottom_up", "comm", "malloc"}
    assert all(v >= 0 for v in br.values())
    assert ph.parallel_cost() == pytest.approx(ph.time * 4)


def test_model_quadratic_slower_within_bounds(mesh):
    layout = analyze_partition(mesh, partition_mesh(mesh, 2))
    stats = rank_statistics(mesh, layout)
    t1 = model_matvec(stats, p=1, dim=3).time
    t2 = model_matvec(stats, p=2, dim=3).time
    # the paper observes ~4.2x; the model is calibrated to that regime
    assert 2.0 < t2 / t1 < 8.0


def test_model_active_elem_override(mesh):
    layout = analyze_partition(mesh, partition_mesh(mesh, 4))
    stats = rank_statistics(mesh, layout)
    base = model_matvec(stats, p=1, dim=3)
    unbal = model_matvec(
        stats, p=1, dim=3, active_elem=np.array([stats.n_elem.sum(), 0, 0, 0])
    )
    assert unbal.time > base.time


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nparts=st.integers(1, 16))
def test_partition_property(seed, nparts):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10.0, rng.integers(nparts, 300))
    splits = partition_weights(w, nparts)
    assert len(splits) == nparts + 1
    assert splits[0] == 0 and splits[-1] == len(w)
    assert np.all(np.diff(splits) >= 0)
    # every part within 2x ideal + heaviest item slack
    ideal = w.sum() / nparts
    for i in range(nparts):
        part = w[splits[i]:splits[i + 1]].sum()
        assert part <= ideal + w.max() + 1e-9
