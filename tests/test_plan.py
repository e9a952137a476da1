"""Tests for the unified operator-plan layer (repro.core.plan +
repro.parallel.ghost.ExchangePlan): fingerprint caching, adaptivity
invalidation, operator equivalence, persistent ghost-exchange plans and
obs-span preservation."""

import numpy as np
import pytest

from repro import Domain, build_mesh, obs
from repro.core.adapt import coarsen_leaves, refine_leaves
from repro.core.assembly import assemble
from repro.core.matvec import MapBasedMatVec, traversal_matvec
from repro.core.mesh import mesh_from_leaves
from repro.core.plan import TraversalPlan, mesh_fingerprint, operator_context
from repro.geometry import BoxRetain, SphereCarve
from repro.parallel import (
    SimComm,
    analyze_partition,
    distributed_matvec,
    exchange_plan,
    partition_mesh,
)
from repro.parallel.ghost import ExchangePlan


@pytest.fixture(scope="module")
def sphere_mesh():
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    return build_mesh(dom, 2, 4, p=1)


@pytest.fixture(scope="module")
def channel_mesh():
    dom = Domain(
        BoxRetain([0, 0], [4, 1], domain=([0, 0], [4, 4])), scale=4.0
    )
    return build_mesh(dom, 3, 4, p=1)


# -- context caching and fingerprints -----------------------------------


def test_context_cached_same_object(sphere_mesh):
    ctx1 = operator_context(sphere_mesh)
    ctx2 = operator_context(sphere_mesh)
    assert ctx1 is ctx2
    assert sphere_mesh.operator_context() is ctx1
    # the lazily derived artifacts are also computed once
    assert ctx1.traversal is ctx2.traversal
    assert ctx1.scatter is ctx2.scatter
    assert ctx1.big_gather(2) is ctx2.big_gather(2)


def test_fingerprint_stable_for_same_content(sphere_mesh):
    assert mesh_fingerprint(sphere_mesh) == mesh_fingerprint(sphere_mesh)
    # an identical rebuild of the same mesh content hashes identically
    rebuilt = mesh_from_leaves(
        sphere_mesh.domain, sphere_mesh.leaves, p=sphere_mesh.p, balance=False
    )
    assert mesh_fingerprint(rebuilt) == mesh_fingerprint(sphere_mesh)
    # but the context is per-object: the rebuild gets its own
    assert operator_context(rebuilt) is not operator_context(sphere_mesh)


def test_fingerprint_changes_after_refine_and_coarsen(sphere_mesh):
    dom = sphere_mesh.domain
    fp0 = mesh_fingerprint(sphere_mesh)
    marks = np.zeros(sphere_mesh.n_elem, bool)
    marks[: max(1, sphere_mesh.n_elem // 8)] = True
    refined = mesh_from_leaves(
        dom, refine_leaves(dom, sphere_mesh.leaves, marks), p=sphere_mesh.p
    )
    assert mesh_fingerprint(refined) != fp0

    all_marks = np.ones(refined.n_elem, bool)
    coarsened = mesh_from_leaves(
        dom, coarsen_leaves(dom, refined.leaves, all_marks), p=refined.p
    )
    assert mesh_fingerprint(coarsened) != mesh_fingerprint(refined)


def test_stale_context_not_reused_after_leaf_swap():
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 4, p=1)
    ctx0 = operator_context(mesh)
    marks = np.ones(mesh.n_elem, bool)
    refined = mesh_from_leaves(dom, refine_leaves(dom, mesh.leaves, marks), p=1)
    # simulate in-place adaptation: swap the mesh content under the
    # same object — the stored context must be detected as stale
    mesh.leaves = refined.leaves
    mesh.labels = refined.labels
    mesh.nodes = refined.nodes
    ctx1 = operator_context(mesh)
    assert ctx1 is not ctx0
    assert ctx1.fingerprint != ctx0.fingerprint
    # and the refreshed context serves consistent operator artifacts
    u = np.linspace(0, 1, mesh.n_nodes)
    assert np.allclose(MapBasedMatVec(mesh)(u), assemble(mesh) @ u, atol=1e-12)


def test_stale_context_detected_on_nodes_swap_same_fingerprint():
    # regression: an in-place mutation that swaps in *identical content*
    # (same fingerprint) but a different nodes object must still rebuild
    # the context — its cached gather/traversal reference the old arrays
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 4, p=1)
    ctx0 = operator_context(mesh)
    rebuilt = mesh_from_leaves(dom, mesh.leaves, p=1, balance=False)
    assert mesh_fingerprint(rebuilt) == ctx0.fingerprint
    mesh.nodes = rebuilt.nodes  # same content, different identity
    ctx1 = operator_context(mesh)
    assert ctx1 is not ctx0
    assert ctx1.fingerprint == ctx0.fingerprint
    assert ctx1.nodes is mesh.nodes
    u = np.linspace(0, 1, mesh.n_nodes)
    assert np.allclose(MapBasedMatVec(mesh)(u), assemble(mesh) @ u, atol=1e-12)


@pytest.mark.parametrize("change", ["refine", "coarsen", "nodes_swap"])
def test_compiled_traversal_tables_rebuilt_with_the_context(change):
    """The traversal's compiled index tables live on the plan the
    context owns: compiled once, and gone with the context whenever the
    mesh content (or its nodes object) is swapped in place."""
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 4, p=1)
    if change == "coarsen":  # start from the refined mesh, coarsen it back
        marks = np.ones(mesh.n_elem, bool)
        mesh = mesh_from_leaves(dom, refine_leaves(dom, mesh.leaves, marks), p=1)
    traversal_matvec(mesh, np.ones(mesh.n_nodes))  # compiles the tables
    plan0 = operator_context(mesh).traversal
    tables0 = plan0.apply_tables()
    assert plan0.apply_tables() is tables0  # compiled once per plan
    n_elem0 = mesh.n_elem

    marks = np.ones(mesh.n_elem, bool)
    if change == "refine":
        new = mesh_from_leaves(dom, refine_leaves(dom, mesh.leaves, marks), p=1)
    elif change == "coarsen":
        new = mesh_from_leaves(dom, coarsen_leaves(dom, mesh.leaves, marks), p=1)
    else:
        new = mesh_from_leaves(dom, mesh.leaves, p=1, balance=False)
    if change != "nodes_swap":
        mesh.leaves, mesh.labels = new.leaves, new.labels
    mesh.nodes = new.nodes

    u = np.random.default_rng(0).standard_normal(mesh.n_nodes)
    y = traversal_matvec(mesh, u)
    plan1 = operator_context(mesh).traversal
    tables1 = plan1.apply_tables()
    assert plan1 is not plan0 and tables1 is not tables0
    assert sum(len(t.elems) for t in tables1) == mesh.n_elem
    assert (mesh.n_elem != n_elem0) == (change != "nodes_swap")
    assert np.abs(y - MapBasedMatVec(mesh)(u)).max() <= 1e-12


# -- operator equivalence through the context ---------------------------


@pytest.mark.parametrize("fixture", ["sphere_mesh", "channel_mesh"])
def test_context_operators_match_assembled(fixture, request):
    mesh = request.getfixturevalue(fixture)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    A = assemble(mesh)
    assert np.allclose(MapBasedMatVec(mesh)(u), A @ u, atol=1e-12)
    assert np.allclose(traversal_matvec(mesh, u), A @ u, atol=1e-10)
    M = assemble(mesh, kind="mass")
    assert np.allclose(MapBasedMatVec(mesh, kind="mass")(u), M @ u, atol=1e-12)
    assert np.allclose(traversal_matvec(mesh, u, kind="mass"), M @ u, atol=1e-10)


def test_traversal_table_is_flat(sphere_mesh):
    plan = operator_context(sphere_mesh).traversal
    n_elem, npe = sphere_mesh.n_elem, sphere_mesh.npe
    assert isinstance(plan, TraversalPlan)
    for arr in (plan.slot_idx, plan.slot_gid, plan.slot_w):
        assert isinstance(arr, np.ndarray) and arr.ndim == 1
    assert plan.slot_ptr.shape == (n_elem + 1,)
    assert plan.slot_ptr[-1] == len(plan.slot_gid)
    # the flat table is exactly the gather operator, element by element
    g = operator_context(sphere_mesh).gather
    for e in range(0, n_elem, max(1, n_elem // 17)):
        slot, gid, w = plan.rows(e)
        rows = g[e * npe : (e + 1) * npe].tocoo()
        assert np.array_equal(slot, rows.row)
        assert np.array_equal(gid, rows.col)
        assert np.array_equal(w, rows.data)


def test_identity_elements_match_gather(sphere_mesh):
    plan = operator_context(sphere_mesh).traversal
    g = operator_context(sphere_mesh).gather
    npe = sphere_mesh.npe
    for e in range(sphere_mesh.n_elem):
        blk = g[e * npe : (e + 1) * npe]
        is_ident = blk.nnz == npe and np.all(blk.data == 1.0) and np.all(
            np.diff(blk.indptr) == 1
        )
        assert bool(plan.identity_elem[e]) == bool(is_ident)
    # a carved adaptive mesh has both kinds
    assert plan.identity_elem.any()
    assert not plan.identity_elem.all()


# -- persistent exchange plans ------------------------------------------


def test_exchange_plan_cached_per_layout(sphere_mesh):
    layout = analyze_partition(sphere_mesh, partition_mesh(sphere_mesh, 4))
    p1 = exchange_plan(sphere_mesh, layout)
    p2 = exchange_plan(sphere_mesh, layout)
    assert p1 is p2
    # a second layout gets its own plan
    layout2 = analyze_partition(sphere_mesh, partition_mesh(sphere_mesh, 3))
    assert exchange_plan(sphere_mesh, layout2) is not p1


def test_exchange_plan_invalidated_by_content_change():
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 4, p=1)
    layout = analyze_partition(mesh, partition_mesh(mesh, 3))
    p1 = exchange_plan(mesh, layout)
    refined = mesh_from_leaves(
        dom, refine_leaves(dom, mesh.leaves, np.ones(mesh.n_elem, bool)), p=1
    )
    layout_r = analyze_partition(refined, partition_mesh(refined, 3))
    p2 = exchange_plan(refined, layout_r)
    assert p2 is not p1
    assert p2.fingerprint != p1.fingerprint


@pytest.mark.parametrize("nranks", [2, 7])
def test_distributed_plan_reuse_bit_identical(sphere_mesh, nranks):
    """Cached-plan applies are bit-identical to fresh-plan applies and
    to each other, and match the serial compiled apply."""
    mesh = sphere_mesh
    rng = np.random.default_rng(1)
    u = rng.standard_normal(mesh.n_nodes)
    layout = analyze_partition(mesh, partition_mesh(mesh, nranks))
    cached = distributed_matvec(mesh, layout, u, SimComm(nranks))
    again = distributed_matvec(mesh, layout, u, SimComm(nranks))
    fresh = distributed_matvec(
        mesh, layout, u, SimComm(nranks), plan=ExchangePlan(mesh, layout)
    )
    assert np.array_equal(cached, again)
    assert np.array_equal(cached, fresh)
    serial = traversal_matvec(mesh, u)
    assert np.abs(cached - serial).max() <= 1e-14 * np.abs(serial).max()


def test_exchange_plan_hoists_per_call_artifacts(sphere_mesh):
    """Each rank's compiled program and the exchange index arrays live
    on the plan: the same objects across applies, rebuilt only for a
    mesh with another fingerprint."""
    mesh = sphere_mesh
    layout = analyze_partition(mesh, partition_mesh(mesh, 4))
    plan = exchange_plan(mesh, layout)
    programs = list(plan.programs)
    u = np.linspace(0, 1, mesh.n_nodes)
    for _ in range(2):
        distributed_matvec(mesh, layout, u, SimComm(4))
        assert exchange_plan(mesh, layout) is plan
        assert all(a is b for a, b in zip(programs, plan.programs))
    for r, prog in enumerate(plan.programs):
        lo, hi = layout.splits[r], layout.splits[r + 1]
        assert prog.n_elem == hi - lo
        assert prog.scatter(1).shape == (
            len(layout.ref_nodes[r]), (hi - lo) * mesh.npe)
    refined = mesh_from_leaves(
        mesh.domain, refine_leaves(mesh.domain, mesh.leaves,
                                   np.arange(mesh.n_elem) % 7 == 0), p=1)
    assert mesh_fingerprint(refined) != plan.fingerprint
    plan_r = exchange_plan(
        refined, analyze_partition(refined, partition_mesh(refined, 4)))
    assert plan_r.fingerprint == mesh_fingerprint(refined)
    assert not any(a is b for a in programs for b in plan_r.programs)
    with pytest.raises(ValueError, match="different mesh"):
        exchange_plan(refined, layout)


# -- obs spans survive the refactor -------------------------------------


def _span_paths(doc: dict) -> set:
    from repro.obs.regress import flatten_spans

    return set(flatten_spans(doc))


def test_matvec_spans_preserved(sphere_mesh):
    mesh = sphere_mesh
    layout = analyze_partition(mesh, partition_mesh(mesh, 3))
    exchange_plan(mesh, layout)  # plan build outside the traced region
    u = np.linspace(0, 1, mesh.n_nodes)
    obs.reset()
    obs.enable()
    try:
        distributed_matvec(mesh, layout, u, SimComm(3))
        MapBasedMatVec(mesh)(u)
        traversal_matvec(mesh, u)
        doc = obs.collect("span-preservation")
    finally:
        obs.disable()
    paths = _span_paths(doc)
    expected = {
        "matvec.exchange.pre",
        "matvec.exchange.post",
        "matvec.rank",
        "matvec.rank/matvec.top_down",
        "matvec.rank/matvec.leaf",
        "matvec.rank/matvec.bottom_up",
        "matvec.apply",
        "matvec.traversal",
        "matvec.traversal/matvec.top_down",
        "matvec.traversal/matvec.leaf",
        "matvec.traversal/matvec.bottom_up",
    }
    assert expected <= paths, f"missing spans: {expected - paths}"


def test_trace_diff_no_counter_drift(sphere_mesh):
    """Two identical runs produce artifacts with zero counter drift on
    the deterministic matvec counters (the Fig 7 breakdown inputs)."""
    from repro.obs.regress import diff_artifacts

    mesh = sphere_mesh
    layout = analyze_partition(mesh, partition_mesh(mesh, 3))
    u = np.linspace(0, 1, mesh.n_nodes)

    def run():
        obs.reset()
        obs.enable()
        try:
            distributed_matvec(mesh, layout, u, SimComm(3))
            traversal_matvec(mesh, u)
            return obs.collect("drift-check")
        finally:
            obs.disable()

    base, new = run(), run()
    deltas = diff_artifacts(base, new, tol=1e9)  # time deltas irrelevant
    matvec_deltas = [d for d in deltas if d.path.startswith("matvec")]
    assert matvec_deltas, "no matvec spans recorded"
    for d in matvec_deltas:
        assert d.status not in ("added", "removed"), d.path
        assert not d.counter_deltas, (d.path, d.counter_deltas)
