"""Cold-path contracts: keys travel with the octants, balance and node
grouping equal their straightforward references, a point is located
once, and the adaptive loop reuses a mesh it is handed.

Every reference implementation in this file is the pre-optimisation code
path, kept here as the oracle the production code must equal bit for
bit."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Domain, build_mesh, mesh_from_leaves
from repro.amr import amr_solve
from repro.core import nodes as nodes_mod
from repro.core.balance import (
    balance_2to1,
    bottom_up_constrain_neighbors,
    is_balanced,
)
from repro.core.construct import construct_adaptive
from repro.core.interpolate import evaluation_matrix, locate_points
from repro.core.nodes import _sort_node_rows
from repro.core.octant import (
    OctantSet,
    max_level,
    neighbors,
    octant_size,
    parent,
)
from repro.core.plan import operator_context
from repro.core.sfc import MortonOrder, cached_keys, get_curve
from repro.core.treesort import remove_duplicates, tree_sort
from repro.fem.basis import LagrangeBasis, local_node_offsets
from repro.geometry import BoxCarve, CarveUnion, SphereCarve

from .oracles.octant import contains
from .oracles.treesort import linearize
from .test_treesort import is_sorted_linear

CURVES = ["morton", "hilbert"]


def _random_octants(rng, dim, n, max_lv=6):
    """Octants with duplicates and ancestor/descendant overlaps."""
    m = max_level(dim)
    levels = rng.integers(0, max_lv + 1, n).astype(np.uint8)
    sizes = octant_size(levels, dim).astype(np.int64)
    anchors = rng.integers(0, 1 << max_lv, (n, dim)) * (1 << (m - max_lv))
    anchors = anchors // sizes[:, None] * sizes[:, None]
    oset = OctantSet(anchors.astype(np.uint32), levels)
    return oset[rng.integers(0, n, n + n // 2)]  # repeats


def _fresh_keys(oset, curve):
    """Keys of the same octants interleaved from scratch."""
    return get_curve(curve).keys(
        OctantSet(oset.anchors.copy(), oset.levels.copy())
    )


def _random_domain(rng, dim):
    parts = [SphereCarve(rng.uniform(0.3, 0.7, dim), rng.uniform(0.08, 0.22))]
    if rng.random() < 0.5:
        lo = rng.uniform(0.1, 0.6, dim)
        parts.append(BoxCarve(lo, np.minimum(lo + rng.uniform(0.1, 0.3, dim), 0.9)))
    return Domain(CarveUnion(parts))


def _same_octants(a, b):
    return (
        a.anchors.tobytes() == b.anchors.tobytes()
        and a.levels.tobytes() == b.levels.tobytes()
    )


# -- (a) keys travel with the octants -------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 3),
    curve=st.sampled_from(CURVES),
)
def test_slices_inherit_keys(seed, dim, curve):
    rng = np.random.default_rng(seed)
    oset = _random_octants(rng, dim, int(rng.integers(1, 60)))
    n = len(oset)
    cached_keys(oset, curve)
    indices = [
        rng.random(n) < 0.5,  # boolean mask
        rng.integers(0, n, 2 * n),  # fancy, with repeats
        np.flatnonzero(rng.random(n) < 0.3),  # possibly empty
        slice(1, None, 2),
        int(rng.integers(0, n)),
        np.int64(rng.integers(0, n)),
    ]
    for idx in indices:
        sub = oset[idx]
        assert curve in sub._sfc_keys  # carried, not recomputed
        got = cached_keys(sub, curve)
        assert got.dtype == np.uint64
        assert np.array_equal(got, _fresh_keys(sub, curve))
        assert not got.flags.writeable
    both = OctantSet.concatenate([oset[indices[0]], oset[indices[1]]])
    assert np.array_equal(both._sfc_keys[curve], _fresh_keys(both, curve))
    assert not both._sfc_keys[curve].flags.writeable


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 3),
    curve=st.sampled_from(CURVES),
)
def test_sort_dedup_linearize_carry_correct_keys(seed, dim, curve):
    rng = np.random.default_rng(seed)
    oset = _random_octants(rng, dim, int(rng.integers(1, 60)))
    outputs = [
        tree_sort(oset, curve)[0],
        remove_duplicates(oset, curve),
        linearize(oset, curve, prefer="finer"),
        linearize(oset, curve, prefer="coarser"),
    ]
    for out in outputs:
        assert curve in out._sfc_keys
        keys = cached_keys(out, curve)
        assert np.array_equal(keys, _fresh_keys(out, curve))
        assert not keys.flags.writeable
    assert is_sorted_linear(outputs[2], curve)


def test_new_arrays_never_inherit_a_cache():
    oset = _random_octants(np.random.default_rng(0), 3, 20)
    keys = cached_keys(oset, "hilbert")
    rebuilt = OctantSet(oset.anchors, oset.levels)
    assert rebuilt._sfc_keys == {}
    # one curve's cache is not another's
    assert set(oset[::2]._sfc_keys) == {"hilbert"}
    mixed = OctantSet.concatenate([oset, rebuilt])
    assert mixed._sfc_keys == {}
    with pytest.raises(ValueError):
        keys[0] = 0


def test_linearize_interleaves_once(monkeypatch):
    calls = []
    real = MortonOrder.keys

    def counting(self, oset):
        calls.append(len(oset))
        return real(self, oset)

    monkeypatch.setattr(MortonOrder, "keys", counting)
    oset = _random_octants(np.random.default_rng(3), 3, 50)
    lin = linearize(oset)
    assert is_sorted_linear(lin)
    assert calls == [len(oset)]


# -- (b) balance ------------------------------------------------------------


def _constrain_reference(seeds):
    """The per-tier loop ``bottom_up_constrain_neighbors`` replaced."""
    levels = seeds.levels.astype(np.int64)
    by_level = {
        int(lv): [seeds[np.flatnonzero(levels == lv)]] for lv in np.unique(levels)
    }
    for lv in range(int(levels.max()), 0, -1):
        if lv not in by_level:
            continue
        tier = remove_duplicates(OctantSet.concatenate(by_level[lv]))
        by_level[lv] = [tier]
        nbrs = neighbors(parent(tier))
        if len(nbrs):
            by_level.setdefault(lv - 1, []).append(nbrs)
    parts = [remove_duplicates(OctantSet.concatenate(v)) for v in by_level.values()]
    return remove_duplicates(OctantSet.concatenate(parts))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 3),
    curve=st.sampled_from(CURVES),
)
def test_balance_on_generated_carves(seed, dim, curve):
    rng = np.random.default_rng(seed)
    dom = _random_domain(rng, dim)
    seeds = construct_adaptive(dom, 2, 5 if dim == 2 else 4, curve)
    assert _same_octants(
        bottom_up_constrain_neighbors(seeds), _constrain_reference(seeds)
    )
    out = balance_2to1(dom, seeds, curve)
    assert is_balanced(out, curve)
    assert is_sorted_linear(out, curve)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 3))
def test_constrain_neighbors_on_arbitrary_seeds(seed, dim):
    rng = np.random.default_rng(seed)
    seeds = _random_octants(rng, dim, int(rng.integers(1, 40)))
    assert _same_octants(
        bottom_up_constrain_neighbors(seeds), _constrain_reference(seeds)
    )


def test_neighbors_report_their_source():
    oset = _random_octants(np.random.default_rng(1), 3, 30)
    nbrs, src = neighbors(oset, return_source=True)
    assert _same_octants(nbrs, neighbors(oset))
    assert np.all(np.diff(src) >= 0)
    # a neighbour touches the octant it came from, at the same level
    assert np.array_equal(nbrs.levels, oset.levels[src])
    gap = np.abs(
        nbrs.anchors.astype(np.int64) - oset.anchors.astype(np.int64)[src]
    )
    assert np.all(gap.max(axis=1) == oset.sizes.astype(np.int64)[src])


# -- (c) node grouping --------------------------------------------------------


def _element_node_coords(leaves, offsets, p):
    """Per-element node coords ``(n_elem, n_off, dim)`` in 2p units — the
    per-slot coordinate array the production build never forms."""
    a = leaves.anchors.astype(np.int64)
    s = leaves.sizes.astype(np.int64)
    return 2 * p * a[:, None, :] + offsets[None, :, :] * s[:, None, None]


def _group_reference(all_coords):
    """Multi-column lexsort grouping of materialised coordinate rows."""
    order = np.lexsort(all_coords.T)
    sc = all_coords[order]
    new = np.ones(len(sc), bool)
    new[1:] = np.any(sc[1:] != sc[:-1], axis=1)
    gid_sorted = np.cumsum(new) - 1
    return order, gid_sorted, order[new]


def _all_node_coords(leaves, p):
    dim = leaves.dim
    ordinary = _element_node_coords(leaves, 2 * local_node_offsets(p, dim), p)
    canc = _element_node_coords(leaves, nodes_mod.cancellation_offsets(p, dim), p)
    return np.concatenate([ordinary.reshape(-1, dim), canc.reshape(-1, dim)])


def _assert_same_groups(got, leaves, p):
    """``_sort_node_rows``'s (order, grp, first) equal the lexsort of the
    materialised rows, tie order included (both sorts are stable)."""
    want = _group_reference(_all_node_coords(leaves, p))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 3),
    p=st.integers(1, 2),
)
def test_group_coords_packed_equals_lexsort(seed, dim, p):
    rng = np.random.default_rng(seed)
    mesh = build_mesh(_random_domain(rng, dim), 2, 4 if dim == 2 else 3, p=p)
    _assert_same_groups(_sort_node_rows(mesh.leaves, p), mesh.leaves, p)


def _corner_chain(dim, depth):
    """Root refined ``depth`` times towards the origin corner."""
    m = max_level(dim)
    offs = local_node_offsets(1, dim)  # {0,1}^dim, origin first
    anchors, levels = [], []
    for lv in range(1, depth + 1):
        keep = offs if lv == depth else offs[1:]
        anchors.append(keep * (1 << (m - lv)))
        levels.append(np.full(len(keep), lv))
    oset = OctantSet(
        np.concatenate(anchors).astype(np.uint32),
        np.concatenate(levels).astype(np.uint8),
    )
    return tree_sort(oset)[0]


def test_group_coords_overflow_branch_at_max_level(monkeypatch):
    leaves = _corner_chain(3, max_level(3))
    assert int(leaves.levels.max()) == max_level(3)
    assert is_balanced(leaves)
    lexsorts = []
    real = np.lexsort
    monkeypatch.setattr(
        np, "lexsort", lambda keys: lexsorts.append(1) or real(keys)
    )
    got = _sort_node_rows(leaves, 1)
    assert lexsorts == [1]  # too wide to pack
    monkeypatch.undo()
    _assert_same_groups(got, leaves, 1)
    # and the whole enumeration stands on it
    dom = Domain(SphereCarve([5.0, 5.0, 5.0], 0.1))  # carves nothing
    mesh = mesh_from_leaves(dom, leaves, p=1, balance=False)
    g = mesh.nodes.gather
    assert np.abs(g @ np.ones(mesh.n_nodes) - 1.0).max() == 0.0
    # a shallower chain of the same shape packs
    shallow = _corner_chain(3, 6)
    monkeypatch.setattr(
        np, "lexsort", lambda keys: lexsorts.append(1) or real(keys)
    )
    _sort_node_rows(shallow, 1)
    assert lexsorts == [1]


# -- (d) point location and evaluation ---------------------------------------


def _chained_mesh(dim, p):
    """A hand-built mesh whose carve leaves *chained* hanging nodes.

    2-D layout (extruded along z in 3-D): a level-1 cell A, level-2
    cells B beside it, and level-3 cells C beside B whose members
    touching A are carved away — so a C node hangs on a B edge whose end
    point itself hangs on A.  The construction stack never produces this
    (balancing keeps carved seeds); ``balance=False`` lets us build it.
    """
    cells = [
        (0, 0, 1), (0, 0.5, 1),
        (0.5, 0, 2), (0.75, 0, 2), (0.75, 0.25, 2), (0.5, 0.5, 2),
        (0.75, 0.5, 2), (0.5, 0.75, 2), (0.75, 0.75, 2),
        (0.625, 0.25, 3), (0.625, 0.375, 3),
    ]
    m = max_level(dim)
    anchors, levels = [], []
    for x, y, lv in cells:
        xy = (int(x * (1 << m)), int(y * (1 << m)))
        for k in range(1 << lv if dim == 3 else 1):
            anchors.append(xy + ((k << (m - lv),) if dim == 3 else ()))
            levels.append(lv)
    leaves = tree_sort(
        OctantSet(np.array(anchors, np.uint32), np.array(levels, np.uint8))
    )[0]
    lo, hi = [0.5, 0.25], [0.625, 0.5]
    if dim == 3:
        lo, hi = lo + [-1.0], hi + [2.0]
    return mesh_from_leaves(Domain(BoxCarve(lo, hi)), leaves, p=p, balance=False)


def _n_chained_slots(mesh):
    """Hanging slots whose donor row itself has a weighted hanging slot."""
    en = mesh.nodes.elem_nodes
    he, hi = np.nonzero(en < 0)
    # every slot its own position: one donor search per slot
    don, xi, inv = nodes_mod._find_donors(
        mesh.domain, mesh.leaves, he, hi, np.arange(len(he)), mesh.p, mesh.curve
    )
    W = LagrangeBasis(mesh.p, mesh.dim).eval(xi)[inv]
    return int(np.any((np.abs(W) >= 1e-12) & (en[don[inv]] < 0), axis=1).sum())


def _locate_reference(mesh, pts):
    """Every point probed in all ``2^dim`` directions; first hit wins."""
    dim = mesh.dim
    m = max_level(dim)
    plan = operator_context(mesh).traversal
    oracle, keys, ends = plan.oracle, plan.keys, plan.ends
    frac = np.asarray(pts, float) / mesh.domain.scale * (1 << m)
    out = np.full(len(frac), -1, np.int64)
    for d in 2 * local_node_offsets(1, dim) - 1:
        cand = np.floor(frac + 0.25 * d).astype(np.int64)
        ok_dom = np.all((cand >= 0) & (cand < (1 << m)), axis=1)
        cand = np.clip(cand, 0, (1 << m) - 1)
        ck = oracle.keys_from_coords(cand.astype(np.uint32), dim)
        idx = np.searchsorted(keys, ck, side="right") - 1
        idxc = np.clip(idx, 0, len(keys) - 1)
        hit = ok_dom & (idx >= 0) & (ck >= keys[idxc]) & (ck < ends[idxc])
        lo = mesh.leaves.anchors.astype(np.int64)[idxc]
        hi = lo + mesh.leaves.sizes.astype(np.int64)[idxc][:, None]
        hit &= np.all((frac >= lo - 1e-9) & (frac <= hi + 1e-9), axis=1)
        out = np.where((out < 0) & hit, idxc, out)
    return out


def _evaluation_reference(mesh, pts):
    """The per-point loop ``evaluation_matrix`` replaced (non-strict)."""
    dim, p, npe = mesh.dim, mesh.p, mesh.npe
    m = max_level(dim)
    leaf = _locate_reference(mesh, pts)
    found = leaf >= 0
    frac = np.asarray(pts, float) / mesh.domain.scale * (1 << m)
    safe = np.where(found, leaf, 0)
    a = mesh.leaves.anchors.astype(np.int64)[safe]
    s = mesh.leaves.sizes.astype(np.int64)[safe]
    N = LagrangeBasis(p, dim).eval(np.clip((frac - a) / s[:, None], 0.0, 1.0))
    g = operator_context(mesh).gather
    indptr, indices, data = g.indptr, g.indices, g.data
    rows, cols, vals = [], [], []
    for i in np.flatnonzero(found):
        e = int(leaf[i])
        r0, r1 = indptr[e * npe], indptr[(e + 1) * npe]
        slot = np.repeat(
            np.arange(npe), np.diff(indptr[e * npe : (e + 1) * npe + 1])
        )
        w = N[i, slot] * data[r0:r1]
        nz = w != 0.0
        rows.append(np.full(int(nz.sum()), i, np.int64))
        cols.append(indices[r0:r1][nz])
        vals.append(w[nz])
    if rows:
        E = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(pts), mesh.n_nodes),
        )
    else:
        E = sp.csr_matrix((len(pts), mesh.n_nodes))
    E.sum_duplicates()
    return E, found


def _probe_points(mesh, rng):
    """Integer anchor-unit points: element interiors, every element
    vertex / edge / face midpoint, the carved region, outside the cube."""
    dim = mesh.dim
    m = max_level(dim)
    a = mesh.leaves.anchors.astype(np.int64)
    s = mesh.leaves.sizes.astype(np.int64)
    interior = a + 1 + rng.integers(0, s[:, None] - 1, (len(a), dim))
    grid = local_node_offsets(2, dim)  # {0,1,2}^dim: corners, edges, faces
    boundary = (a[:, None, :] + grid[None] * (s[:, None, None] // 2)).reshape(-1, dim)
    anywhere = rng.integers(0, 1 << m, (300, dim))  # carved region included
    outside = rng.integers(0, 1 << m, (40, dim))
    outside[np.arange(40), rng.integers(0, dim, 40)] = rng.choice(
        [-(1 << (m - 4)), (1 << m) + (1 << (m - 4))], 40
    )
    return np.concatenate([interior, boundary, anywhere, outside])


_INTERP_MESHES = {
    "chained-2d-p1": lambda: _chained_mesh(2, 1),
    "chained-2d-p2": lambda: _chained_mesh(2, 2),
    "chained-3d-p1": lambda: _chained_mesh(3, 1),
    "disk-2d-p2": lambda: build_mesh(
        Domain(SphereCarve([0.47, 0.52], 0.21)), 2, 5, p=2
    ),
    "sphere-3d-p1-hilbert": lambda: build_mesh(
        Domain(SphereCarve([0.5, 0.45, 0.55], 0.24)), 2, 4, p=1, curve="hilbert"
    ),
}


@pytest.fixture(scope="module", params=list(_INTERP_MESHES))
def mesh(request):
    return _INTERP_MESHES[request.param]()


def test_chained_meshes_have_chains():
    assert _n_chained_slots(_chained_mesh(2, 1)) > 0
    assert _n_chained_slots(_chained_mesh(3, 1)) > 0


def test_locate_points_against_brute_force(mesh):
    rng = np.random.default_rng(mesh.n_elem)
    ipts = _probe_points(mesh, rng)
    pts = ipts / float(1 << max_level(mesh.dim)) * mesh.domain.scale
    leaf = locate_points(mesh, pts)
    inside = contains(mesh.leaves, ipts)  # (n_elem, P), closed cells
    has_leaf = inside.any(axis=0)
    assert np.array_equal(leaf >= 0, has_leaf)
    hit = np.flatnonzero(has_leaf)
    assert inside[leaf[hit], hit].all()
    assert has_leaf[: mesh.n_elem * (1 + 3**mesh.dim)].all()
    assert not has_leaf[-40:].any()
    assert (~has_leaf[:-40]).any()  # some probes fell in the carve
    assert np.array_equal(leaf, _locate_reference(mesh, pts))


def test_evaluation_matrix_equals_per_point_loop(mesh):
    rng = np.random.default_rng(mesh.n_elem + 1)
    ipts = _probe_points(mesh, rng)
    pts = ipts / float(1 << max_level(mesh.dim)) * mesh.domain.scale
    pts = np.concatenate([pts, rng.random((200, mesh.dim)) * 1.2 - 0.1])
    E, found = evaluation_matrix(mesh, pts, strict=False)
    R, rfound = _evaluation_reference(mesh, pts)
    assert np.array_equal(found, rfound) and not found.all()
    for name in ("data", "indices", "indptr"):
        got, want = getattr(E, name), getattr(R, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    with pytest.raises(ValueError, match="outside the mesh"):
        evaluation_matrix(mesh, pts)
    # strict on points that are all inside; and no point at all
    Es, fs = evaluation_matrix(mesh, pts[found])
    assert fs.all() and np.array_equal(Es.data, E[np.flatnonzero(found)].data)
    E0, f0 = evaluation_matrix(mesh, pts[~found], strict=False)
    R0, _ = _evaluation_reference(mesh, pts[~found])
    assert E0.nnz == 0 and not f0.any() and E0.shape == R0.shape
    assert E0.indptr.dtype == R0.indptr.dtype


# -- (e) the adaptive loop reuses the mesh it is handed ----------------------


@pytest.mark.parametrize("dim", [2, 3])
def test_amr_solve_accepts_its_level0_mesh(dim):
    dom = Domain(SphereCarve([0.5] * dim, 0.2))
    kw = dict(f=1.0, base_level=3, boundary_level=4, max_cycles=2)
    mesh = build_mesh(dom, 3, 4)
    leaves_before = mesh.leaves.anchors.tobytes()
    handed = amr_solve(dom, mesh=mesh, **kw)
    assert handed.digest() == amr_solve(dom, **kw).digest()
    assert handed.history[0]["n_elem"] == mesh.n_elem
    assert mesh.leaves.anchors.tobytes() == leaves_before


def test_amr_request_meshes_its_geometry_once(monkeypatch):
    import repro.amr.loop as amr_loop
    import repro.core.mesh as core_mesh
    from repro.serve import SolveRequest, SolverClient, SolverService

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return construct_adaptive(*args, **kwargs)

    monkeypatch.setattr(core_mesh, "construct_adaptive", counting)
    monkeypatch.setattr(amr_loop, "construct_adaptive", counting)
    geometry = {"shape": "sphere", "center": (0.5, 0.5, 0.5), "radius": 0.2}
    request = SolveRequest(
        geometry=geometry, pde="amr", base_level=3, boundary_level=4,
        amr_cycles=1, f=1.5,
    )
    resp = SolverClient(SolverService()).solve(request)
    assert (resp.status, resp.reason) == ("ok", "converged")
    assert calls == [(3, 4)]
    # same answer as the stand-alone loop, which builds its own mesh
    from repro.serve.api import solution_digest

    alone = amr_solve(
        Domain(SphereCarve(geometry["center"], geometry["radius"])), f=1.0,
        base_level=3, boundary_level=4,
        max_cycles=1, rtol=request.tol,
    )
    assert resp.solution_digest == solution_digest(alone.u * 1.5)
    assert len(calls) == 2
