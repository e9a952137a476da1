"""Nodal enumeration on incomplete 2:1-balanced octrees (§3.4).

For a given order p there are ``(p+1)^dim`` nodes per element.  Shared
nodes are deduplicated by sorting integer node coordinates (one packed
word per node wherever the mesh's depth lets a row fit 63 bits); *hanging*
nodes (incident on a coarser neighbour's face/edge) are detected with
the paper's **cancellation node** device: every element also emits
temporary cancellation nodes at the positions where nodes of a
hypothetical one-level-finer neighbour would fall on its boundary.
After sorting, any coordinate carrying a cancellation instance is
hanging and is discarded from the set of independent DOFs.  This works
for arbitrary user-specified geometry, where the "expected instance
count" trick of isotropic domains does not (no hanging nodes may
survive at the carved boundary).

Integer node coordinates live in *2p-scaled anchor units*: the node at
local multi-index ``i`` of an element with anchor ``a`` and side ``s``
sits at ``X = 2p·a + 2·i·s``; cancellation positions are ``2p·a + k·s``
with ``k ∈ {0..2p}^dim`` on the element boundary with some odd
component.

The module also builds the per-element interpolation ("gather")
operator: a sparse matrix mapping global DOF vectors to contiguous
per-element local node vectors, with hanging slots expanded into the
coarse-donor Lagrange weights.  ``gather`` and its transpose are the
algebraic content of the top-down and bottom-up traversals of §3.5; the
traversal MATVEC itself lives in :mod:`repro.core.matvec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ..fem.basis import LagrangeBasis, local_node_offsets
from ..obs import span
from .domain import Domain
from .octant import OctantSet, max_level
from .sfc import cached_keys, get_curve
from .treesort import block_ends

__all__ = ["EmptyMeshError", "MeshNodes", "build_nodes", "cancellation_offsets"]


class EmptyMeshError(ValueError):
    """The leaf set is empty: the carve removed every element."""


@lru_cache(maxsize=None)
def cancellation_offsets(p: int, dim: int) -> np.ndarray:
    """Multi-indices k ∈ {0..2p}^dim of cancellation positions.

    On the element boundary (some ``k`` component is 0 or 2p) and at a
    hypothetical finer neighbour's node that is not an ordinary node
    (some ``k`` component odd).
    """
    axes = [np.arange(2 * p + 1)] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    k = np.stack([g.ravel() for g in grids], axis=1)
    on_boundary = np.any((k == 0) | (k == 2 * p), axis=1)
    has_odd = np.any(k % 2 == 1, axis=1)
    return k[on_boundary & has_odd]


@dataclass
class MeshNodes:
    """Nodal data for an incomplete-octree FEM grid.

    Attributes
    ----------
    coords:
        ``(n_glob, dim)`` int64 global node coordinates in 2p-scaled
        anchor units (independent, non-hanging nodes only).
    elem_nodes:
        ``(n_elem, npe)`` int64 global ids; ``-1`` marks hanging slots.
    gather:
        CSR ``(n_elem*npe, n_glob)``; ``gather @ u`` yields contiguous
        per-element local vectors with hanging slots interpolated.
    carved_node:
        bool ``(n_glob,)``: node lies in the closed carved set C — the
        *subdomain boundary* nodes where Dirichlet data is imposed.
    domain_boundary:
        bool ``(n_glob,)``: node on the boundary of the root cube.
    hang_elem / hang_slot / hang_donor / hang_W:
        raw hanging-slot data, one row per hanging slot in row-major
        ``(elem, slot)`` order: the element and local slot index, the
        donor element, and the ``(npe,)`` donor Lagrange weight row
        (post small-weight zeroing).  This is what the incremental plan
        update (:mod:`repro.core.plan_delta`) needs to re-resolve
        chained hanging rows bit-identically without a full rebuild.
        ``None`` on nodes built by code predating the delta path.
    """

    p: int
    dim: int
    coords: np.ndarray
    elem_nodes: np.ndarray
    gather: sp.csr_matrix
    carved_node: np.ndarray
    domain_boundary: np.ndarray
    h_node: float  # physical length of one 2p-scaled unit
    hang_elem: np.ndarray | None = None
    hang_slot: np.ndarray | None = None
    hang_donor: np.ndarray | None = None
    hang_W: np.ndarray | None = None

    @property
    def n_glob(self) -> int:
        return len(self.coords)

    @property
    def n_elem(self) -> int:
        return len(self.elem_nodes)

    @property
    def npe(self) -> int:
        return (self.p + 1) ** self.dim

    @property
    def n_hanging_slots(self) -> int:
        return int((self.elem_nodes < 0).sum())

    def physical_coords(self) -> np.ndarray:
        """Physical coordinates of the global nodes, ``(n_glob, dim)``."""
        return self.coords.astype(np.float64) * self.h_node


def _element_node_coords(
    leaves: OctantSet, offsets: np.ndarray, p: int
) -> np.ndarray:
    """All per-element node coords ``(n_elem, n_off, dim)`` in 2p units.

    ``offsets`` are multi-indices scaled such that position =
    ``2p·a + offset·s`` (ordinary nodes pass ``2*i``, cancellation
    passes ``k``).
    """
    a = leaves.anchors.astype(np.int64)
    s = leaves.sizes.astype(np.int64)
    return 2 * p * a[:, None, :] + offsets[None, :, :] * s[:, None, None]


def _group_coords(all_coords: np.ndarray, unit: int):
    """Group identical coordinate rows.

    Returns ``(grp, n_groups, first_of_group)`` where ``grp[i]`` is the
    group id of row i (ids ordered by sorted coordinate order, last
    column most significant) and ``first_of_group[g]`` indexes a
    representative row.  Every coordinate is a non-negative multiple of
    the power of two ``unit`` (the finest leaf side), so when the
    quotients of one row fit a 63-bit word the rows are sorted as packed
    words — same order, one key — and the multi-column lexsort is left
    to rows too wide to pack (leaves near ``max_level``).
    """
    n, dim = all_coords.shape
    shift = int(unit).bit_length() - 1
    bits = (int(all_coords.max()) >> shift).bit_length() if n else 0
    new = np.ones(n, bool)
    if dim * bits <= 63:
        word = all_coords[:, 0] >> shift
        for j in range(1, dim):
            word |= (all_coords[:, j] >> shift) << (j * bits)
        order = np.argsort(word, kind="stable")
        sw = word[order]
        new[1:] = sw[1:] != sw[:-1]
    else:
        order = np.lexsort(all_coords.T)
        sc = all_coords[order]
        new[1:] = np.any(sc[1:] != sc[:-1], axis=1)
    gid_sorted = np.cumsum(new) - 1
    grp = np.empty(n, np.int64)
    grp[order] = gid_sorted
    first = order[new]
    return grp, int(gid_sorted[-1]) + 1 if n else 0, first


def build_nodes(
    domain: Domain,
    leaves: OctantSet,
    p: int = 1,
    curve: str = "morton",
) -> MeshNodes:
    """Enumerate independent DOFs and build the gather operator.

    ``leaves`` must be an SFC-sorted, 2:1-balanced linear octree of
    retained octants (the output of the construction + balance stack).
    """
    with span("nodes") as sp:
        nodes = _build_nodes(domain, leaves, p, curve)
        sp.add("n_nodes", nodes.n_glob)
        sp.add("hanging_slots", nodes.n_hanging_slots)
        sp.add("gather_nnz", int(nodes.gather.nnz))
    return nodes


def _build_nodes(
    domain: Domain,
    leaves: OctantSet,
    p: int,
    curve: str,
) -> MeshNodes:
    dim = domain.dim
    m = max_level(dim)
    npe = (p + 1) ** dim
    n_elem = len(leaves)
    if n_elem == 0:
        raise EmptyMeshError("cannot build nodes on an empty mesh")
    basis = LagrangeBasis(p, dim)
    ord_off = local_node_offsets(p, dim)  # (npe, dim), entries 0..p

    node_xyz = _element_node_coords(leaves, 2 * ord_off, p)  # ordinary
    canc_off = cancellation_offsets(p, dim)
    canc_xyz = _element_node_coords(leaves, canc_off, p)

    n_ord = n_elem * npe
    all_coords = np.concatenate(
        [node_xyz.reshape(n_ord, dim), canc_xyz.reshape(-1, dim)]
    )
    is_canc = np.zeros(len(all_coords), bool)
    is_canc[n_ord:] = True

    grp, n_grp, first = _group_coords(all_coords, int(leaves.sizes.min()))
    grp_has_canc = np.zeros(n_grp, bool)
    np.logical_or.at(grp_has_canc, grp[is_canc], True)
    grp_has_ord = np.zeros(n_grp, bool)
    np.logical_or.at(grp_has_ord, grp[~is_canc], True)

    # independent DOFs: ordinary-only coordinates
    is_dof_grp = grp_has_ord & ~grp_has_canc
    gid_of_grp = np.full(n_grp, -1, np.int64)
    gid_of_grp[is_dof_grp] = np.arange(int(is_dof_grp.sum()))
    coords = all_coords[first[is_dof_grp]]

    elem_nodes = gid_of_grp[grp[:n_ord]].reshape(n_elem, npe)

    # --- hanging-slot interpolation -------------------------------------
    hang_e, hang_i = np.nonzero(elem_nodes < 0)
    rows_list, cols_list, vals_list = [], [], []
    # direct (non-hanging) slots
    ok_e, ok_i = np.nonzero(elem_nodes >= 0)
    rows_list.append(ok_e * npe + ok_i)
    cols_list.append(elem_nodes[ok_e, ok_i])
    vals_list.append(np.ones(len(ok_e)))

    if len(hang_e):
        don, xi = _find_donors(domain, leaves, hang_e, hang_i, p, curve)
        W = basis.eval(xi)  # (n_h, npe)
        W[np.abs(W) < 1e-12] = 0.0
        hr, hc, hv = _hanging_entries(elem_nodes, hang_e, hang_i, don, W, npe)
        rows_list += hr
        cols_list += hc
        vals_list += hv
    else:
        don = np.empty(0, np.int64)
        W = np.empty((0, npe))

    n_glob = len(coords)
    gather = sp.csr_matrix(
        (
            np.concatenate(vals_list),
            (np.concatenate(rows_list), np.concatenate(cols_list)),
        ),
        shape=(n_elem * npe, n_glob),
    )
    gather.sum_duplicates()

    h_node = domain.h_unit / (2 * p)
    phys = coords.astype(np.float64) * h_node
    carved_node = domain.carved_points(phys)
    extent = 2 * p * (1 << m)
    domain_boundary = np.any((coords == 0) | (coords == extent), axis=1)

    return MeshNodes(
        p=p,
        dim=dim,
        coords=coords,
        elem_nodes=elem_nodes,
        gather=gather,
        carved_node=carved_node,
        domain_boundary=domain_boundary,
        h_node=h_node,
        hang_elem=hang_e.astype(np.int64),
        hang_slot=hang_i.astype(np.int64),
        hang_donor=don.astype(np.int64),
        hang_W=W,
    )


def _hanging_entries(
    elem_nodes: np.ndarray,
    hang_e: np.ndarray,
    hang_i: np.ndarray,
    don: np.ndarray,
    W: np.ndarray,
    npe: int,
):
    """Gather entries for the given hanging slots.

    ``(hang_e[h], hang_i[h])`` is a hanging slot whose donor element is
    ``don[h]`` with Lagrange weight row ``W[h]``.  Slots whose donor row
    is itself partly hanging are resolved by recursive substitution —
    the slot list must therefore be *closed* under the donor relation
    (every slot reachable during the descent must appear in it; the full
    build passes all slots, the incremental build passes the recompute
    set plus its transitive donor closure).

    Returns three lists of arrays ``(rows, cols, vals)``.  Per-slot
    values depend only on that slot's donor chain data (weights and
    iteration order are chain-local), which is what makes incremental
    re-resolution bit-identical to a full rebuild.
    """
    rows_list: list[np.ndarray] = []
    cols_list: list[np.ndarray] = []
    vals_list: list[np.ndarray] = []
    G = elem_nodes[don]  # (n_h, npe)
    needs_chain = np.any((W != 0) & (G < 0), axis=1)
    easy = np.flatnonzero(~needs_chain)
    if len(easy):
        r = (hang_e[easy] * npe + hang_i[easy])[:, None] * np.ones(
            npe, np.int64
        )
        nz = W[easy] != 0
        rows_list.append(r[nz])
        cols_list.append(G[easy][nz])
        vals_list.append(W[easy][nz])
    hard = np.flatnonzero(needs_chain)
    if len(hard):
        h_index = {
            (int(e), int(i)): h for h, (e, i) in enumerate(zip(hang_e, hang_i))
        }
        memo: dict[tuple[int, int], dict[int, float]] = {}

        def resolve(e: int, i: int) -> dict[int, float]:
            key = (e, i)
            if key in memo:
                return memo[key]
            g = int(elem_nodes[e, i])
            if g >= 0:
                memo[key] = {g: 1.0}
                return memo[key]
            h = h_index[key]
            row: dict[int, float] = {}
            de = int(don[h])
            for k in range(npe):
                w = float(W[h, k])
                if w == 0.0:
                    continue
                for gg, ww in resolve(de, k).items():
                    row[gg] = row.get(gg, 0.0) + w * ww
            memo[key] = row
            return row

        for h in hard:
            e, i = int(hang_e[h]), int(hang_i[h])
            row = resolve(e, i)
            rr = e * npe + i
            for gg, ww in row.items():
                if ww != 0.0:
                    rows_list.append(np.array([rr]))
                    cols_list.append(np.array([gg]))
                    vals_list.append(np.array([ww]))
    return rows_list, cols_list, vals_list


def _find_donors(
    domain: Domain,
    leaves: OctantSet,
    hang_e: np.ndarray,
    hang_i: np.ndarray,
    p: int,
    curve: str,
):
    """Locate the coarse donor element for every hanging slot.

    Returns ``(donor_elem_index, xi)`` where ``xi`` are the hanging
    nodes' reference coordinates inside their donors.  The donor is the
    coarsest leaf whose closed cell contains the hanging coordinate; it
    is strictly coarser than the hanging slot's element (guaranteed by
    the cancellation construction — asserted).
    """
    dim = domain.dim
    m = max_level(dim)
    oracle = get_curve(curve)
    keys = cached_keys(leaves, oracle)
    ends = block_ends(keys, leaves.levels, dim)
    ord_off = local_node_offsets(p, dim)

    a = leaves.anchors.astype(np.int64)[hang_e]
    s = leaves.sizes.astype(np.int64)[hang_e]
    X = 2 * p * a + 2 * ord_off[hang_i] * s[:, None]  # (n_h, dim), 2p units

    # perturb towards each of the 2^dim corners, in 4p-scaled units
    dirs = 2 * local_node_offsets(1, dim) - 1  # (+/-1)^dim
    Q = 2 * X[:, None, :] + dirs[None, :, :]  # (n_h, 2^dim, dim) in 4p units
    extent4 = 4 * p * (1 << m)
    in_dom = np.all((Q > 0) & (Q < extent4), axis=2)
    cell = np.clip(Q // (4 * p), 0, (1 << m) - 1).astype(np.uint64)
    ckeys = oracle.keys_from_coords(cell.reshape(-1, dim).astype(np.uint32), dim)
    idx = np.searchsorted(keys, ckeys, side="right") - 1
    valid = idx >= 0
    idxc = np.clip(idx, 0, len(leaves) - 1)
    contained = valid & (ckeys >= keys[idxc]) & (ckeys < ends[idxc])
    contained &= in_dom.reshape(-1)
    lv = leaves.levels.astype(np.int64)[idxc]
    BIG = np.int64(1) << 40
    score = np.where(contained, lv * BIG + idxc, np.iinfo(np.int64).max)
    score = score.reshape(len(hang_e), -1)
    best = np.argmin(score, axis=1)
    don = idxc.reshape(len(hang_e), -1)[np.arange(len(hang_e)), best]
    best_score = score[np.arange(len(hang_e)), best]
    if np.any(best_score == np.iinfo(np.int64).max):
        raise RuntimeError("hanging node with no containing donor leaf")
    own_level = leaves.levels.astype(np.int64)[hang_e]
    don_level = leaves.levels.astype(np.int64)[don]
    if np.any(don_level >= own_level):
        raise RuntimeError(
            "donor not strictly coarser — mesh is not 2:1 balanced or "
            "node enumeration is inconsistent"
        )
    da = leaves.anchors.astype(np.int64)[don]
    ds = leaves.sizes.astype(np.int64)[don]
    xi = (X / (2 * p) - da) / ds[:, None]
    return don, xi
