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

Memory contract: the build holds no per-slot coordinate array.  Every
ordinary and cancellation row is written straight from the leaves'
anchors and sizes into one sort key (a packed int64 word, or one column
per axis past 63 bits), each temporary is dropped after its last use,
and only the independent nodes' coordinates are ever formed.  The donor
search runs once per distinct hanging position, not once per hanging
slot; the strictly-coarser check still covers every slot.
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
    out = k[on_boundary & has_odd]
    out.flags.writeable = False  # shared by every build through the cache
    return out


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
    """

    p: int
    dim: int
    coords: np.ndarray
    elem_nodes: np.ndarray
    gather: sp.csr_matrix
    carved_node: np.ndarray
    domain_boundary: np.ndarray
    h_node: float  # physical length of one 2p-scaled unit

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


def _sort_node_rows(leaves: OctantSet, p: int):
    """Sort every element's ordinary and cancellation node rows by
    coordinate, last axis most significant.

    Row ``e·npe + i`` is ordinary node ``i`` of element ``e``; row
    ``n_elem·npe + e·n_canc + k`` is its cancellation position ``k``.
    Returns ``(order, grp, first)``: ``order`` sorts the rows (stable),
    ``grp[r]`` is the group id of row ``order[r]`` — equal coordinates
    share an id, ids ascend in sorted order — and ``first[g]`` is the
    first row of group ``g``.

    No row is ever built as a coordinate triple.  Every coordinate is a
    non-negative multiple of the finest leaf side, so each axis is
    written straight from ``anchors`` / ``sizes`` in units of that side,
    and when one row's quotients fit a 63-bit word the rows are packed
    into one int64 word each and sorted as words — same order, one key.
    The multi-column lexsort is left to rows too wide to pack (leaves
    near ``max_level``).
    """
    dim = leaves.dim
    offsets = (2 * local_node_offsets(p, dim), cancellation_offsets(p, dim))
    a = leaves.anchors.astype(np.int64)
    s = leaves.sizes.astype(np.int64)
    shift = int(s.min()).bit_length() - 1
    a >>= shift
    s >>= shift
    n_elem = len(s)
    n = n_elem * sum(len(off) for off in offsets)
    bits = (2 * p * int((a + s[:, None]).max())).bit_length()

    def axis(j: int) -> np.ndarray:
        """Axis ``j`` of every row, ``2p·a + offset·s``."""
        col = np.empty(n, np.int64)
        lo = 0
        for off in offsets:
            part = col[lo : lo + n_elem * len(off)].reshape(n_elem, len(off))
            np.multiply(s[:, None], off[:, j], out=part)
            part += 2 * p * a[:, j, None]
            lo += part.size
        return col

    if dim * bits <= 63:
        keys = [axis(0)]
        for j in range(1, dim):
            col = axis(j)
            col <<= j * bits
            keys[0] |= col
            del col
        order = np.argsort(keys[0], kind="stable")
    else:
        keys = [axis(j) for j in range(dim)]
        order = np.lexsort(keys)
    new = np.zeros(n, bool)
    new[0] = True
    while keys:
        key = keys.pop()[order]
        new[1:] |= key[1:] != key[:-1]
        del key
    grp = np.cumsum(new)
    grp -= 1
    return order, grp, order[new]


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
    n_ord = n_elem * npe

    order, grp, first = _sort_node_rows(leaves, p)
    canc = order >= n_ord  # sorted rows that are cancellation instances
    grp_has_canc = np.zeros(len(first), bool)
    grp_has_canc[grp[canc]] = True
    ordinary = ~canc
    del canc
    row_grp = np.empty(n_ord, np.int64)  # group of every ordinary row
    row_grp[order[ordinary]] = grp[ordinary]
    del order, grp, ordinary

    # independent DOFs: ordinary-only coordinates; a DOF group holds no
    # cancellation row, so its first row is an ordinary one
    is_dof_grp = np.zeros(len(first), bool)
    is_dof_grp[row_grp] = True
    is_dof_grp &= ~grp_has_canc
    del grp_has_canc
    gid_of_grp = np.full(len(first), -1, np.int64)
    gid_of_grp[is_dof_grp] = np.arange(int(is_dof_grp.sum()))
    rep_e, rep_i = np.divmod(first[is_dof_grp], npe)
    del first, is_dof_grp
    coords = 2 * p * leaves.anchors[rep_e].astype(np.int64)
    coords += 2 * ord_off[rep_i] * leaves.sizes[rep_e].astype(np.int64)[:, None]

    elem_nodes = gid_of_grp[row_grp].reshape(n_elem, npe)
    del gid_of_grp

    # --- hanging-slot interpolation -------------------------------------
    hang_e, hang_i = np.nonzero(elem_nodes < 0)
    position = row_grp[hang_e * npe + hang_i]
    del row_grp
    # direct (non-hanging) slots
    ok = np.flatnonzero(elem_nodes >= 0)
    rows_list, cols_list = [ok], [elem_nodes.ravel()[ok]]
    vals_list = [np.ones(len(ok))]

    if len(hang_e):
        don, xi, inv = _find_donors(
            domain, leaves, hang_e, hang_i, position, p, curve
        )
        W = basis.eval(xi)  # (n_positions, npe)
        W[np.abs(W) < 1e-12] = 0.0
        hr, hc, hv = _hanging_entries(
            elem_nodes, hang_e, hang_i, don[inv], W[inv], npe
        )
        rows_list += hr
        cols_list += hc
        vals_list += hv

    n_glob = len(coords)
    gather = sp.csr_matrix(
        (
            np.concatenate(vals_list),
            (np.concatenate(rows_list), np.concatenate(cols_list)),
        ),
        shape=(n_ord, n_glob),
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
    (every slot reachable during the descent must appear in it).

    Returns three lists of arrays ``(rows, cols, vals)``.
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
    position: np.ndarray,
    p: int,
    curve: str,
):
    """Locate the coarse donor element of every hanging slot.

    ``position[h]`` labels the node coordinate of slot
    ``(hang_e[h], hang_i[h])``; slots with one label share one node, so
    the search runs once per label, on its first slot.  Returns
    ``(don, xi, inv)``: per position the donor element index and the
    node's reference coordinates inside it, and per slot its position
    index.  The donor is the coarsest leaf whose closed cell contains
    the hanging coordinate; it is strictly coarser than *every* slot's
    element (guaranteed by the cancellation construction — asserted per
    slot, not per position).
    """
    dim = domain.dim
    m = max_level(dim)
    oracle = get_curve(curve)
    keys = cached_keys(leaves, oracle)
    ends = block_ends(keys, leaves.levels, dim)
    ord_off = local_node_offsets(p, dim)

    _, rep, inv = np.unique(position, return_index=True, return_inverse=True)
    a = leaves.anchors[hang_e[rep]].astype(np.int64)
    s = leaves.sizes[hang_e[rep]].astype(np.int64)
    X = 2 * p * a + 2 * ord_off[hang_i[rep]] * s[:, None]  # (n, dim), 2p units

    # perturb towards each of the 2^dim corners, in 4p-scaled units
    dirs = 2 * local_node_offsets(1, dim) - 1  # (+/-1)^dim
    Q = 2 * X[:, None, :] + dirs[None, :, :]  # (n, 2^dim, dim) in 4p units
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
    score = score.reshape(len(X), -1)
    best = np.argmin(score, axis=1)
    don = idxc.reshape(len(X), -1)[np.arange(len(X)), best]
    best_score = score[np.arange(len(X)), best]
    if np.any(best_score == np.iinfo(np.int64).max):
        raise RuntimeError("hanging node with no containing donor leaf")
    if np.any(leaves.levels[don][inv] >= leaves.levels[hang_e]):
        raise RuntimeError(
            "donor not strictly coarser — mesh is not 2:1 balanced or "
            "node enumeration is inconsistent"
        )
    da = leaves.anchors[don].astype(np.int64)
    ds = leaves.sizes[don].astype(np.int64)
    xi = (X / (2 * p) - da) / ds[:, None]
    return don, xi, inv
