"""Owned/ghost node analysis for partitioned incomplete-octree meshes.

Node ownership follows the first-touch SFC rule: a node is owned by the
rank owning the first element (in SFC order) that references it.  Ghost
nodes of a rank are the nodes its elements reference but does not own —
the quantities behind Fig. 11 (ghost distribution, η = N_G/N_L) and the
communication volumes of the scaling studies.

:class:`ExchangePlan` turns a :class:`PartitionLayout` into a
*persistent* ghost-exchange plan: the per-(rank, neighbour) send/recv
index arrays and the rank-local restricted gather operators that the
distributed MATVEC needs on every apply, precomputed once.  Krylov
solvers hit :func:`repro.parallel.dist_matvec.distributed_matvec` once
per iteration, so hoisting this derivation out of the call is the
distributed half of the operator-plan layer
(:mod:`repro.core.plan`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..core.mesh import IncompleteMesh
from ..core.plan import mesh_fingerprint, operator_context
from ..obs import set_gauge, span

__all__ = [
    "PartitionLayout",
    "analyze_partition",
    "ExchangePlan",
    "exchange_plan",
    "update_exchange_plan",
]


@dataclass
class PartitionLayout:
    """Everything the distributed MATVEC needs to know about a partition."""

    splits: np.ndarray              # (nranks+1,) element range bounds
    node_owner: np.ndarray          # (n_glob,) owning rank per node
    owned_counts: np.ndarray        # (nranks,) nodes owned per rank
    ghost_counts: np.ndarray        # (nranks,) ghost nodes per rank
    local_counts: np.ndarray        # (nranks,) referenced nodes per rank
    ref_nodes: list[np.ndarray]     # per rank: all referenced global ids
    ghost_nodes: list[np.ndarray]   # per rank: global ids of its ghosts
    ghost_sources: list[np.ndarray]  # per rank: owner rank of each ghost
    neighbor_ranks: list[np.ndarray]  # per rank: distinct exchange partners

    @property
    def nranks(self) -> int:
        return len(self.splits) - 1

    def eta(self) -> np.ndarray:
        """η = N_G / N_L per rank (ghost / locally-owned-and-referenced)."""
        own_ref = self.local_counts - self.ghost_counts
        own_ref = np.maximum(own_ref, 1)
        return self.ghost_counts / own_ref

    def ghost_bytes(self, dofs_per_node: int = 1) -> np.ndarray:
        """Bytes exchanged per rank per direction of one ghost exchange."""
        return self.ghost_counts * 8 * dofs_per_node

    def message_counts(self) -> np.ndarray:
        return np.array([len(nr) for nr in self.neighbor_ranks], np.int64)


def analyze_partition(mesh: IncompleteMesh, splits: np.ndarray) -> PartitionLayout:
    """Compute ownership and ghost structure for SFC-contiguous ranges."""
    with span("partition.analyze") as osp:
        layout = _analyze_partition(mesh, splits)
        osp.add("ranks", layout.nranks)
        osp.add("ghost_total", int(layout.ghost_counts.sum()))
        osp.add("messages_total", int(layout.message_counts().sum()))
        for r in range(layout.nranks):
            set_gauge("partition.ghost_nodes", int(layout.ghost_counts[r]), rank=r)
            set_gauge("partition.owned_nodes", int(layout.owned_counts[r]), rank=r)
    return layout


def _analyze_partition(mesh: IncompleteMesh, splits: np.ndarray) -> PartitionLayout:
    splits = np.asarray(splits, np.int64)
    nranks = len(splits) - 1
    npe = mesh.npe
    g = mesh.nodes.gather.tocsr()
    n_glob = mesh.n_nodes

    # first-touch owner: smallest element index referencing each node.
    # CSC column indices are row-sorted, so the first entry per column
    # is the smallest referencing row.
    gc = g.tocsc()
    first_row = np.full(n_glob, np.iinfo(np.int64).max, np.int64)
    nnz_per_col = np.diff(gc.indptr)
    has = nnz_per_col > 0
    first_row[has] = gc.indices[gc.indptr[:-1][has]]
    if not has.all():
        raise RuntimeError("mesh has nodes referenced by no element")
    owner_elem = first_row // npe
    node_owner = (np.searchsorted(splits, owner_elem, side="right") - 1).astype(
        np.int64
    )

    owned_counts = np.bincount(node_owner, minlength=nranks)
    ghost_counts = np.zeros(nranks, np.int64)
    local_counts = np.zeros(nranks, np.int64)
    ref_nodes: list[np.ndarray] = []
    ghost_nodes: list[np.ndarray] = []
    ghost_sources: list[np.ndarray] = []
    neighbor_ranks: list[np.ndarray] = []
    indptr, indices = g.indptr, g.indices
    for r in range(nranks):
        lo, hi = splits[r], splits[r + 1]
        ref = np.unique(indices[indptr[lo * npe] : indptr[hi * npe]])
        ref_nodes.append(ref)
        local_counts[r] = len(ref)
        gmask = node_owner[ref] != r
        gh = ref[gmask]
        ghost_nodes.append(gh)
        src = node_owner[gh]
        ghost_sources.append(src)
        ghost_counts[r] = len(gh)
        neighbor_ranks.append(np.unique(src))

    return PartitionLayout(
        splits=splits,
        node_owner=node_owner,
        owned_counts=owned_counts,
        ghost_counts=ghost_counts,
        local_counts=local_counts,
        ref_nodes=ref_nodes,
        ghost_nodes=ghost_nodes,
        ghost_sources=ghost_sources,
        neighbor_ranks=neighbor_ranks,
    )


class ExchangePlan:
    """Persistent ghost-exchange + rank-local operator plan (§3.5).

    Precomputes, once per (mesh fingerprint, layout):

    * ``send_ids[(owner, user)]`` — global node ids whose values the
      owner rank ships to the user rank in the pre-exchange (and where
      the returned ghost contributions accumulate in the post-exchange);
    * ``ghost_pos[(owner, user)]`` — the positions of those ghosts in
      the user rank's local (referenced-node) index space;
    * ``g_loc[r]`` — rank ``r``'s rows of the gather operator with
      columns remapped into its local index space (CSR);
    * ``mine[r]`` / ``owned_ids[r]`` — the locally owned subset of the
      referenced nodes and their global ids.

    ``distributed_matvec`` consumes these arrays directly, so repeated
    distributed applies no longer re-derive exchange dicts or re-CSR the
    gather on every call.
    """

    def __init__(
        self,
        mesh: IncompleteMesh,
        layout: PartitionLayout,
        _reuse: "dict[int, tuple[sp.csr_matrix, sp.csc_matrix]] | None" = None,
    ):
        ctx = operator_context(mesh)
        self.mesh = mesh
        self.layout = layout
        self.ctx = ctx
        self.fingerprint = ctx.fingerprint
        self.npe = mesh.npe
        self.h = ctx.h
        g = ctx.gather
        npe = mesh.npe
        splits = layout.splits
        nranks = layout.nranks
        self.mine: list[np.ndarray] = []
        self.owned_ids: list[np.ndarray] = []
        self.g_loc: list[sp.csr_matrix | None] = []
        self.g_loc_T: list[sp.csc_matrix | None] = []
        self.send_ids: dict[tuple[int, int], np.ndarray] = {}
        self.ghost_pos: dict[tuple[int, int], np.ndarray] = {}
        self.reused_ranks = 0
        for r in range(nranks):
            self._build_rank_exchange(layout, r)
            lo, hi = splits[r], splits[r + 1]
            if hi <= lo:
                self.g_loc.append(None)
                self.g_loc_T.append(None)
                continue
            if _reuse is not None and r in _reuse:
                g_loc, g_loc_T = _reuse[r]
                self.g_loc.append(g_loc)
                self.g_loc_T.append(g_loc_T)
                self.reused_ranks += 1
                continue
            g_loc = self._build_rank_operator(g, layout, r, npe)
            self.g_loc.append(g_loc)
            # the CSC transpose shares g_loc's arrays; prebuilding it
            # keeps scipy's per-call transpose wrapper off the hot path
            self.g_loc_T.append(g_loc.T)

    def _build_rank_exchange(self, layout: PartitionLayout, r: int) -> None:
        """Per-rank send/recv index arrays and ownership masks (cheap)."""
        ref = layout.ref_nodes[r]
        gh, src = layout.ghost_nodes[r], layout.ghost_sources[r]
        mine = layout.node_owner[ref] == r
        self.mine.append(mine)
        self.owned_ids.append(ref[mine])
        gpos = np.searchsorted(ref, gh)
        for owner in layout.neighbor_ranks[r]:
            sel = src == owner
            self.send_ids[(int(owner), r)] = gh[sel]
            self.ghost_pos[(int(owner), r)] = gpos[sel]

    @staticmethod
    def _build_rank_operator(
        g: sp.csr_matrix, layout: PartitionLayout, r: int, npe: int
    ) -> sp.csr_matrix:
        """Rank ``r``'s gather rows with columns remapped into its local
        (referenced-node) index space — the expensive per-rank piece."""
        lo, hi = layout.splits[r], layout.splits[r + 1]
        ref = layout.ref_nodes[r]
        g_r = g[lo * npe : hi * npe]
        local_cols = np.searchsorted(ref, g_r.indices)
        return sp.csr_matrix(
            (g_r.data, local_cols, g_r.indptr),
            shape=(g_r.shape[0], len(ref)),
        )

    def gather_rank(self, r: int, u_loc_vec: np.ndarray) -> np.ndarray:
        """Rank ``r``'s element gather through the kernel facade:
        local ghosted vector → ``(n_owned_elem, npe)`` slot matrix."""
        from ..kernels import api as kernels

        lo, hi = self.layout.splits[r], self.layout.splits[r + 1]
        return kernels.gather(self.g_loc[r], u_loc_vec).reshape(
            hi - lo, self.npe
        )

    def scatter_rank(self, r: int, w_elem: np.ndarray) -> np.ndarray:
        """Rank ``r``'s bottom-up accumulation through the kernel
        facade: elemental results → rank-local node contributions."""
        from ..kernels import api as kernels

        return kernels.scatter(self.g_loc_T[r], w_elem.reshape(-1))

    def nbytes(self) -> int:
        """Resident bytes of the plan's index/operator arrays — the
        memory price of persisting the exchange plan, reported by the
        resilience overhead benchmark alongside checkpoint volume."""
        total = 0
        for arrs in (self.mine, self.owned_ids):
            total += sum(a.nbytes for a in arrs)
        for d in (self.send_ids, self.ghost_pos):
            total += sum(a.nbytes for a in d.values())
        for m in self.g_loc:
            if m is not None:
                total += m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        return total


def exchange_plan(mesh: IncompleteMesh, layout: PartitionLayout) -> ExchangePlan:
    """The layout's cached :class:`ExchangePlan`.

    Cached on the layout object behind the mesh content fingerprint:
    reusing a layout against a refined/coarsened mesh (new fingerprint)
    rebuilds the plan instead of reusing stale index arrays.
    """
    plan = getattr(layout, "_exchange_plan", None)
    if (
        plan is not None
        and plan.mesh is mesh
        and plan.fingerprint == mesh_fingerprint(mesh)
    ):
        return plan
    with span("plan.exchange_build") as osp:
        plan = ExchangePlan(mesh, layout)
        osp.add("ranks", layout.nranks)
    layout._exchange_plan = plan
    return plan


def update_exchange_plan(
    mesh: IncompleteMesh, layout: PartitionLayout, old_plan: ExchangePlan
) -> ExchangePlan:
    """Build ``mesh``'s :class:`ExchangePlan`, reusing per-rank operators
    from ``old_plan`` where the incremental plan delta proves them valid.

    ``mesh`` must come out of :func:`repro.core.plan_delta.update_mesh`
    (it carries a :class:`~repro.core.plan_delta.PlanUpdateReport`).  A
    rank's restricted gather ``g_loc[r]`` is bit-identical to a fresh
    build — and therefore reused — when

    * its element window is unchanged (same splits) and every element in
      it is *clean* (its gather row was spliced, not recomputed), and
    * its referenced-node set maps elementwise through the old→new
      ``gid_map`` onto the new referenced set (no node in the window
      vanished or appeared; the monotone gid_map preserves the local
      column order).

    All cheap per-rank index arrays (send/recv ids, ownership masks) are
    rebuilt fresh from ``layout`` — they live in *global* node ids, which
    shift under the delta.  Ranks failing the conditions rebuild their
    operator exactly as :class:`ExchangePlan` would.
    """
    report = getattr(mesh, "_plan_update", None)
    if report is None or not report.incremental:
        return exchange_plan(mesh, layout)
    gid_map = report.gid_map
    clean = report.clean_new
    ol = old_plan.layout
    reuse: dict[int, tuple[sp.csr_matrix, sp.csc_matrix]] = {}
    for r in range(layout.nranks):
        lo, hi = int(layout.splits[r]), int(layout.splits[r + 1])
        if hi <= lo or r >= ol.nranks:
            continue
        if int(ol.splits[r]) != lo or int(ol.splits[r + 1]) != hi:
            continue
        if old_plan.g_loc[r] is None or not clean[lo:hi].all():
            continue
        mapped = gid_map[ol.ref_nodes[r]]
        if (mapped < 0).any() or not np.array_equal(
            mapped, layout.ref_nodes[r]
        ):
            continue
        reuse[r] = (old_plan.g_loc[r], old_plan.g_loc_T[r])
    with span("plan.exchange_update") as osp:
        plan = ExchangePlan(mesh, layout, _reuse=reuse)
        osp.add("ranks", layout.nranks)
        osp.add("ranks_reused", plan.reused_ranks)
    layout._exchange_plan = plan
    return plan
