"""Owned/ghost node analysis for partitioned incomplete-octree meshes.

Node ownership follows the first-touch SFC rule: a node is owned by the
rank owning the first element (in SFC order) that references it.  Ghost
nodes of a rank are the nodes its elements reference but does not own —
the quantities behind Fig. 11 (ghost distribution, η = N_G/N_L) and the
communication volumes of the scaling studies.

:class:`ExchangePlan` turns a :class:`PartitionLayout` into a
*persistent* plan: the per-(rank, neighbour) send/recv index arrays of
the ghost exchange and, per rank, the compiled §3.5 apply program of
its owned elements in its local index space — the same
:class:`repro.core.plan.ApplyProgram` every serial solve runs.  Krylov
solvers hit :func:`repro.parallel.dist_matvec.distributed_matvec` once
per iteration, so hoisting this derivation out of the call is the
distributed half of the operator-plan layer
(:mod:`repro.core.plan`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.mesh import IncompleteMesh
from ..core.plan import ApplyProgram, operator_context
from ..obs import set_gauge, span

__all__ = [
    "PartitionLayout",
    "analyze_partition",
    "ExchangePlan",
    "exchange_plan",
]


@dataclass
class PartitionLayout:
    """Everything the distributed MATVEC needs to know about a partition."""

    fingerprint: str                # content fingerprint of the mesh
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
    ctx = operator_context(mesh)
    g = ctx.gather
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
        fingerprint=ctx.fingerprint,
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

    Precomputes, once per (operator context, layout):

    * ``send_ids[(owner, user)]`` — global node ids whose values the
      owner rank ships to the user rank in the pre-exchange (and where
      the returned ghost contributions accumulate in the post-exchange);
    * ``ghost_pos[(owner, user)]`` — the positions of those ghosts in
      the user rank's local (referenced-node) index space;
    * ``programs[r]`` — rank ``r``'s compiled apply program over its
      owned elements, in its local index space (``None`` for a rank
      that owns no element);
    * ``mine[r]`` / ``owned_ids[r]`` — the locally owned subset of the
      referenced nodes and their global ids.

    ``distributed_matvec`` consumes these directly, so repeated
    distributed applies derive nothing per call.  A layout belongs to
    the mesh it was analysed on: any other mesh is a ``ValueError``.
    """

    def __init__(self, mesh: IncompleteMesh, layout: PartitionLayout):
        ctx = operator_context(mesh)
        if layout.fingerprint != ctx.fingerprint:
            raise ValueError(
                f"the partition layout belongs to a different mesh "
                f"(fingerprint {layout.fingerprint[:12]}…, this mesh "
                f"{ctx.fingerprint[:12]}…)"
            )
        self.layout = layout
        self.ctx = ctx
        self.fingerprint = ctx.fingerprint
        splits = layout.splits
        self.mine: list[np.ndarray] = []
        self.owned_ids: list[np.ndarray] = []
        self.programs: list[ApplyProgram | None] = []
        self.send_ids: dict[tuple[int, int], np.ndarray] = {}
        self.ghost_pos: dict[tuple[int, int], np.ndarray] = {}
        for r in range(layout.nranks):
            self._build_rank_exchange(layout, r)
            lo, hi = splits[r], splits[r + 1]
            self.programs.append(
                ApplyProgram(ctx.traversal, lo, hi, local=layout.ref_nodes[r])
                if hi > lo else None
            )

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

    def nbytes(self) -> int:
        """Resident bytes of the plan's index arrays and rank programs —
        the memory price of persisting the plan, reported by the
        resilience overhead benchmark alongside checkpoint volume."""
        arrays = (*self.mine, *self.owned_ids, *self.send_ids.values(),
                  *self.ghost_pos.values())
        return sum(a.nbytes for a in arrays) + sum(
            prog.nbytes for prog in self.programs if prog is not None
        )


def exchange_plan(mesh: IncompleteMesh, layout: PartitionLayout) -> ExchangePlan:
    """The layout's cached :class:`ExchangePlan`.

    Cached on the layout object and reused while ``plan.ctx is
    operator_context(mesh)``: the plan's rank programs were compiled
    from that context, and the context is rebuilt exactly when the
    mesh's inputs change (:func:`repro.core.plan.operator_context`), so
    the rank programs are compiled once per (mesh, layout) and a lookup
    hashes nothing.  A layout handed another mesh raises instead of
    reusing stale index arrays.
    """
    plan = getattr(layout, "_exchange_plan", None)
    if plan is not None and plan.ctx is operator_context(mesh):
        return plan
    with span("plan.exchange_build") as osp:
        plan = ExchangePlan(mesh, layout)
        osp.add("ranks", layout.nranks)
    layout._exchange_plan = plan
    return plan
