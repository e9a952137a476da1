"""Distributed matrix-free MATVEC over the simulated communicator.

A faithful SPMD simulation: the input vector is distributed by node
ownership, each rank touches **only** its owned entries plus the ghost
payloads it received, works entirely in a rank-local index space
(ghosted vectors), and returns partial results whose ghost contributions
travel back to their owners — the two exchange legs of §3.5, both
counted by :class:`SimComm`.  Between the legs each rank runs its
compiled :class:`repro.core.plan.ApplyProgram` through the same kernel
body as the serial apply, so the ``matvec.rank`` /
``matvec.{top_down,leaf,bottom_up}`` spans time the serial code.  One
rank reproduces the serial apply bit for bit; k ranks differ from it
only in the order of the bottom-up sums (asserted in tests).

All per-mesh/per-partition derivations — the rank programs, the send/recv
index arrays of both exchange legs — live in the persistent
:class:`repro.parallel.ghost.ExchangePlan` (cached on the layout behind
the mesh content fingerprint), so Krylov solvers calling this once per
iteration pay only for the apply, not for plan rebuilds.
"""

from __future__ import annotations

import numpy as np

from ..core.mesh import IncompleteMesh
from ..kernels.numpy_backend import KERNELS
from ..obs import span
from ..resilience.faults import RankFailure
from .ghost import ExchangePlan, PartitionLayout, exchange_plan
from .simmpi import SimComm

__all__ = ["distributed_matvec"]


def distributed_matvec(
    mesh: IncompleteMesh,
    layout: PartitionLayout,
    u: np.ndarray,
    comm: SimComm,
    kind: str = "stiffness",
    plan: ExchangePlan | None = None,
) -> np.ndarray:
    """One distributed MATVEC; returns the assembled global result.

    ``plan`` is the persistent exchange plan; by default the cached plan
    of ``(mesh, layout)`` is used (built on first call).
    """
    if comm.size != layout.nranks:
        raise ValueError("communicator size must match the partition")
    if np.shape(u) != (mesh.n_nodes,):
        raise ValueError(
            f"distributed_matvec applies to one nodal vector: u has shape "
            f"{np.shape(u)}, expected ({mesh.n_nodes},)")
    if plan is None:
        plan = exchange_plan(mesh, layout)
    ker, pw = plan.ctx.traversal.kernel(kind)

    # --- pre-exchange: owners send ghost values to the users ----------
    # (an owner reads only entries it owns — legitimate rank-local data)
    with span("matvec.exchange.pre", merge=True):
        pre = {key: u[ids] for key, ids in plan.send_ids.items()}
        try:
            pre = comm.exchange(pre, allow_self=False)
        except RankFailure as exc:
            exc.phase = "matvec.exchange.pre"
            raise

    out = np.zeros(mesh.n_nodes)
    post: dict[tuple[int, int], np.ndarray] = {}
    for r, prog in enumerate(plan.programs):
        if prog is None:
            continue
        with span("matvec.rank", rank=r):
            mine = plan.mine[r]
            neighbors = [int(o) for o in layout.neighbor_ranks[r]]
            with span("matvec.top_down", merge=True) as tsp:
                # rank-local ghosted input vector: owned entries from the
                # locally stored distributed vector, ghosts from payloads.
                # Zero-initialised so a silently dropped ghost payload
                # (fault injection) yields a deterministic wrong answer
                # rather than reading uninitialised memory.
                u_loc = np.zeros(len(mine))
                u_loc[mine] = u[plan.owned_ids[r]]
                for o in neighbors:
                    payload = pre.get((o, r))
                    if payload is not None:
                        u_loc[plan.ghost_pos[(o, r)]] = payload
                tsp.add("local_nodes", len(mine))
            contrib = KERNELS.traversal_matvec(prog, u_loc, ker, pw)
            with span("matvec.bottom_up", merge=True) as bsp:
                # owned contributions accumulate locally ...
                out[plan.owned_ids[r]] += contrib[mine]
                # ... ghost contributions return to their owners
                for o in neighbors:
                    post[(r, o)] = contrib[plan.ghost_pos[(o, r)]]
                bsp.add("ghost_returns", int(len(layout.ghost_nodes[r])))
    with span("matvec.exchange.post", merge=True):
        try:
            post = comm.exchange(post, allow_self=False)
        except RankFailure as exc:
            exc.phase = "matvec.exchange.post"
            raise
        # owners accumulate the returned ghost contributions
        for (src_rank, owner), payload in post.items():
            out[plan.send_ids[(owner, src_rank)]] += payload
    return out
