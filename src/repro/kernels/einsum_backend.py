"""Einsum backend — einsum elemental applies and vectorized assembly.

It differs from the numpy backend in three ops: the batched elemental
apply and the Krylov dot go through ``np.einsum`` (BLAS-dispatched via
``optimize=True``), and assembly emits the dense blocks of all identity
elements (no hanging nodes — ``TraversalPlan.identity_elem``) in one
broadcast.  The traversal MATVEC is the inherited run of the plan's
compiled apply program; only its dense part, ``elem_apply``, is this
backend's own.

Results agree with the numpy backend to floating-point reassociation,
asserted within 1e-10 by the cross-backend property tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .numpy_backend import NumpyKernels

__all__ = ["EinsumKernels"]


class EinsumKernels(NumpyKernels):
    """Batched-einsum elemental applies; vectorized triplet assembly."""

    name = "einsum"

    def elem_apply(self, u_loc, M, scale, out=None) -> np.ndarray:
        out = np.einsum("ej,ij->ei", u_loc, M, optimize=True, out=out)
        if scale is not None:
            out *= scale[:, None]
        return out

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.einsum("i,i->", x, y, optimize=True))

    def assemble(self, ctx, blocks: np.ndarray) -> sp.csr_matrix:
        """Vectorized §3.6 triplet assembly.

        Identity elements emit their whole dense block against the
        ``(npe,)`` gid row in one broadcast; only hanging elements
        (a small fraction of any mesh) take the per-element
        donor-expansion path.
        """
        plan = ctx.traversal
        mesh = ctx.mesh
        n, npe = mesh.n_nodes, mesh.npe
        id_els = np.flatnonzero(plan.identity_elem)
        hang_els = np.flatnonzero(~plan.identity_elem)
        rows_l, cols_l, vals_l = [], [], []
        if len(id_els):
            gids = plan.slot_gid[
                plan.slot_ptr[id_els][:, None] + np.arange(npe, dtype=np.int64)
            ]
            shape = (len(id_els), npe, npe)
            rows_l.append(np.broadcast_to(gids[:, :, None], shape).ravel())
            cols_l.append(np.broadcast_to(gids[:, None, :], shape).ravel())
            vals_l.append(blocks[id_els].reshape(-1))
        for e in hang_els:
            slot, gid, w = plan.rows(e)
            kw = blocks[e][np.ix_(slot, slot)] * np.outer(w, w)
            rows_l.append(np.broadcast_to(gid[:, None], kw.shape).ravel())
            cols_l.append(np.broadcast_to(gid[None, :], kw.shape).ravel())
            vals_l.append(kw.ravel())
        A = sp.csr_matrix(
            (
                np.concatenate(vals_l) if vals_l else np.empty(0),
                (
                    np.concatenate(rows_l) if rows_l else np.empty(0, np.int64),
                    np.concatenate(cols_l) if cols_l else np.empty(0, np.int64),
                ),
            ),
            shape=(n, n),
        )
        A.sum_duplicates()
        return A
