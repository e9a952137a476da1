"""§3.6 traversal assembly — the oracle for :func:`repro.core.assembly.assemble`.

A top-down traversal carries global node *ids* (not values) to the
leaves, where one (row, col, val) entry is emitted per elemental matrix
entry; the sparse library (``scipy.sparse`` here, PETSc in the paper)
merges duplicate indices.  No bottom-up phase is needed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.assembly import elemental_blocks
from repro.core.mesh import IncompleteMesh
from repro.core.plan import operator_context
from repro.obs import span


def assemble_traversal(mesh: IncompleteMesh, kind="stiffness") -> sp.csr_matrix:
    """§3.6 traversal assembly emitting (row, col, val) triplets.

    Node *ids* are bucketed top-down exactly like nodal values in the
    traversal MATVEC; at each leaf the elemental matrix entries are
    emitted with global indices (hanging slots expand into their donor
    combinations).  Verified in tests to equal :func:`assemble`.
    """
    with span("assembly.traversal") as osp:
        ctx = operator_context(mesh)
        blocks = elemental_blocks(ctx, kind, np.arange(mesh.n_elem))
        plan = ctx.traversal
        n = mesh.n_nodes
        rows_l, cols_l, vals_l = [], [], []
        for e in range(mesh.n_elem):
            slot, gid, w = plan.rows(e)
            Ke = blocks[e]
            # entry (i, j) of Ke contributes w_a * w_b * Ke[i, j] for
            # every (a: slot==i), (b: slot==j) pair
            kw = Ke[np.ix_(slot, slot)] * np.outer(w, w)
            rr = np.broadcast_to(gid[:, None], kw.shape)
            cc = np.broadcast_to(gid[None, :], kw.shape)
            rows_l.append(rr.ravel())
            cols_l.append(cc.ravel())
            vals_l.append(kw.ravel())
        A = sp.csr_matrix(
            (np.concatenate(vals_l), (np.concatenate(rows_l), np.concatenate(cols_l))),
            shape=(n, n),
        )
        A.sum_duplicates()
        osp.add("elements", mesh.n_elem)
        osp.add("triplets", sum(len(v) for v in vals_l))
    return A
