"""Traversal-based global sparse-matrix assembly (§3.6).

The global matrix is Σ_e P_eᵀ K_e P_e where P_e is the element's
interpolation row block (identity for ordinary slots, donor weights for
hanging slots) — algebraically ``gatherᵀ · blockdiag(K_e) · gather``.

Two implementations:

* :func:`assemble` — production path: the block diagonal is a BSR
  matrix (one dense block per element), and two sparse products give
  the global operator.  For constant-coefficient kernels the blocks are
  a Kronecker product ``diag(scale) ⊗ K_ref``.

* :func:`assemble_traversal` — the paper's §3.6 algorithm: a top-down
  traversal carries global node *ids* (not values) to the leaves, where
  one (row, col, val) entry is emitted per elemental matrix entry; the
  distributed sparse library (here ``scipy.sparse``, PETSc in the
  paper) merges duplicate indices.  No bottom-up phase is needed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..kernels import api as kernels
from ..obs import span
from .mesh import IncompleteMesh
from .plan import operator_context

__all__ = ["assemble", "assemble_traversal", "elemental_blocks"]


def elemental_blocks(mesh: IncompleteMesh, kind="stiffness", nquad=None) -> np.ndarray:
    """Dense per-element matrices ``(n_elem, npe, npe)``."""
    ctx = operator_context(mesh)
    ref = ctx.ref(nquad)
    h = ctx.h
    if callable(kind):
        return kind(h)
    if kind == "stiffness":
        return ref.stiffness_blocks(h)
    if kind == "mass":
        return ref.mass_blocks(h)
    raise ValueError(f"unknown kind {kind!r}")


def assemble(mesh: IncompleteMesh, kind="stiffness", blocks=None) -> sp.csr_matrix:
    """Assembled global sparse operator (CSR).

    One BSR triple product, counted by the :mod:`repro.kernels` facade.
    """
    with span("assembly") as osp:
        if blocks is None:
            blocks = elemental_blocks(mesh, kind)
        A = kernels.assemble(operator_context(mesh), blocks)
        osp.add("elements", blocks.shape[0])
        osp.add("nnz", int(A.nnz))
    return A


def assemble_traversal(
    mesh: IncompleteMesh, kind="stiffness", blocks=None
) -> sp.csr_matrix:
    """§3.6 traversal assembly emitting (row, col, val) triplets.

    Node *ids* are bucketed top-down exactly like nodal values in the
    traversal MATVEC; at each leaf the elemental matrix entries are
    emitted with global indices (hanging slots expand into their donor
    combinations).  Verified in tests to equal :func:`assemble`.
    """
    with span("assembly.traversal") as osp:
        if blocks is None:
            blocks = elemental_blocks(mesh, kind)
        plan = operator_context(mesh).traversal
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
