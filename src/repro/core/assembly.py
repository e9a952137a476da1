"""Traversal-based global sparse-matrix assembly (§3.6).

The global matrix is Σ_e P_eᵀ K_e P_e where P_e is the element's
interpolation row block (identity for ordinary slots, donor weights for
hanging slots) — algebraically ``gatherᵀ · blockdiag(K_e) · gather``.

:func:`assemble` hands the blocks to :func:`repro.kernels.api.assemble`,
the one kernel every element-block matrix goes through (SBM, transport
and Navier–Stokes call it directly).  For constant-coefficient kernels
the blocks are a Kronecker product ``diag(scale) ⊗ K_ref``.  The paper's §3.6 triplet-emitting traversal
is the test oracle it is held to (``tests/oracles/assembly.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..kernels import api as kernels
from ..obs import span
from .mesh import IncompleteMesh
from .plan import operator_context

__all__ = ["assemble", "elemental_blocks"]


def elemental_blocks(mesh: IncompleteMesh, kind="stiffness") -> np.ndarray:
    """Dense per-element matrices ``(n_elem, npe, npe)``."""
    ctx = operator_context(mesh)
    ref = ctx.ref()
    h = ctx.h
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
        ctx = operator_context(mesh)
        A = kernels.assemble(ctx.gather, ctx.scatter, blocks)
        osp.add("elements", blocks.shape[0])
        osp.add("nnz", int(A.nnz))
    return A
