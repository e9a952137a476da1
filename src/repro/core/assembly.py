"""Traversal-based global sparse-matrix assembly (§3.6).

The global matrix is Σ_e P_eᵀ K_e P_e where P_e is the element's
interpolation row block (identity for ordinary slots, donor weights for
hanging slots) — algebraically ``gatherᵀ · blockdiag(K_e) · gather``.

:func:`assemble` hands the element form to
:func:`repro.kernels.api.assemble`, the one kernel every element-block
matrix goes through (SBM, transport and Navier–Stokes call it
directly).  The kernel walks output-row chunks and asks the form for
one run of elements' blocks at a time, so no stage holds every block
at once.  For constant-coefficient kernels the blocks are a
Kronecker product ``diag(scale) ⊗ K_ref``.  The paper's §3.6
triplet-emitting traversal is the test oracle it is held to
(``tests/oracles/assembly.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..kernels import api as kernels
from ..obs import span
from .mesh import IncompleteMesh
from .plan import OperatorContext, operator_context

__all__ = ["assemble", "elemental_blocks"]


def elemental_blocks(ctx: OperatorContext, kind: str, elems: np.ndarray) -> np.ndarray:
    """Dense matrices ``(len(elems), npe, npe)`` of the elements ``elems``
    of the context's mesh."""
    ref = ctx.ref()
    h = ctx.h[elems]
    if kind == "stiffness":
        return ref.stiffness_blocks(h)
    if kind == "mass":
        return ref.mass_blocks(h)
    raise ValueError(f"unknown kind {kind!r}")


def assemble(mesh: IncompleteMesh, kind="stiffness") -> sp.csr_matrix:
    """Assembled global sparse operator (CSR).

    One :func:`repro.kernels.api.assemble` call, counted by the facade,
    which forms the element blocks one run of elements at a time.
    """
    with span("assembly") as osp:
        ctx = operator_context(mesh)
        A = kernels.assemble(ctx.gather, ctx.scatter,
                             lambda e: elemental_blocks(ctx, kind, e))
        osp.add("elements", mesh.n_elem)
        osp.add("nnz", int(A.nnz))
    return A
