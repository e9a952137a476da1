"""Elemental (reference-cell) FEM matrices and batched applications.

Because carved-octree elements remain **isotropic** (aspect ratio 1 —
the paper's conditioning argument in §4.2), every element of order p is
the reference cube scaled by its side h.  The physical elemental
operators are therefore a single reference matrix times a per-element
power of h:

* stiffness:  K_e = h^(d-2) · K_ref
* mass:       M_e = h^d    · M_ref
* advection:  C_e(v) = h^(d-1) · Σ_k v_k C_ref,k   (constant velocity)

This collapses elemental assembly and matrix-free application into
batched dense algebra over all elements at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..kernels import api as kernels
from .basis import LagrangeBasis
from .quadrature import tensor_rule

__all__ = ["ReferenceElement", "reference_element"]


class ReferenceElement:
    """Order-p reference element: quadrature, basis tables, matrices."""

    def __init__(self, p: int, dim: int, nquad: int | None = None):
        self.p = p
        self.dim = dim
        self.basis = LagrangeBasis(p, dim)
        self.npe = self.basis.npe
        nq1 = nquad if nquad is not None else p + 1
        self.qpts, self.qwts = tensor_rule(nq1, dim)
        self.nq = len(self.qpts)
        #: basis values at quadrature points, (nq, npe)
        self.N = self.basis.eval(self.qpts)
        #: reference gradients at quadrature points, (nq, npe, dim)
        self.G = self.basis.eval_grad(self.qpts)

        w = self.qwts
        #: reference stiffness ∫ ∇φ_i·∇φ_j, (npe, npe)
        self.K_ref = np.einsum("q,qid,qjd->ij", w, self.G, self.G)
        #: reference mass ∫ φ_i φ_j
        self.M_ref = np.einsum("q,qi,qj->ij", w, self.N, self.N)
        #: reference advection blocks ∫ φ_i ∂_k φ_j, (dim, npe, npe)
        self.C_ref = np.einsum("q,qi,qjk->kij", w, self.N, self.G)
        #: reference gradient-gradient blocks ∫ ∂_k φ_i ∂_l φ_j,
        #: (dim, dim, npe, npe) — stabilisation terms contract this
        #: with velocity/direction vectors
        self.D_ref = np.einsum("q,qik,qjl->klij", w, self.G, self.G)
        # reference_element shares one instance per (p, dim, nquad)
        # process-wide: a write into a table would reach every mesh
        for table in (self.N, self.G, self.K_ref, self.M_ref, self.C_ref, self.D_ref):
            table.flags.writeable = False

    # -- batched matrix-free applications ------------------------------
    # routed through the repro.kernels facade so MapBasedMatVec and the
    # fem operators are counted as one kernel

    def apply_stiffness(self, u_loc: np.ndarray, h: np.ndarray) -> np.ndarray:
        """K_e u_e for all elements. ``u_loc`` is ``(n_elem, npe)``."""
        return kernels.elem_apply(u_loc, self.K_ref, h ** (self.dim - 2))

    def apply_mass(self, u_loc: np.ndarray, h: np.ndarray) -> np.ndarray:
        return kernels.elem_apply(u_loc, self.M_ref, h**self.dim)

    def stiffness_blocks(self, h: np.ndarray) -> np.ndarray:
        """Dense K_e blocks of the elements of sides ``h``, ``(len(h), npe, npe)``."""
        return h[:, None, None] ** (self.dim - 2) * self.K_ref[None]

    def mass_blocks(self, h: np.ndarray) -> np.ndarray:
        """Dense M_e blocks of the elements of sides ``h``."""
        return h[:, None, None] ** self.dim * self.M_ref[None]

    # -- FLOP/byte accounting for the roofline study --------------------

    def matvec_flops_per_element(self) -> int:
        """Double-precision FLOPs of one elemental stiffness apply.

        A dense (npe × npe) matvec (2·npe² flops) plus the per-entry
        scale (npe).  The paper's complexity O(d (p+1)^(d+1)) refers to
        the tensorised kernel; we count our actual dense kernel.
        """
        return 2 * self.npe * self.npe + self.npe


@lru_cache(maxsize=None)
def reference_element(p: int, dim: int, nquad: int | None = None) -> ReferenceElement:
    """Cached reference-element factory."""
    return ReferenceElement(p, dim, nquad)
