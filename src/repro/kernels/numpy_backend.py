"""Default numpy backend, and the contract every backend implements.

The map-based ops are the exact expressions the call sites inlined
before the kernel layer existed, so routing through this backend
changes no bits there: CSR gather/scatter are ``scipy.sparse``
products, the batched elemental apply is one dense matmul plus a column
scale, dot/axpy are the plain BLAS-backed numpy expressions, and
assembly is the BSR triple product.

``traversal_matvec`` is the one production traversal MATVEC: a flat
pass over the index tables the plan compiled once, its dense part going
through :meth:`NumpyKernels.elem_apply`.

Other backends subclass this and override only the ops they speed up,
so every backend is complete by construction and runs the same
traversal unless it replaces it outright.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..obs import span

__all__ = ["NumpyKernels"]


class NumpyKernels:
    """Baseline kernel set; the contract every backend implements."""

    name = "numpy"
    available = True
    unavailable_reason = ""

    # -- sparse gather / scatter ----------------------------------------

    def gather(self, G: sp.csr_matrix, u: np.ndarray) -> np.ndarray:
        """Element-local slot vector ``G @ u`` (hanging-aware gather)."""
        return G @ u

    def scatter(self, S: sp.csr_matrix, w: np.ndarray) -> np.ndarray:
        """Bottom-up accumulation ``S @ w`` (S is gatherᵀ in CSR)."""
        return S @ w

    # -- batched elemental apply ----------------------------------------

    def elem_apply(
        self, u_loc: np.ndarray, M: np.ndarray, scale: np.ndarray
    ) -> np.ndarray:
        """``(u_loc @ M.T) * scale[:, None]`` for all elements at once."""
        return (u_loc @ M.T) * scale[:, None]

    # -- Krylov vector ops ------------------------------------------------

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ y)

    def axpy(self, alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """In-place ``y += alpha * x``; returns ``y``."""
        y += alpha * x
        return y

    # -- traversal MATVEC -------------------------------------------------

    def traversal_matvec(self, plan, u, ker, pw, e_lo, e_hi):
        """Flat traversal MATVEC over elements ``[e_lo, e_hi)``.

        One pass over the plan's compiled tables (a batch per level of
        identity elements, then the hanging-element block), each in the
        paper's three phases: slot gather and hanging interpolation
        (``matvec.top_down``), dense elemental apply through
        :meth:`elem_apply` (``matvec.leaf``), and accumulation of the
        duplicated node instances (``matvec.bottom_up``).
        """
        n = len(u)
        out = np.zeros(n)
        for t in plan.apply_tables(e_lo, e_hi):
            with span("matvec.top_down", merge=True) as tsp:
                u_loc = t.gather(u)
                tsp.add("bucketed_nodes", t.gid.size)
            with span("matvec.leaf", merge=True) as lsp:
                w_loc = self.elem_apply(u_loc, ker, t.h**pw)
                lsp.add("elements", len(t.elems))
            with span("matvec.bottom_up", merge=True) as bsp:
                out += t.scatter(w_loc, n)
                bsp.add("merged_nodes", t.gid.size)
        return out

    # -- global assembly ---------------------------------------------------

    def assemble(self, ctx, blocks: np.ndarray) -> sp.csr_matrix:
        """``gatherᵀ · blockdiag(K_e) · gather`` via one BSR product."""
        n_elem, npe, _ = blocks.shape
        B = sp.bsr_matrix(
            (blocks, np.arange(n_elem), np.arange(n_elem + 1)),
            shape=(n_elem * npe, n_elem * npe),
        )
        g = ctx.gather
        A = (g.T @ (B @ g)).tocsr()
        A.sum_duplicates()
        return A
