"""The kernel bodies: one numpy kernel set, one module-level instance.

The map-based ops are the exact expressions the call sites inlined
before the kernel layer existed, so routing through this backend
changes no bits there: CSR gather/scatter are ``scipy.sparse``
products, the batched elemental apply is one dense matmul plus a column
scale, dot/axpy are the plain BLAS-backed numpy expressions, and
assembly is the BSR triple product.

``traversal_matvec`` is the one production matrix-free apply, serial and
per rank: it runs a compiled :class:`~repro.core.plan.ApplyProgram` —
one index read and one hanging-rows CSR product down, the dense part
through :meth:`NumpyKernels.elem_apply`, one scale-folded CSR product
up.

:data:`KERNELS` is the instance :mod:`repro.kernels.api` counts and
:mod:`repro.solvers.krylov` takes ``dot`` / ``axpy`` from.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..obs import span

__all__ = ["NumpyKernels", "KERNELS"]


class NumpyKernels:
    """The kernel set; ``name`` is the ``backend=`` label of its counters."""

    name = "numpy"

    # -- sparse gather / scatter ----------------------------------------

    def gather(self, G: sp.csr_matrix, u: np.ndarray) -> np.ndarray:
        """Element-local slot vector ``G @ u`` (hanging-aware gather)."""
        return G @ u

    def scatter(self, S: sp.csr_matrix, w: np.ndarray) -> np.ndarray:
        """Bottom-up accumulation ``S @ w`` (S is gatherᵀ in CSR)."""
        return S @ w

    # -- batched elemental apply ----------------------------------------

    def elem_apply(
        self,
        u_loc: np.ndarray,
        M: np.ndarray,
        scale: np.ndarray | None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(u_loc @ M.T) * scale[:, None]`` for all elements at once,
        into ``out`` when given; ``scale=None`` when the caller folds
        the scale elsewhere."""
        w = np.matmul(u_loc, M.T, out=out)
        if scale is not None:
            w *= scale[:, None]
        return w

    # -- Krylov vector ops ------------------------------------------------

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ y)

    def axpy(self, alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """In-place ``y += alpha * x``; returns ``y``."""
        y += alpha * x
        return y

    # -- traversal MATVEC -------------------------------------------------

    def traversal_matvec(self, prog, u, ker, pw):
        """Traversal MATVEC: one run of a compiled
        :class:`~repro.core.plan.ApplyProgram` — a plan's (serial) or a
        rank's (distributed, in its local index space).

        The paper's three phases, each a merge span: slot gather of the
        identity block, then hanging interpolation of the hanging block
        (``matvec.top_down``); the dense elemental apply of either
        through :meth:`elem_apply` into one leaf array
        (``matvec.leaf``); one accumulation of the duplicated node
        instances, ``h**pw`` already in its weights
        (``matvec.bottom_up``).
        """
        w_loc = np.empty((prog.n_elem, prog.npe))
        row = 0
        for block in prog:
            with span("matvec.top_down", merge=True) as tsp:
                u_loc = block.gather(u)
                tsp.add("bucketed_nodes", u_loc.size)
            with span("matvec.leaf", merge=True) as lsp:
                self.elem_apply(
                    u_loc, ker, None, out=w_loc[row : row + len(u_loc)]
                )
                lsp.add("elements", len(u_loc))
            row += len(u_loc)
        # compiled on the first apply per exponent: that cost is this
        # phase's too
        with span("matvec.bottom_up", merge=True):
            scatter = prog.scatter(pw)
        with span("matvec.bottom_up", merge=True) as bsp:
            out = scatter @ w_loc.ravel()
            bsp.add("merged_nodes", scatter.nnz)
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


KERNELS = NumpyKernels()
