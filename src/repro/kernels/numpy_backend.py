"""The kernel bodies: one numpy kernel set, one module-level instance.

The map-based ops are the exact expressions the call sites inlined
before the kernel layer existed, so routing through this backend
changes no bits there: CSR gather/scatter are ``scipy.sparse``
products, the batched elemental apply is one dense matmul plus a column
scale, dot/axpy are the plain BLAS-backed numpy expressions, and
assembly is the BSR triple product.

``traversal_matvec`` is the one production matrix-free apply — the
whole mesh, a rank's elements, or the Dirichlet-constrained operator on
the free nodes: it runs a compiled :class:`~repro.core.plan.ApplyProgram`
— one index read and one hanging-rows CSR product down, the dense part
through :meth:`NumpyKernels.elem_apply`, one scale-folded CSR product
up.  It checks the input length against the program, and appends the
one zero a padded (constrained) program reads for its held nodes.

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

        ``u`` must hold one entry per program node: anything else is a
        ``ValueError`` naming the shape (a longer vector would otherwise
        be read in part, a shorter one fail inside an index read).  A
        padded program (held nodes, :class:`~repro.core.plan.ApplyProgram`
        ``pad=True``) reads a copy of ``u`` with a zero appended.
        """
        if u.shape != (prog.n_nodes,):
            raise ValueError(
                f"traversal_matvec applies to one vector over the "
                f"program's nodes: u has shape {u.shape}, expected "
                f"({prog.n_nodes},)")
        if prog.pad:
            u = np.append(u, 0.0)
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

    def assemble(
        self,
        gather: sp.csr_matrix,
        scatter: sp.csr_matrix,
        blocks: np.ndarray,
        elems: np.ndarray | None = None,
    ) -> sp.csr_matrix:
        """``scatter · blockdiag(K_e) · gather`` via one BSR product: the
        one place a global matrix is formed from element blocks.

        ``gather`` maps global vectors to ``bs`` slots per element (a
        mesh's gather or a multi-field one), ``scatter`` is its CSR
        transpose and ``blocks`` is ``(n, bs, bs)``.  With ``elems``
        (ascending) the blocks are those elements' only, and the product
        runs over their rows of the pair alone.

        The outer product is CSR × CSR: no CSC copy of the inner product
        and no format conversion of the result.  The inner product is
        made CSR before the outer one starts, so its BSR form is freed
        first.  Every entry sums its slot terms in ascending slot order,
        the order ``gather.T @ (B @ gather)`` sums them in, so the two are
        the same to the bit.
        """
        n, bs, _ = blocks.shape
        if elems is not None:
            rows = (elems[:, None] * bs + np.arange(bs)).ravel()
            gather, scatter = gather[rows], scatter[:, rows]
        B = sp.bsr_matrix(
            (blocks, np.arange(n), np.arange(n + 1)), shape=(n * bs, n * bs)
        )
        A = scatter @ (B @ gather).tocsr()
        A.sum_duplicates()
        return A


KERNELS = NumpyKernels()
