"""The kernel bodies: one numpy kernel set, one module-level instance.

The map-based ops are the exact expressions the call sites inlined
before the kernel layer existed, so routing through this backend
changes no bits there: every CSR × vector product (the facade's
gather/scatter, the traversal's hanging interpolation and
accumulation) is :meth:`NumpyKernels.csr_matvec`, the compiled loop
``scipy.sparse``'s ``@`` runs, called without ``@``'s per-call
dispatch; the batched elemental apply is one dense matmul plus a
column scale, dot/axpy are the plain BLAS-backed numpy expressions, and
assembly is the BSR triple product, walked in output-row chunks.  This
is the only module that imports ``scipy.sparse._sparsetools``.

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
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from ..obs import span

__all__ = ["NumpyKernels", "KERNELS", "block_size"]

#: bytes of element blocks one assembly chunk forms: the 18 224-element
#: p = 1 sphere assembles in 5 chunks, any 3-D p = 1 mesh of at most
#: 4 096 elements in one
ASSEMBLY_CHUNK_BYTES = 2 << 20


class NumpyKernels:
    """The kernel set; ``name`` is the ``backend=`` label of its counters."""

    name = "numpy"

    # -- CSR × vector -------------------------------------------------------

    def csr_matvec(self, A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a CSR ``A`` and a vector ``x``, to the bit: the
        compiled loop ``@`` runs (``_sparsetools.csr_matvec``, rows in
        order, each row's terms in stored order) into a fresh zero
        vector of the product's dtype, without ``@``'s per-call
        dispatch, which on the small matrices of a rank's program costs
        more than the loop.

        The loop reads ``x`` at every stored column index unchecked, so
        anything but a CSR ``A`` and an ``x`` of shape ``(A.shape[1],)``
        is a ``ValueError`` here.
        """
        M, N = A.shape
        if A.format != "csr" or x.shape != (N,):
            raise ValueError(
                f"csr_matvec multiplies a CSR matrix by one vector: got a "
                f"{A.format} {A.shape} matrix and x of shape {x.shape}")
        y = np.zeros(M, np.promote_types(A.data.dtype, x.dtype))
        _csr_matvec(M, N, A.indptr, A.indices, A.data, x, y)
        return y

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
        through :meth:`csr_matvec` (``matvec.top_down``); the dense
        elemental apply of either through :meth:`elem_apply` into one
        leaf array (``matvec.leaf``); one accumulation of the duplicated
        node instances through :meth:`csr_matvec`, ``h**pw`` already in
        its weights (``matvec.bottom_up``).  An empty block is skipped.

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
        n_id = len(prog.identity.elems)
        if n_id:
            with span("matvec.top_down", merge=True) as tsp:
                u_loc = u[prog.identity.gid]
                tsp.add("bucketed_nodes", u_loc.size)
            self._leaf(u_loc, ker, w_loc[:n_id])
        if n_id < prog.n_elem:
            with span("matvec.top_down", merge=True) as tsp:
                u_loc = self.csr_matvec(prog.hanging.interp, u)
                tsp.add("bucketed_nodes", u_loc.size)
            self._leaf(u_loc.reshape(-1, prog.npe), ker, w_loc[n_id:])
        # compiled on the first apply per exponent: that cost is this
        # phase's too
        with span("matvec.bottom_up", merge=True):
            scatter = prog.scatter(pw)
        with span("matvec.bottom_up", merge=True) as bsp:
            out = self.csr_matvec(scatter, w_loc.ravel())
            bsp.add("merged_nodes", scatter.nnz)
        return out

    def _leaf(self, u_loc, ker, out) -> None:
        """One block's leaf phase: its dense elemental apply into its
        rows of the leaf array."""
        with span("matvec.leaf", merge=True) as lsp:
            self.elem_apply(u_loc, ker, None, out=out)
            lsp.add("elements", len(u_loc))

    # -- global assembly ---------------------------------------------------

    def assemble(
        self,
        gather: sp.csr_matrix,
        scatter: sp.csr_matrix,
        blocks,
        elems: np.ndarray | None = None,
    ) -> sp.csr_matrix:
        """``scatter · blockdiag(K_e) · gather`` in output-row chunks: the
        one place a global matrix is formed from element blocks.

        ``gather`` maps global vectors to ``bs`` slots per element (a
        mesh's gather or a multi-field one) and ``scatter`` is its CSR
        transpose.  ``blocks(e)`` returns the ``(len(e), bs, bs)`` blocks
        of an ascending array of element ids.  With ``elems`` (ascending)
        only those elements are assembled, over their rows of the pair.

        Chunk ``k`` holds a run of elements, :data:`ASSEMBLY_CHUNK_BYTES`
        of blocks, and the output rows whose last contributing element is
        in that run.  It forms its blocks once and its slot rows of
        ``blockdiag(K_e) · gather``; its rows are then one
        ``scatter[rows] · inner`` over those slot rows and the ones
        earlier chunks kept because a row of a later chunk reads them.
        Work that fits one chunk is one product over all rows.  Every
        entry sums its slot terms in the order ``scatter`` stores them,
        chunked or not, so the chunking changes no bit of the result.

        A CSR × CSR product stores no duplicates, so each chunk only
        sorts its rows, and the result is marked canonical.  The rows
        stay sorted because SpMV and slicing sum in stored order: every
        pinned digest depends on it.
        """
        bs = block_size(blocks)
        form = blocks
        if elems is not None:
            rows = (elems[:, None] * bs + np.arange(bs)).ravel()
            gather, scatter = gather[rows], scatter[:, rows]

            def form(e):
                return blocks(elems[e])

        n = gather.shape[0] // bs
        per = max(1, ASSEMBLY_CHUNK_BYTES // (8 * bs * bs))
        if n <= per:
            return _sorted(scatter @ _inner(form, np.arange(n), gather))
        width = per * bs  # slots per chunk
        # each row's chunk: its last slot's; each slot's need: the last
        # chunk whose rows read it, where that is a later chunk
        ip, ix = scatter.indptr, scatter.indices
        filled = np.diff(ip) > 0
        owner = np.zeros(len(filled), np.int32)
        owner[filled] = np.maximum.reduceat(ix, ip[:-1][filled]) // width
        reader = np.repeat(owner, np.diff(ip))
        later = ix // width < reader
        need = np.full(gather.shape[0], -1, np.int32)
        np.maximum.at(need, ix[later], reader[later])
        del reader, later
        order = np.argsort(owner, kind="stable")
        chunks = np.split(order, np.searchsorted(owner[order], np.arange(1, -(-n // per))))
        kept, pool = np.empty(0, np.intp), None  # slot rows later chunks read
        pieces = []
        for k, R in enumerate(chunks):
            lo, hi = k * width, min(n * bs, (k + 1) * width)
            inner = _inner(form, np.arange(lo // bs, hi // bs), _row_view(gather, lo, hi))
            if len(kept):
                inner = sp.vstack([pool, inner], format="csr")
            if len(R):
                # inner's rows are the kept slots, then lo:hi: numbered
                # in order, so every row keeps its stored order
                S = scatter[R]
                local = S.indices - (lo - len(kept))
                old = S.indices < lo
                local[old] = np.searchsorted(kept, S.indices[old])
                S = sp.csr_matrix((S.data, local, S.indptr), shape=(len(R), inner.shape[0]))
                pieces.append(_sorted(S @ inner))
            keep = np.flatnonzero(np.concatenate([need[kept], need[lo:hi]]) > k)
            kept = np.concatenate([kept, np.arange(lo, hi)])[keep]
            pool = inner[keep]
            del inner
        del need, pool
        A = sp.vstack(pieces, format="csr")
        del pieces
        A = A[np.argsort(order)]
        A.has_canonical_format = True
        return A


def block_size(blocks) -> int:
    """``bs`` of an element form ``blocks(e) -> (len(e), bs, bs)``,
    read from its blocks of no element."""
    return blocks(np.empty(0, np.intp)).shape[-1]


def _row_view(A: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Rows ``lo:hi`` of a CSR matrix over views of its arrays."""
    a, b = A.indptr[lo], A.indptr[hi]
    return sp.csr_matrix((A.data[a:b], A.indices[a:b], A.indptr[lo:hi + 1] - a),
                         shape=(hi - lo, A.shape[1]))


def _inner(form, e, gather) -> sp.csr_matrix:
    """``blockdiag(form(e)) · gather`` in CSR."""
    K = form(e)
    n, bs, _ = K.shape
    B = sp.bsr_matrix((K, np.arange(n), np.arange(n + 1)), shape=(n * bs, n * bs))
    return (B @ gather).tocsr()


def _sorted(A: sp.csr_matrix) -> sp.csr_matrix:
    """A product's rows sorted, marked canonical: it has no duplicates."""
    A.sort_indices()
    A.has_canonical_format = True
    return A


KERNELS = NumpyKernels()
