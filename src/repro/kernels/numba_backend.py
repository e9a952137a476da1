"""Numba backend — jitted CSR/slot loops (optional dependency).

The kernels are written as plain scalar-loop functions and jitted at
import time when numba is installed; without numba the module still
imports cleanly and registers the backend as *unavailable*, so
``get_backend("numba")`` raises a typed
:class:`~repro.kernels.registry.BackendUnavailable` instead of an
ImportError.  The undecorated pure-Python functions remain importable
(``_py_kernels``) so their logic is testable anywhere.

The jitted traversal walks the flat slot table directly (one pass over
``slot_ptr``/``slot_idx``/``slot_gid``/``slot_w``), handling identity
and hanging elements uniformly — per-element locality instead of the
batched temporaries of the inherited numpy traversal it replaces (one
fused loop, so it publishes no per-phase spans).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .numpy_backend import NumpyKernels

__all__ = ["NumbaKernels", "NUMBA_AVAILABLE"]

try:  # pragma: no cover - exercised only in the numba CI job
    import numba

    NUMBA_AVAILABLE = True
    _NUMBA_REASON = ""
except ImportError:  # pragma: no cover - the default local environment
    numba = None
    NUMBA_AVAILABLE = False
    _NUMBA_REASON = "numba is not installed (pip install repro[numba])"


def _csr_matvec(indptr, indices, data, x, out):
    for i in range(len(indptr) - 1):
        acc = 0.0
        for k in range(indptr[i], indptr[i + 1]):
            acc += data[k] * x[indices[k]]
        out[i] = acc
    return out


def _dot(x, y):
    acc = 0.0
    for i in range(len(x)):
        acc += x[i] * y[i]
    return acc


def _axpy(alpha, x, y):
    for i in range(len(x)):
        y[i] += alpha * x[i]
    return y


def _traversal_flat(
    slot_ptr, slot_idx, slot_gid, slot_w, h, u, ker, pw, e_lo, e_hi, out
):
    npe = ker.shape[0]
    u_loc = np.zeros(npe)
    w_loc = np.zeros(npe)
    for e in range(e_lo, e_hi):
        lo, hi = slot_ptr[e], slot_ptr[e + 1]
        for i in range(npe):
            u_loc[i] = 0.0
        for k in range(lo, hi):
            u_loc[slot_idx[k]] += slot_w[k] * u[slot_gid[k]]
        scale = h[e] ** pw
        for i in range(npe):
            acc = 0.0
            for j in range(npe):
                acc += ker[i, j] * u_loc[j]
            w_loc[i] = acc * scale
        for k in range(lo, hi):
            out[slot_gid[k]] += slot_w[k] * w_loc[slot_idx[k]]
    return out


#: the pure-Python kernel bodies (pre-jit), kept importable for tests
_py_kernels = {
    "csr_matvec": _csr_matvec,
    "dot": _dot,
    "axpy": _axpy,
    "traversal_flat": _traversal_flat,
}

if NUMBA_AVAILABLE:  # pragma: no cover - exercised only in the numba CI job
    _jit = numba.njit(cache=True, fastmath=False)
    _csr_matvec = _jit(_csr_matvec)
    _dot = _jit(_dot)
    _axpy = _jit(_axpy)
    _traversal_flat = _jit(_traversal_flat)


class NumbaKernels(NumpyKernels):
    """Jitted scalar-loop backend; unavailable without numba."""

    name = "numba"
    available = NUMBA_AVAILABLE
    unavailable_reason = _NUMBA_REASON

    def gather(self, G: sp.csr_matrix, u: np.ndarray) -> np.ndarray:
        # block inputs and non-CSR formats (e.g. the exchange plan's
        # shared-array CSC transposes) stay on the scipy path
        if getattr(u, "ndim", 1) != 1 or not sp.isspmatrix_csr(G):
            return G @ u
        out = np.empty(G.shape[0])
        return _csr_matvec(
            G.indptr, G.indices, G.data, np.asarray(u, np.float64), out
        )

    def scatter(self, S: sp.csr_matrix, w: np.ndarray) -> np.ndarray:
        if getattr(w, "ndim", 1) != 1 or not sp.isspmatrix_csr(S):
            return S @ w
        out = np.empty(S.shape[0])
        return _csr_matvec(
            S.indptr, S.indices, S.data, np.asarray(w, np.float64), out
        )

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(_dot(np.asarray(x, np.float64), np.asarray(y, np.float64)))

    def axpy(self, alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _axpy(float(alpha), np.asarray(x, np.float64), y)

    def traversal_matvec(self, plan, u, ker, pw, e_lo, e_hi):
        out = np.zeros(len(u))
        return _traversal_flat(
            plan.slot_ptr,
            plan.slot_idx,
            plan.slot_gid,
            plan.slot_w,
            plan.h,
            np.asarray(u, np.float64),
            np.ascontiguousarray(ker),
            np.int64(pw),
            np.int64(e_lo),
            np.int64(e_hi),
            out,
        )
