"""One free-node system, one inversion rule.

A :class:`FreeSystem` is what every Poisson solve inverts: a strong
Dirichlet elimination (:class:`repro.fem.dirichlet.Dirichlet`), the
operator on its free nodes and how that operator is inverted.  The
operator is the compiled :class:`repro.core.plan.ConstrainedStiffness`
or the sliced CSR ``A_ff``; the inversion is Jacobi-preconditioned
:func:`repro.solvers.krylov.cg` or an LU factorization built with the
system.  Each inversion keeps its own arithmetic: the compiled operator
preconditions by ``r / diag``, the CSR by :func:`jacobi`'s ``(1/d)·r``.

:func:`sparse_lu` is the one sparse direct factorization outside the
preconditioners: the LU inversion, transport's implicit step and
Navier–Stokes' Picard step all call it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .krylov import KrylovResult, cg
from .precond import jacobi

__all__ = ["FreeSystem", "sparse_lu"]


def sparse_lu(A):
    """SuperLU factors of the sparse matrix ``A`` (``.solve(b)``,
    ``.nnz``)."""
    return spla.splu(A)


class FreeSystem:
    """The Dirichlet ``bc``, the operator ``op`` on its free nodes, and
    its inversion: the LU of ``op`` (a CSR matrix) when ``direct``,
    Jacobi-CG otherwise (``M``: ``r / op.diag`` for the compiled
    operator, :func:`jacobi` of a CSR)."""

    def __init__(self, bc, op, direct: bool = False):
        self.bc, self.op = bc, op
        self.lu = self.M = None
        if direct:
            self.lu = sparse_lu(op.tocsc())
        elif sp.issparse(op):
            self.M = jacobi(op)
        else:
            self.M = lambda r: r / op.diag  # noqa: E731

    @property
    def maxiter(self) -> int:
        """The CG iteration budget: 20 per free node."""
        return 20 * len(self.bc.free_idx)

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None,
              rtol: float = 1e-10, atol: float = 1e-12) -> KrylovResult:
        """``op x = b`` on the free nodes (``x0`` warm-starts CG; the LU
        ignores it and reports its true residual, reason ``"direct"``).
        No free node is an exact, empty ``"direct"`` answer."""
        if len(b) == 0:
            return KrylovResult(np.zeros(0), 0, 0.0, True, 0, "direct")
        if self.lu is not None:
            x = self.lu.solve(b)
            rnorm = float(np.linalg.norm(self.op @ x - b))
            return KrylovResult(x, 0, rnorm, True, 1, "direct")
        return cg(self.op, b, x0=x0, M=self.M, rtol=rtol, atol=atol,
                  maxiter=self.maxiter)
