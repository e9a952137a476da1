"""Strong Dirichlet constraints: the one elimination.

:class:`Dirichlet` holds "these nodes are fixed to these values",
checked once, in the three forms the solvers use, each with the exact
arithmetic its callers had: sliced (``A_ff``, ``b_f − A_fc·u_c``,
``expand``), symmetric-masked (``keep·A·keep + I``) and row-replaced
(``keep·A + I``).  Hostile data is a ``ValueError`` naming the field.

Every Poisson solve, serial or distributed, inverts the sliced form
held by one :class:`repro.solvers.system.FreeSystem` (the elimination,
the free-node operator and its inversion).  ``A_ff`` has two
instances: the assembled one (:meth:`Dirichlet.A_ff`) and the compiled
one, :class:`repro.core.plan.ConstrainedStiffness` — the traversal
program over the free nodes, built once per mesh; a callable ``A``
lifts the data through one unconstrained apply.  The masked form is
assembled only: Navier–Stokes and the multigrid fixtures use it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = ["Dirichlet", "finite"]


def finite(name: str, values, n: int | None = None) -> np.ndarray:
    """``values`` as a finite float array (of shape ``(n,)`` if given);
    a ``ValueError`` naming ``name`` otherwise."""
    v = np.asarray(values, float)
    if n is not None and v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite values")
    return v


class Dirichlet:
    """Nodes ``fixed`` (a boolean mask, of length ``n`` if given) held at
    ``values`` (a scalar or one per node; only fixed entries are read)."""

    def __init__(self, fixed, values=0.0, n: int | None = None):
        fixed = np.asarray(fixed)
        if fixed.dtype != bool or fixed.ndim != 1 or n not in (None, len(fixed)):
            raise ValueError(f"dirichlet_mask must be a boolean mask of shape "
                             f"({n or 'n_nodes'},), got {fixed.dtype} {fixed.shape}")
        values = np.asarray(values, float)
        if values.ndim and values.shape != fixed.shape:
            raise ValueError(f"dirichlet values must be a scalar or of shape "
                             f"{fixed.shape}, got {values.shape}")
        self.fixed, self.free = fixed, ~fixed
        self.free_idx, self.fixed_idx = np.flatnonzero(~fixed), np.flatnonzero(fixed)
        #: the boundary data at full length, zero on the free nodes
        self.u_fix = finite("dirichlet", np.where(fixed, values, 0.0))

    @cached_property
    def keep(self) -> sp.dia_matrix:
        """0/1 diagonal zeroing fixed rows (from the left) or columns."""
        return sp.diags(self.free.astype(float))

    # -- sliced
    def A_ff(self, A) -> sp.csr_matrix:
        return A[np.ix_(self.free_idx, self.free_idx)].tocsr()

    def lift(self, A) -> np.ndarray:
        """``A_fc · u_c``: what the boundary data moves to the free rows.
        ``A`` is a matrix or an apply callable over all nodes (one
        unconstrained apply of the data)."""
        if callable(A):
            return A(self.u_fix)[self.free_idx]
        return A[np.ix_(self.free_idx, self.fixed_idx)] @ self.u_fix[self.fixed_idx]

    def rhs(self, A, b: np.ndarray) -> np.ndarray:
        return b[self.free_idx] - self.lift(A)

    def expand(self, x, scale: float = 1.0) -> np.ndarray:
        """``x`` on the free nodes, ``scale`` × the data on the fixed ones."""
        u = scale * self.u_fix
        u[self.free_idx] = x
        return u

    # -- symmetric-masked
    def masked(self, A, b: np.ndarray):
        """``(keep·A·keep + I, keep·(b − A·u_fix) + u_fix)``."""
        A_bc = self.keep @ A @ self.keep + sp.diags(self.fixed.astype(float))
        return A_bc, self.keep @ (b - A @ self.u_fix) + self.u_fix

    # -- row-replaced
    def replace_rows(self, A):
        return self.keep @ A + sp.diags(self.fixed.astype(float))

    def replace_values(self, b: np.ndarray) -> np.ndarray:
        """The boundary data on the fixed rows of ``b``, in place."""
        b[self.fixed_idx] = self.u_fix[self.fixed_idx]
        return b
