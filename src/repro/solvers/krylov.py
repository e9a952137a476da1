"""Matrix-free Krylov solver: preconditioned CG.

It accepts any callable operator, so it composes with the matrix-free
MATVEC as well as with assembled matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..kernels import api as kernels
from ..kernels.numpy_backend import KERNELS
from ..obs import span
from ..obs.trace import TRACER

__all__ = ["KrylovResult", "cg"]

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass
class KrylovResult:
    """Solve outcome with a structured termination reason.

    ``reason`` is one of ``"converged"``, ``"maxiter"``,
    ``"breakdown"`` (a Krylov scalar vanished — the solver cannot
    continue), ``"nonfinite"`` (NaN/Inf entered the recurrence) or
    ``"direct"`` (an LU solve, :class:`repro.solvers.system.FreeSystem`).
    ``converged`` is True **only** for ``"converged"`` and ``"direct"``;
    a breakdown or non-finite exit never reports success, even if the
    last residual norm happened to sit below the tolerance.
    """

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool
    matvecs: int = 0
    reason: str = "maxiter"
    #: always None (there is no block solve); benchmarks/e2e/spans.py
    #: reads it on every result
    col_reasons: None = None


def _as_op(A) -> Operator:
    if callable(A):
        return A
    if sp.issparse(A) or isinstance(A, np.ndarray):
        return lambda v: A @ v
    raise TypeError(f"cannot interpret {type(A)} as a linear operator")


def _vector_ops():
    """``(dot, axpy)`` for one solve: the kernel set's own methods;
    with tracing on, the instrumented facade, so every call still
    publishes its counters."""
    if TRACER.enabled:
        return kernels.dot, kernels.axpy
    return KERNELS.dot, KERNELS.axpy


def _tolerance(b: np.ndarray, rtol: float, atol: float) -> float:
    """The residual norm a solve stops at: ``max(rtol·‖b‖, atol)``, a
    zero ``b`` counting as ``‖b‖ = 1``."""
    return max(rtol * (float(np.linalg.norm(b)) or 1.0), atol)


class _CGState:
    """The one conjugate-gradient recurrence over ``(x, r, p, rz, rnorm,
    it)``, started from an iterate ``x`` and its residual ``r``.

    :func:`cg` steps it to the end; the resilient distributed solve
    (:func:`repro.resilience.recovery.resilient_poisson_solve`) steps the
    same state, checkpoints it between steps and reloads it after a
    recovery.  ``x``, ``r`` and ``p`` are updated in place.
    """

    def __init__(self, op: Operator, M: Operator | None, x: np.ndarray,
                 r: np.ndarray):
        self.op, self.M = op, M
        self.dot, self.axpy = _vector_ops()
        z = M(r) if M else r
        self.x, self.r, self.p = x, r, z.copy()
        self.rz = self.dot(r, z)
        self.rnorm = float(np.linalg.norm(r))
        self.it = 0

    def step(self, tol: float) -> str | None:
        """One iteration (one apply): the reason the recurrence stops
        (``"converged"``, ``"breakdown"`` or ``"nonfinite"``), or None.
        A breakdown or non-finite ``pAp`` returns before ``it`` moves."""
        with span("solver.iteration", merge=True) as isp:
            Ap = self.op(self.p)
            pAp = self.dot(self.p, Ap)
            if not np.isfinite(pAp):
                return "nonfinite"
            if pAp == 0.0:
                return "breakdown"
            alpha = self.rz / pAp
            self.axpy(alpha, self.p, self.x)
            self.axpy(-alpha, Ap, self.r)
            self.rnorm = float(np.linalg.norm(self.r))
            isp.add("matvecs", 1)
        self.it += 1
        if not np.isfinite(self.rnorm):
            return "nonfinite"
        if self.rnorm <= tol:
            return "converged"
        z = self.M(self.r) if self.M else self.r
        rz_new = self.dot(self.r, z)
        self.p *= rz_new / self.rz  # p = z + beta p, in place
        self.p += z
        self.rz = rz_new
        return None


def cg(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    M: Operator | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-12,
    maxiter: int | None = None,
) -> KrylovResult:
    """Preconditioned conjugate gradients for SPD operators.

    The per-iteration residual history is attached to the ``solver.cg``
    trace span when :mod:`repro.obs` is enabled.  ``maxiter=None``
    allows ``10·n`` iterations; ``maxiter=0`` is a zero budget: ``x0``
    comes back with ``iterations == 0``.  ``b`` is one right-hand side;
    k multiples of one vector want one solve and a scaling (what
    :mod:`repro.serve.batcher` does).
    """
    if np.ndim(b) != 1:
        raise ValueError(
            f"cg solves one right-hand side: b has shape {np.shape(b)}, "
            "expected (n,)")
    with span("solver.cg") as osp:
        op = _as_op(A)
        n = len(b)
        if maxiter is None:
            maxiter = 10 * n
        x = np.zeros(n) if x0 is None else np.array(x0, float)
        s = _CGState(op, M, x, b - op(x))
        nmv = 1
        tol = _tolerance(b, rtol, atol)
        residuals = [s.rnorm]
        reason = None if np.isfinite(s.rnorm) else "nonfinite"
        while reason is None and s.rnorm > tol and s.it < maxiter:
            reason = s.step(tol)
            nmv += 1
            if s.it == len(residuals):  # the step got past its pAp
                residuals.append(s.rnorm)
        reason = reason or ("converged" if s.rnorm <= tol else "maxiter")
        osp.add("iterations", s.it)
        osp.add("matvecs", nmv)
        osp.set("residual_history", residuals)
        osp.set("reason", reason)
    return KrylovResult(s.x, s.it, s.rnorm, reason == "converged", nmv, reason)
