"""Matrix-free Krylov solvers: CG and BiCGStab.

These mirror the PETSc KSP configurations the paper uses
(``-ksp_type bcgs`` with an additive-Schwarz preconditioner); both
accept any callable operator, so they compose with the matrix-free
traversal MATVEC as well as assembled matrices.
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

__all__ = ["KrylovResult", "cg", "bicgstab"]

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass
class KrylovResult:
    """Solve outcome with a structured termination reason.

    ``reason`` is one of ``"converged"``, ``"maxiter"``,
    ``"breakdown"`` (a Krylov scalar vanished — the solver cannot
    continue) or ``"nonfinite"`` (NaN/Inf entered the recurrence).
    ``converged`` is True **only** for ``reason == "converged"``; a
    breakdown or non-finite exit never reports success, even if the
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


def cg(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    M: Operator | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-12,
    maxiter: int | None = None,
    callback: Callable[[int, float], None] | None = None,
) -> KrylovResult:
    """Preconditioned conjugate gradients for SPD operators.

    ``callback(it, rnorm)`` is invoked after every iteration; the
    per-iteration residual history is also attached to the
    ``solver.cg`` trace span when :mod:`repro.obs` is enabled.
    ``maxiter=None`` allows ``10·n`` iterations; ``maxiter=0`` is a zero
    budget: ``x0`` comes back with ``iterations == 0``.  ``b`` is one
    right-hand side; k multiples of one vector want one solve and a
    scaling (what :mod:`repro.serve.batcher` does).
    """
    if np.ndim(b) != 1:
        raise ValueError(
            f"cg solves one right-hand side: b has shape {np.shape(b)}, "
            "expected (n,)")
    with span("solver.cg") as osp:
        op = _as_op(A)
        dot, axpy = _vector_ops()
        n = len(b)
        if maxiter is None:
            maxiter = 10 * n
        x = np.zeros(n) if x0 is None else np.array(x0, float)
        r = b - op(x)
        nmv = 1
        z = M(r) if M else r
        p = z.copy()
        rz = dot(r, z)
        bnorm = float(np.linalg.norm(b)) or 1.0
        tol = max(rtol * bnorm, atol)
        rnorm = float(np.linalg.norm(r))
        residuals = [rnorm]
        it = 0
        fail: str | None = None if np.isfinite(rnorm) else "nonfinite"
        while fail is None and rnorm > tol and it < maxiter:
            with span("solver.iteration", merge=True) as isp:
                Ap = op(p)
                nmv += 1
                pAp = dot(p, Ap)
                if not np.isfinite(pAp):
                    fail = "nonfinite"
                    break
                if pAp == 0.0:
                    fail = "breakdown"
                    break
                alpha = rz / pAp
                axpy(alpha, p, x)
                axpy(-alpha, Ap, r)
                rnorm = float(np.linalg.norm(r))
                isp.add("matvecs", 1)
            it += 1
            residuals.append(rnorm)
            if callback is not None:
                callback(it, rnorm)
            if not np.isfinite(rnorm):
                fail = "nonfinite"
                break
            if rnorm <= tol:
                break
            z = M(r) if M else r
            rz_new = dot(r, z)
            p *= rz_new / rz  # p = z + beta p, in place
            p += z
            rz = rz_new
        reason = fail or ("converged" if rnorm <= tol else "maxiter")
        osp.add("iterations", it)
        osp.add("matvecs", nmv)
        osp.set("residual_history", residuals)
        osp.set("reason", reason)
    return KrylovResult(x, it, rnorm, reason == "converged", nmv, reason)


def bicgstab(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    M: Operator | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-12,
    maxiter: int | None = None,
    callback: Callable[[int, float], None] | None = None,
) -> KrylovResult:
    """Preconditioned BiCGStab for general (nonsymmetric) operators.

    ``callback(it, rnorm)`` is invoked after every iteration; the
    per-iteration residual history is also attached to the
    ``solver.bicgstab`` trace span when :mod:`repro.obs` is enabled.
    """
    with span("solver.bicgstab") as osp:
        op = _as_op(A)
        dot, _ = _vector_ops()
        n = len(b)
        if maxiter is None:
            maxiter = 10 * n
        x = np.zeros(n) if x0 is None else np.array(x0, float)
        r = b - op(x)
        nmv = 1
        r_hat = r.copy()
        rho = alpha = omega = 1.0
        v = np.zeros(n)
        p = np.zeros(n)
        bnorm = float(np.linalg.norm(b)) or 1.0
        tol = max(rtol * bnorm, atol)
        rnorm = float(np.linalg.norm(r))
        residuals = [rnorm]
        it = 0
        fail: str | None = None if np.isfinite(rnorm) else "nonfinite"
        while fail is None and rnorm > tol and it < maxiter:
            with span("solver.iteration", merge=True) as isp:
                rho_new = dot(r_hat, r)
                if not np.isfinite(rho_new):
                    fail = "nonfinite"
                    break
                if rho_new == 0.0:
                    fail = "breakdown"  # Lanczos breakdown: ⟨r̂, r⟩ = 0
                    break
                if it == 0:
                    p = r.copy()
                else:
                    beta = (rho_new / rho) * (alpha / omega)
                    p = r + beta * (p - omega * v)
                phat = M(p) if M else p
                v = op(phat)
                nmv += 1
                isp.add("matvecs", 1)
                denom = dot(r_hat, v)
                if not np.isfinite(denom):
                    fail = "nonfinite"
                    break
                if denom == 0.0:
                    fail = "breakdown"  # pivot breakdown: ⟨r̂, Ap̂⟩ = 0
                    break
                alpha = rho_new / denom
                s = r - alpha * v
                if np.linalg.norm(s) <= tol:
                    x += alpha * phat
                    r = s
                    rnorm = float(np.linalg.norm(r))
                    it += 1
                    residuals.append(rnorm)
                    if callback is not None:
                        callback(it, rnorm)
                    break
                shat = M(s) if M else s
                t = op(shat)
                nmv += 1
                isp.add("matvecs", 1)
                tt = dot(t, t)
                omega = dot(t, s) / tt if tt > 0 else 0.0
                x += alpha * phat + omega * shat
                r = s - omega * t
                rho = rho_new
                rnorm = float(np.linalg.norm(r))
            it += 1
            residuals.append(rnorm)
            if callback is not None:
                callback(it, rnorm)
            if not np.isfinite(rnorm):
                fail = "nonfinite"
                break
            if omega == 0.0:
                # stabiliser breakdown — terminal unless already converged
                if rnorm > tol:
                    fail = "breakdown"
                break
        reason = fail or ("converged" if rnorm <= tol else "maxiter")
        osp.add("iterations", it)
        osp.add("matvecs", nmv)
        osp.set("residual_history", residuals)
        osp.set("reason", reason)
    return KrylovResult(x, it, rnorm, reason == "converged", nmv, reason)
