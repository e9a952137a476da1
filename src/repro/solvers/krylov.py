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
from ..kernels.registry import get_backend
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

    For a multi-RHS block solve (``b`` of shape ``(n, k)``), ``x`` is
    ``(n, k)``, the scalar fields aggregate over columns (worst
    residual, total iterations, all-columns ``converged``) and the
    per-column outcome is carried in ``col_iterations`` /
    ``col_residuals`` / ``col_reasons``.
    """

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool
    matvecs: int = 0
    reason: str = "maxiter"
    col_iterations: np.ndarray | None = None
    col_residuals: np.ndarray | None = None
    col_reasons: tuple[str, ...] | None = None


def _as_op(A) -> Operator:
    if callable(A):
        return A
    if sp.issparse(A) or isinstance(A, np.ndarray):
        return lambda v: A @ v
    raise TypeError(f"cannot interpret {type(A)} as a linear operator")


def _vector_ops():
    """``(dot, axpy)`` for one solve: the active backend's own methods,
    resolved once at entry rather than per call; with tracing on, the
    instrumented facade, so every call still publishes its counters."""
    if TRACER.enabled:
        return kernels.dot, kernels.axpy
    be = get_backend()
    return be.dot, be.axpy


def _apply_columns(M: Operator, R: np.ndarray) -> np.ndarray:
    """Apply a single-vector preconditioner column-by-column."""
    out = np.empty_like(R)
    for j in range(R.shape[1]):
        out[:, j] = M(R[:, j])
    return out


def _col_dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per-column inner products ⟨u_j, v_j⟩ of two (n, k) blocks."""
    return np.einsum("ij,ij->j", U, V)


def _cg_block(
    A,
    B: np.ndarray,
    x0: np.ndarray | None,
    M: Operator | None,
    rtol: float,
    atol: float,
    maxiter: int | None,
    callback: Callable[[int, float], None] | None,
) -> KrylovResult:
    """Multi-RHS CG: k independent recurrences advanced in lockstep.

    Each column carries its own ``alpha``/``beta`` scalars, so the
    iterates are mathematically identical to k separate single-RHS
    solves — but every iteration applies the operator to the whole
    ``(n, k)`` block at once (one SpMM / one traversal instead of k
    SpMVs).  It is the entry point for k *distinct* right-hand sides;
    columns that are multiples of one vector want one scalar solve and
    a scaling (what :mod:`repro.serve.batcher` does).  Columns freeze as
    they converge (their search direction is zeroed) and per-column
    breakdowns are recorded without stopping the surviving columns.
    """
    with span("solver.cg") as osp:
        op = _as_op(A)
        B = np.asarray(B, float)
        n, k = B.shape
        if maxiter is None:
            maxiter = 10 * n
        X = np.zeros((n, k)) if x0 is None else np.asarray(x0, float).copy()
        R = B - op(X)
        nmv = 1
        Z = _apply_columns(M, R) if M else R.copy()
        P = Z.copy()
        rz = _col_dots(R, Z)
        bnorm = np.linalg.norm(B, axis=0)
        tol = np.maximum(rtol * np.where(bnorm == 0.0, 1.0, bnorm), atol)
        rnorm = np.linalg.norm(R, axis=0)
        residuals = [float(rnorm.max())]
        col_it = np.zeros(k, np.int64)
        col_reason = np.array(["maxiter"] * k, object)
        nonfin = ~np.isfinite(rnorm)
        col_reason[nonfin] = "nonfinite"
        done0 = ~nonfin & (rnorm <= tol)
        col_reason[done0] = "converged"
        active = ~nonfin & ~done0
        P[:, ~active] = 0.0
        it = 0
        while active.any() and it < maxiter:
            with span("solver.iteration", merge=True) as isp:
                AP = op(P)
                nmv += 1
                pAp = _col_dots(P, AP)
                bad = active & ~np.isfinite(pAp)
                brk = active & np.isfinite(pAp) & (pAp == 0.0)
                col_reason[bad] = "nonfinite"
                col_reason[brk] = "breakdown"
                col_it[bad | brk] = it
                active &= ~(bad | brk)
                if bad.any() or brk.any():
                    P[:, bad | brk] = 0.0
                if not active.any():
                    break
                alpha = np.where(
                    active, rz / np.where(pAp == 0.0, 1.0, pAp), 0.0
                )
                X += alpha[None, :] * P
                R -= alpha[None, :] * AP
                rnorm = np.linalg.norm(R, axis=0)
                isp.add("matvecs", 1)
            it += 1
            residuals.append(float(rnorm.max()))
            if callback is not None:
                callback(it, float(rnorm.max()))
            nonfin = active & ~np.isfinite(rnorm)
            col_reason[nonfin] = "nonfinite"
            col_it[nonfin] = it
            done = active & ~nonfin & (rnorm <= tol)
            col_reason[done] = "converged"
            col_it[done] = it
            active &= ~(nonfin | done)
            if not active.any():
                break
            Z = _apply_columns(M, R) if M else R.copy()
            rz_new = _col_dots(R, Z)
            beta = np.where(active, rz_new / np.where(rz == 0.0, 1.0, rz), 0.0)
            P = np.where(active[None, :], Z + beta[None, :] * P, 0.0)
            rz = rz_new
        col_it[active] = it  # columns that ran out of iterations
        reasons = tuple(str(r) for r in col_reason)
        if "nonfinite" in reasons:
            reason = "nonfinite"
        elif "breakdown" in reasons:
            reason = "breakdown"
        elif "maxiter" in reasons:
            reason = "maxiter"
        else:
            reason = "converged"
        osp.add("iterations", it)
        osp.add("matvecs", nmv)
        osp.add("columns", k)
        osp.set("residual_history", residuals)
        osp.set("reason", reason)
    return KrylovResult(
        X, it, float(rnorm.max()) if k else 0.0, reason == "converged",
        nmv, reason,
        col_iterations=col_it,
        col_residuals=rnorm.copy(),
        col_reasons=reasons,
    )


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
    budget: ``x0`` comes back with ``iterations == 0``.

    A 2-D ``b`` of shape ``(n, k)`` selects the multi-RHS block path:
    all k systems share every operator application (the operator must
    then accept ``(n, k)`` blocks — assembled matrices do), with
    per-column convergence bookkeeping.  ``M`` is still a single-vector
    preconditioner; it is applied column-wise.
    """
    if getattr(b, "ndim", 1) == 2:
        return _cg_block(A, b, x0, M, rtol, atol, maxiter, callback)
    with span("solver.cg") as osp:
        op = _as_op(A)
        dot, axpy = _vector_ops()
        n = len(b)
        if maxiter is None:
            maxiter = 10 * n
        x = np.zeros(n) if x0 is None else x0.astype(float).copy()
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
        x = np.zeros(n) if x0 is None else x0.astype(float).copy()
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
