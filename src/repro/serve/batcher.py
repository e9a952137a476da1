"""Fingerprint-grouped batch execution: one operator pass, many RHS.

Requests that share a :attr:`repro.serve.api.SolveRequest.batch_key`
(same discretization, same operator parameters) differ only in their
RHS data (source amplitude ``f``, Dirichlet value ``g``).  Both enter
the discrete system *linearly*, so a batch of k requests is exactly a
multi-RHS solve:

* ``poisson`` — block CG through the new multi-RHS path of
  :func:`repro.solvers.krylov.cg` on the cached assembled operator:
  every iteration is one SpMM over the ``(n, k)`` block instead of k
  SpMVs, so cache-hot traffic pays one operator traversal per batch.
* ``sbm`` — the Shifted Boundary Method system is factorized once
  (``splu``); a batch is one k-column triangular solve.
* ``transport`` — the implicit-Euler SUPG matrix is factorized once;
  time stepping advances all k columns together.
* ``amr`` — one estimator-driven refinement trajectory
  (:func:`repro.amr.loop.amr_solve`, unit source) is cached per batch
  key; every request shares the adapted mesh and scales the unit
  solution by its amplitude ``f``.

Per-request RHS columns are assembled from cached *unit* vectors
(``b_unit`` for f=1 — the mesh context's one shared, read-only
``unit_load()`` — and ``bs_unit``/``lift`` for g=1), so the per-request
marginal cost on the hot path is axpy-scale.

A Krylov ``breakdown``/``nonfinite`` column surfaces as a typed
:class:`repro.resilience.faults.SolverBreakdown` for the whole batch —
the scheduler's retry-with-backoff handles it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from ..core.assembly import assemble
from ..core.plan import operator_context
from ..obs import span
from ..resilience.faults import SolverBreakdown
from ..solvers.krylov import cg
from ..solvers.precond import jacobi
from .api import SolveRequest, solution_digest
from .cache import CacheEntry

__all__ = ["BatchOutcome", "build_entry", "ensure_factor", "solve_batch"]


@dataclass
class BatchOutcome:
    """Per-column results of one batch solve."""

    solutions: np.ndarray          # (n_nodes, k)
    iterations: list[int]
    residuals: list[float]
    reasons: list[str]
    matvecs: int                   # block operator applications

    def digest(self, j: int) -> str:
        return solution_digest(self.solutions[:, j])


def build_entry(request: SolveRequest) -> CacheEntry:
    """Cold path: construct mesh + operator context for a request.

    This is the only place in the serving stack that opens
    ``build_mesh`` / ``plan.context_build`` spans; a cache-hot request
    never reaches it.
    """
    mesh = request.build_mesh()
    ctx = operator_context(mesh)
    return CacheEntry(ctx.fingerprint, mesh, ctx)


# -- factors ------------------------------------------------------------


class _PoissonFactor:
    """Assembled nodal-Dirichlet Poisson operator + Jacobi + unit RHS."""

    kind = "poisson"

    def __init__(self, mesh):
        A = assemble(mesh, kind="stiffness")
        self.fixed = mesh.dirichlet_mask.copy()
        self.free = np.flatnonzero(~self.fixed)
        fixed_idx = np.flatnonzero(self.fixed)
        self.Aff = A[np.ix_(self.free, self.free)].tocsr()
        self.M = jacobi(self.Aff)
        self.b_unit = operator_context(mesh).unit_load()
        self.lift = np.asarray(
            A[np.ix_(self.free, fixed_idx)] @ np.ones(len(fixed_idx))
        ).ravel()
        self.n_nodes = mesh.n_nodes
        self.nbytes = (
            self.Aff.data.nbytes + self.Aff.indices.nbytes
            + self.Aff.indptr.nbytes + self.b_unit.nbytes + self.lift.nbytes
        )

    def solve(self, requests: list[SolveRequest],
              tol_scale: float = 1.0) -> BatchOutcome:
        k = len(requests)
        fs = np.array([r.f for r in requests])
        gs = np.array([r.g for r in requests])
        U = np.empty((self.n_nodes, k))
        U[self.fixed, :] = gs[None, :]
        if len(self.free) == 0:
            return BatchOutcome(U, [0] * k, [0.0] * k, ["direct"] * k, 0)
        B = (
            self.b_unit[self.free, None] * fs[None, :]
            - self.lift[:, None] * gs[None, :]
        )
        # equal across the batch (in the batch key); brownout loosens
        # it uniformly via tol_scale
        rtol = min(requests[0].tol * tol_scale, 1e-2)
        res = cg(self.Aff, B, M=self.M, rtol=rtol, atol=1e-14,
                 maxiter=20 * len(self.free))
        bad = [r for r in res.col_reasons if r in ("breakdown", "nonfinite")]
        if bad:
            raise SolverBreakdown("serve.batch", bad[0],
                                  f"{len(bad)}/{k} columns broke down")
        U[self.free, :] = res.x
        return BatchOutcome(
            U,
            [int(i) for i in res.col_iterations],
            [float(r) for r in res.col_residuals],
            list(res.col_reasons),
            res.matvecs,
        )


class _SbmFactor:
    """Shifted-Boundary-Method Poisson, LU-factorized once per mesh."""

    kind = "sbm"

    def __init__(self, mesh, alpha: float = 2.0):
        from ..fem.sbm import sbm_terms

        A = assemble(mesh, kind="stiffness")
        ones = lambda pts: np.ones(len(pts))  # noqa: E731
        A_s, bs_unit = sbm_terms(mesh, ones, alpha=alpha)
        A = (A + A_s).tocsr()
        # only the true cube boundary stays strongly imposed
        self.fixed = mesh.nodes.domain_boundary & ~mesh.nodes.carved_node
        self.free = np.flatnonzero(~self.fixed)
        fixed_idx = np.flatnonzero(self.fixed)
        self.Aff = A[np.ix_(self.free, self.free)].tocsr()
        self.lu = spla.splu(self.Aff.tocsc())
        self.b_unit = operator_context(mesh).unit_load()
        self.bs_unit = bs_unit
        self.lift = np.asarray(
            A[np.ix_(self.free, fixed_idx)] @ np.ones(len(fixed_idx))
        ).ravel()
        self.n_nodes = mesh.n_nodes
        self.nbytes = (
            self.Aff.data.nbytes + self.Aff.indices.nbytes
            + self.Aff.indptr.nbytes + 16 * int(self.lu.nnz)
            + self.b_unit.nbytes + self.bs_unit.nbytes + self.lift.nbytes
        )

    def solve(self, requests: list[SolveRequest],
              tol_scale: float = 1.0) -> BatchOutcome:
        k = len(requests)
        fs = np.array([r.f for r in requests])
        gs = np.array([r.g for r in requests])
        U = np.empty((self.n_nodes, k))
        U[self.fixed, :] = gs[None, :]
        if len(self.free) == 0:
            return BatchOutcome(U, [0] * k, [0.0] * k, ["direct"] * k, 0)
        b = self.b_unit[:, None] * fs[None, :] + self.bs_unit[:, None] * gs[None, :]
        B = b[self.free, :] - self.lift[:, None] * gs[None, :]
        X = self.lu.solve(B)
        if not np.all(np.isfinite(X)):
            raise SolverBreakdown("serve.batch", "nonfinite",
                                  "SBM LU solve produced non-finite values")
        U[self.free, :] = X
        rnorm = np.linalg.norm(self.Aff @ X - B, axis=0)
        return BatchOutcome(
            U, [0] * k, [float(r) for r in rnorm], ["direct"] * k, 1
        )


class _TransportFactor:
    """Implicit-Euler SUPG transport, one LU shared by the batch.

    All batch members share velocity/kappa/dt/steps (they are in the
    batch key); the per-request source amplitude ``f`` scales the unit
    load column, and the k concentration histories advance in lockstep
    through the shared factorization.
    """

    kind = "transport"

    def __init__(self, mesh, request: SolveRequest):
        from ..fem.transport import TransportProblem

        vel = np.asarray(request.velocity, float)[: mesh.dim]
        if len(vel) != mesh.dim:
            raise ValueError(
                f"velocity needs >= {mesh.dim} components for a "
                f"{mesh.dim}-D mesh"
            )
        self.problem = TransportProblem(
            mesh, np.tile(vel, (mesh.n_nodes, 1)), kappa=request.kappa,
            dt=request.dt, dirichlet_mask=mesh.dirichlet_mask,
            dirichlet_value=0.0,
        )
        self.steps = request.steps
        self.b_unit = operator_context(mesh).unit_load()
        self.n_nodes = mesh.n_nodes
        A = self.problem.A
        self.nbytes = (
            A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
            + 16 * int(self.problem._lu.nnz) + self.b_unit.nbytes
        )

    def solve(self, requests: list[SolveRequest],
              tol_scale: float = 1.0) -> BatchOutcome:
        k = len(requests)
        fs = np.array([r.f for r in requests])
        prob = self.problem
        C = np.zeros((self.n_nodes, k))
        for _ in range(self.steps):
            rhs = prob.M_old @ C + self.b_unit[:, None] * fs[None, :]
            rhs[prob.dirichlet_mask, :] = prob.dirichlet_value
            C = prob._lu.solve(rhs)
        if not np.all(np.isfinite(C)):
            raise SolverBreakdown("serve.batch", "nonfinite",
                                  "transport stepping produced non-finite values")
        return BatchOutcome(
            C, [self.steps] * k, [0.0] * k, ["direct"] * k, self.steps
        )


class _AmrFactor:
    """One cached adaptive-refinement trajectory per batch key.

    The loop is driven with the *unit* source (f=1, g=0).  Dörfler and
    maximum marking depend only on the relative indicator distribution,
    and the estimator scales by f² under RHS scaling, so every request
    in the batch follows the identical trajectory — the final adapted
    mesh is shared and each request's solution is ``f · u_unit`` by
    linearity (g = 0 is enforced at validation).  The loop starts
    from the entry's mesh: the geometry is meshed once per request.
    """

    kind = "amr"

    def __init__(self, mesh, request: SolveRequest):
        from ..amr import amr_solve

        result = amr_solve(
            mesh.domain,
            f=1.0,
            dirichlet=0.0,
            mesh=mesh,
            max_cycles=request.amr_cycles,
            theta=request.amr_theta,
            rtol=request.tol,
            check_equivalence=False,
        )
        self.mesh = result.mesh
        self.u_unit = result.u
        self.cycles = len(result.history)
        self.eta = result.total_eta
        self.n_nodes = result.mesh.n_nodes
        self.nbytes = (
            self.u_unit.nbytes
            + self.mesh.leaves.anchors.nbytes
            + self.mesh.leaves.levels.nbytes
        )

    def solve(self, requests: list[SolveRequest],
              tol_scale: float = 1.0) -> BatchOutcome:
        k = len(requests)
        fs = np.array([r.f for r in requests])
        U = self.u_unit[:, None] * fs[None, :]
        return BatchOutcome(
            U, [self.cycles] * k, [float(self.eta)] * k, ["converged"] * k, 0
        )


def ensure_factor(entry: CacheEntry, request: SolveRequest):
    """The entry's factor for this request's batch key, building (and
    byte-accounting) it on first use."""
    key = request.batch_key
    factor = entry.factors.get(key)
    if factor is not None:
        return factor, False
    with span("serve.factor_build", pde=request.pde) as osp:
        if request.pde == "poisson":
            factor = _PoissonFactor(entry.mesh)
        elif request.pde == "sbm":
            factor = _SbmFactor(entry.mesh)
        elif request.pde == "transport":
            factor = _TransportFactor(entry.mesh, request)
        elif request.pde == "amr":
            factor = _AmrFactor(entry.mesh, request)
        else:  # pragma: no cover - validated at submit
            raise ValueError(f"unknown pde {request.pde!r}")
        osp.add("bytes", factor.nbytes)
    entry.add_factor(key, factor, factor.nbytes)
    return factor, True


def solve_batch(factor, requests: list[SolveRequest],
                tol_scale: float = 1.0) -> BatchOutcome:
    """Solve one batch through its cached factor (one multi-RHS block).

    ``tol_scale > 1`` is the brownout degrade path: iterative members
    stop at a loosened tolerance (direct factors are unaffected)."""
    with span("serve.solve", pde=factor.kind) as osp:
        out = factor.solve(requests, tol_scale=tol_scale)
        osp.add("columns", len(requests))
        osp.add("matvecs", out.matvecs)
    return out
