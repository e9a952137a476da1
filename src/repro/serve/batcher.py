"""Fingerprint-grouped batch execution: unit responses, combined per request.

Requests that share a :attr:`repro.serve.api.SolveRequest.batch_key`
(same discretization, same operator parameters) differ only in their
data: the source amplitude ``f`` and, where the pde has one, the
Dirichlet value ``g`` (:data:`repro.serve.api.LINEAR_TERMS`).  Both
enter the discrete system *linearly*, so request j's solution is
``f_j·u_f + g_j·u_g`` with the **unit responses** ``u_f`` (f=1, g=0)
and ``u_g`` (f=0, g=1).  A *factor* is what a batch key caches — a
system + its :class:`repro.fem.dirichlet.Dirichlet` elimination + how it
is inverted, the unit right-hand sides, and ``units``: the nominal-
tolerance unit responses it has been asked for so far.  Its one job is
``unit(term, rtol)``.  There are three factor kinds:

* Poisson, per pde ``poisson`` or ``sbm`` — the
  :class:`repro.solvers.system.FreeSystem` of
  ``PoissonProblem.assembled_system()`` (Jacobi-CG on ``A_ff`` for
  nodal, its LU built once for SBM): ``A_ff x = b_unit``, or ``−lift``
  (SBM: ``bs_unit − lift``, the unit boundary load lifted).
* ``transport`` — a ``TransportProblem`` (row-replaced, LU-factorized
  once) steps the unit source ``steps`` times.
* ``amr`` — the ``u_unit`` of the one estimator-driven refinement
  trajectory (:func:`repro.amr.loop.amr_solve`) cached per batch key.

:func:`solve_batch` is the one place that combines and the one caller
of ``unit``: it takes each unit response some member has a non-zero
coefficient on from ``factor.units`` — solving it on the factor's first
such batch only — and forms every member from the units it rides by
element-wise multiply/add, so a response's bits are a function of the
request, not of the batch it rode in, and a hot batch is k scaled adds.
The memo lives and dies with the factor and its bytes are in
``factor.nbytes`` from build.  A stored unit is read-only and sealed
with its :func:`~repro.serve.api.solution_digest`; ``factor.sealed()``
hands the cache those ``(u, seal)`` pairs, which every hit on the batch
key re-hashes before the units are served.  The nominal ``rtol`` is a
function of the batch key; brownout loosens it per batch, so a degraded
batch solves per batch and never touches — or seals into — the memo.
The outcome's ``matvecs`` are the stored unit's: the virtual clock
(``cost_solve``) keeps charging a solve per batch — it models a server
without the memo.  A Krylov ``breakdown`` or non-finite unit response
raises :class:`repro.resilience.faults.SolverBreakdown` for the whole
batch and stores nothing — the scheduler's retry-with-backoff re-solves
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.plan import operator_context
from ..fem.poisson import PoissonProblem
from ..fem.transport import TransportProblem
from ..obs import add as obs_add
from ..obs import span
from ..resilience.faults import SolverBreakdown
from .api import LINEAR_TERMS, SolveRequest, solution_digest
from .cache import CacheEntry

__all__ = ["BatchOutcome", "build_entry", "ensure_factor", "solve_batch"]


@dataclass
class UnitResponse:
    """A batch key's solution for one data term at coefficient 1."""

    u: np.ndarray                  # (n_nodes,), boundary values included
    iterations: int
    residual: float
    reason: str
    matvecs: int                   # operator applications / LU sweeps
    seal: str = ""                 # solution_digest(u) when the memo stores it


@dataclass
class BatchOutcome:
    """Per-request results of one batch solve."""

    solutions: np.ndarray          # (n_nodes, k)
    iterations: list[int]
    residuals: list[float]
    reasons: list[str]
    matvecs: int                   # spent on the batch's unit solves

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


def _csr_nbytes(A) -> int:
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


class _Factor:
    """What every factor kind shares: the memo's sealed arrays."""

    def sealed(self) -> list[tuple[np.ndarray, str]]:
        """``(u, seal)`` of every unit response the memo holds — what a
        hot hit on this factor's batch key reads."""
        return [(unit.u, unit.seal) for unit in self.units.values()]


class _PoissonFactor(_Factor):
    """Poisson, ``kind`` ``poisson`` (nodal Dirichlet, Jacobi-CG) or
    ``sbm`` (Shifted Boundary Method, LU once): the assembled
    :class:`~repro.solvers.system.FreeSystem` and the unit loads."""

    def __init__(self, mesh, request: SolveRequest):
        self.kind = request.pde
        sbm = self.kind == "sbm"
        # f = 0, g = 1: the g unit's data, and an SBM system's load is
        # the unit boundary load
        self.system, A, b = PoissonProblem(
            mesh, dirichlet=1.0,
            method="sbm" if sbm else "nodal").assembled_system()
        self.b_unit = operator_context(mesh).unit_load()
        self.bs_unit = b if sbm else None
        self.lift = self.system.bc.lift(A)
        self.n_nodes = mesh.n_nodes
        self.nbytes = (_csr_nbytes(self.system.op) + self.b_unit.nbytes
                       + self.lift.nbytes)
        if sbm:
            self.nbytes += 16 * int(self.system.lu.nnz) + b.nbytes

    def unit(self, term: str, rtol: float) -> UnitResponse:
        bc = self.system.bc
        if term == "f":
            b = self.b_unit[bc.free_idx]
        elif self.bs_unit is None:
            b = -self.lift
        else:
            b = self.bs_unit[bc.free_idx] - self.lift
        res = self.system.solve(b, rtol=rtol, atol=1e-14)
        return UnitResponse(bc.expand(res.x, float(term == "g")),
                            res.iterations, res.residual, res.reason,
                            res.matvecs)


class _TransportFactor(_Factor):
    """Implicit-Euler SUPG transport, one LU shared by the batch.

    velocity/kappa/dt/steps are in the batch key and every member starts
    from c = 0 with boundary value 0, so its history is linear in the
    source amplitude ``f``: the unit source is stepped once.
    """

    kind = "transport"

    def __init__(self, mesh, request: SolveRequest):
        # validate() guarantees one component per axis
        vel = np.asarray(request.velocity, float)[: mesh.dim]
        self.problem = TransportProblem(
            mesh, np.tile(vel, (mesh.n_nodes, 1)), kappa=request.kappa,
            dt=request.dt, dirichlet_mask=mesh.dirichlet_mask,
            dirichlet_value=0.0,
        )
        self.steps = request.steps
        self.n_nodes = mesh.n_nodes
        # + the unit load the steps add
        self.nbytes = (_csr_nbytes(self.problem.A)
                       + 16 * int(self.problem._lu.nnz) + 8 * mesh.n_nodes)

    def unit(self, term: str, rtol: float) -> UnitResponse:
        c = self.problem.run(np.zeros(self.n_nodes), self.steps, source=1.0)
        return UnitResponse(c, self.steps, 0.0, "direct", self.steps)


class _AmrFactor(_Factor):
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
        )
        self.mesh = result.mesh
        self.u_unit = result.u
        self.cycles = len(result.history)
        self.eta = result.total_eta
        self.n_nodes = result.mesh.n_nodes
        leaves = self.mesh.leaves
        self.nbytes = leaves.anchors.nbytes + leaves.levels.nbytes

    def unit(self, term: str, rtol: float) -> UnitResponse:
        return UnitResponse(self.u_unit, self.cycles, float(self.eta),
                            "converged", 0)


_FACTORS = {"poisson": _PoissonFactor, "sbm": _PoissonFactor,
            "transport": _TransportFactor, "amr": _AmrFactor}


def ensure_factor(entry: CacheEntry, request: SolveRequest):
    """The entry's factor for this request's batch key, building (and
    byte-accounting) it on first use."""
    key = request.batch_key
    factor = entry.factors.get(key)
    if factor is not None:
        return factor, False
    with span("serve.factor_build", pde=request.pde) as osp:
        factor = _FACTORS[request.pde](entry.mesh, request)
        # term → nominal UnitResponse, filled by solve_batch; its bytes
        # count from build so cache bytes never depend on arrival order
        factor.units = {}
        factor.nbytes += 8 * factor.n_nodes * len(LINEAR_TERMS[factor.kind])
        osp.add("bytes", factor.nbytes)
    entry.add_factor(key, factor, factor.nbytes)
    return factor, True


#: reasons a member can end with, mildest first: it takes the worst of
#: the units it rides (all-zero data rides none and is exact)
_REASONS = ("direct", "converged", "maxiter")


def solve_batch(factor, requests: list[SolveRequest],
                tol_scale: float = 1.0) -> BatchOutcome:
    """Solve one batch through its cached factor and its unit memo.

    A member's iteration count is the largest of the units it rides, its
    residual ``Σ|coef|·unit residual`` (an upper bound on the true one).
    ``tol_scale > 1`` is the brownout degrade path: iterative unit
    solves stop at a loosened tolerance (direct factors are unaffected)
    and the memo is neither read nor written."""
    with span("serve.solve", pde=factor.kind) as osp:
        # tol is in the batch key: equal across the members
        rtol = min(requests[0].tol * tol_scale, 1e-2)
        nominal = tol_scale == 1.0
        memo = factor.units if nominal else {}
        k = len(requests)
        rows = np.zeros((k, factor.n_nodes))
        its, res, worst = [0] * k, [0.0] * k, [0] * k
        matvecs = 0
        for term in LINEAR_TERMS[factor.kind]:
            coef = [getattr(r, term) for r in requests]
            if not any(coef):
                continue
            unit = memo.get(term)
            found = "misses" if unit is None else "hits"
            osp.add("unit_" + found)
            obs_add("serve.unit." + found, pde=factor.kind)
            if unit is None:
                unit = factor.unit(term, rtol)
                reason = unit.reason if np.isfinite(unit.u).all() else "nonfinite"
                if reason not in _REASONS:
                    raise SolverBreakdown(
                        "serve.batch", reason,
                        f"{factor.kind} unit response for {term!r} broke down")
                unit.u.flags.writeable = False
                if nominal:
                    unit.seal = solution_digest(unit.u)
                    memo[term] = unit
            severity = _REASONS.index(unit.reason)
            matvecs += unit.matvecs
            for j, c in enumerate(coef):
                if c:
                    rows[j] += c * unit.u
                    its[j] = max(its[j], unit.iterations)
                    res[j] += abs(c) * unit.residual
                    worst[j] = max(worst[j], severity)
        osp.add("columns", k)
        osp.add("matvecs", matvecs)
    return BatchOutcome(rows.T, its, res, [_REASONS[w] for w in worst],
                        matvecs)
