"""Poisson problems on incomplete-octree meshes.

Supports both strong (nodal) Dirichlet conditions — the "naive"
first-order treatment of the voxelated boundary — and the Shifted
Boundary Method (:mod:`repro.fem.sbm`) that restores optimal
convergence (Fig. 6 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..core.assembly import assemble
from ..core.matvec import TraversalMatVec, traversal_matvec
from ..core.mesh import IncompleteMesh
from ..core.plan import operator_context
from ..solvers.krylov import cg
from ..solvers.precond import jacobi

__all__ = ["PoissonProblem", "load_vector", "l2_error", "linf_error", "quad_points"]


def quad_points(mesh: IncompleteMesh, nquad: int | None = None):
    """Physical quadrature points and weights over all elements.

    Returns ``(x, w, ref)`` with ``x`` of shape ``(n_elem, nq, dim)``
    and ``w`` of shape ``(n_elem, nq)`` (already scaled by h^dim).
    """
    ctx = operator_context(mesh)
    ref = ctx.ref(nquad)
    h = ctx.h
    lo, _ = mesh.leaves.physical_bounds(mesh.domain.scale)
    x = lo[:, None, :] + ref.qpts[None, :, :] * h[:, None, None]
    w = ref.qwts[None, :] * (h**mesh.dim)[:, None]
    return x, w, ref


def load_vector(mesh: IncompleteMesh, f: Callable | float, nquad=None) -> np.ndarray:
    """Consistent load vector b_i = ∫ f φ_i over the retained domain
    (a constant ``f`` scales the mesh context's unit load)."""
    if np.isscalar(f):
        return float(f) * operator_context(mesh).unit_load(nquad)
    x, w, ref = quad_points(mesh, nquad)
    fv = f(x.reshape(-1, mesh.dim)).reshape(w.shape)
    b_loc = np.einsum("eq,qi,eq->ei", fv, ref.N, w)
    return operator_context(mesh).scatter @ b_loc.reshape(-1)


def l2_error(mesh: IncompleteMesh, u_h: np.ndarray, exact: Callable, nquad=None) -> float:
    """‖u_h − u‖_L2 over the retained (voxelated) domain."""
    x, w, ref = quad_points(mesh, nquad or mesh.p + 2)
    u_loc = (operator_context(mesh).gather @ u_h).reshape(mesh.n_elem, mesh.npe)
    uh_q = u_loc @ ref.N.T
    ue_q = exact(x.reshape(-1, mesh.dim)).reshape(uh_q.shape)
    return float(np.sqrt(np.sum(w * (uh_q - ue_q) ** 2)))


def linf_error(mesh: IncompleteMesh, u_h: np.ndarray, exact: Callable) -> float:
    """max-norm error sampled at the global nodes."""
    pts = mesh.node_coords()
    return float(np.max(np.abs(u_h - exact(pts))))


@dataclass
class PoissonProblem:
    """−Δu = f on the retained subdomain with Dirichlet data.

    ``dirichlet`` is the boundary data g; with ``method='nodal'`` it is
    imposed strongly at every node of :attr:`IncompleteMesh.dirichlet_mask`
    (the voxelated boundary — first-order accurate); with
    ``method='sbm'`` the Shifted Boundary Method weak terms are added on
    the surrogate boundary faces instead (second order).
    """

    mesh: IncompleteMesh
    f: Callable | float = 0.0
    dirichlet: Callable | float = 0.0
    method: str = "nodal"
    # penalty: large enough for stability yet gentle on cells touching
    # the boundary only at a corner (where |d| approaches the cell
    # diagonal); 2.0 gives clean optimal rates for p=1 and p=2
    sbm_alpha: float = 2.0

    def _g_at(self, pts: np.ndarray) -> np.ndarray:
        if np.isscalar(self.dirichlet):
            return np.full(len(pts), float(self.dirichlet))
        return self.dirichlet(pts)

    def system(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Assembled system (A, b, fixed_mask) before elimination."""
        A = assemble(self.mesh, kind="stiffness")
        b = load_vector(self.mesh, self.f)
        if self.method == "nodal":
            fixed = self.mesh.dirichlet_mask.copy()
        elif self.method == "sbm":
            from .sbm import sbm_terms

            A_s, b_s = sbm_terms(self.mesh, self._g_at, alpha=self.sbm_alpha)
            A = (A + A_s).tocsr()
            b = b + b_s
            # only the true cube boundary stays strongly imposed
            fixed = self.mesh.nodes.domain_boundary & ~self.mesh.nodes.carved_node
        else:
            raise ValueError(f"unknown method {self.method!r}")
        return A, b, fixed

    def solve(
        self,
        rtol: float = 1e-10,
        solver: str = "auto",
        x0: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve the problem.

        ``solver``: ``"auto"`` (direct for SBM, CG otherwise),
        ``"direct"``, ``"cg"`` (assembled + Jacobi-CG), or
        ``"matrix-free"`` — never assembles the global matrix: the
        operator action is the compiled traversal MATVEC with the
        boundary rows folded in (:meth:`matrix_free_system`).

        ``x0`` (length ``n_nodes``) warm-starts the CG iteration — the
        AMR loop passes the previous mesh's solution transferred to the
        current mesh, cutting iteration counts on later cycles.  Ignored
        by the direct solver.
        """
        if solver not in ("auto", "direct", "cg", "matrix-free"):
            raise ValueError(
                f"unknown solver {solver!r}: expected auto, direct, cg or matrix-free"
            )
        if solver == "matrix-free":
            return self._solve_matrix_free(rtol, x0)
        A, b, fixed = self.system()
        n = self.mesh.n_nodes
        u = np.zeros(n)
        if fixed.any():
            u[fixed] = self._g_at(self.mesh.node_coords()[fixed])
        free = np.flatnonzero(~fixed)
        if len(free) == 0:
            return u
        Aff = A[np.ix_(free, free)].tocsr()
        rhs = b[free] - A[np.ix_(free, np.flatnonzero(fixed))] @ u[fixed]
        if solver == "direct" or (solver == "auto" and self.method == "sbm"):
            import scipy.sparse.linalg as spla

            u[free] = spla.spsolve(Aff.tocsc(), rhs)
        else:
            start = None if x0 is None else np.asarray(x0, float)[free]
            res = cg(
                Aff,
                rhs,
                x0=start,
                M=jacobi(Aff),
                rtol=rtol,
                maxiter=20 * len(free),
            )
            if not res.converged:
                raise RuntimeError(
                    f"CG failed to converge: residual {res.residual:.3e}"
                )
            u[free] = res.x
        return u

    def matrix_free_system(self):
        """The nodal-Dirichlet system without a matrix, ``(op, b, diag,
        u_fix)``: the constrained :class:`TraversalMatVec` (``op.free``
        marks the unknowns), the lifted load (zero where constrained),
        the Jacobi diagonal (1 where constrained), the boundary data."""
        if self.method != "nodal":
            raise ValueError("matrix-free solve supports the nodal method")
        mesh = self.mesh
        ctx = operator_context(mesh)
        free = ~mesh.dirichlet_mask
        u_fix = np.where(free, 0.0, self._g_at(mesh.node_coords()))
        b = load_vector(mesh, self.f)
        if u_fix.any():  # homogeneous data lifts to nothing
            b -= traversal_matvec(mesh, u_fix, plan=ctx.traversal)
        diag = ctx.jacobi_diagonal()
        diag = np.where(free & (diag > 0), diag, 1.0)
        op = TraversalMatVec(mesh, plan=ctx.traversal, free=free)
        return op, np.where(free, b, 0.0), diag, u_fix

    def _solve_matrix_free(self, rtol: float, x0: np.ndarray | None) -> np.ndarray:
        """Matrix-free Jacobi-CG: no global matrix is ever formed."""
        op, b, diag, u_fix = self.matrix_free_system()
        start = None if x0 is None else np.where(op.free, x0, 0.0)
        res = cg(
            op, b, x0=start, M=lambda r: r / diag, rtol=rtol,
            maxiter=20 * self.mesh.n_nodes,
        )
        if not res.converged:
            raise RuntimeError(
                f"matrix-free CG failed: residual {res.residual:.3e}"
            )
        return np.where(op.free, res.x, u_fix)

    def matrix_free_operator(self) -> TraversalMatVec:
        """The unconstrained stiffness action (for scaling studies)."""
        return TraversalMatVec(self.mesh, kind="stiffness")
