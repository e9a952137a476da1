"""Poisson problems on incomplete-octree meshes.

Supports both strong (nodal) Dirichlet conditions — the "naive"
first-order treatment of the voxelated boundary — and the Shifted
Boundary Method (:mod:`repro.fem.sbm`) that restores optimal
convergence (Fig. 6 of the paper).  The strong part is always one
:class:`repro.fem.dirichlet.Dirichlet` elimination, and every solve
inverts one :class:`repro.solvers.system.FreeSystem` on its free nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..core.assembly import assemble
from ..core.matvec import TraversalMatVec
from ..core.mesh import IncompleteMesh
from ..core.plan import operator_context
from ..solvers.system import FreeSystem
from .dirichlet import Dirichlet, finite
from .sbm import sbm_terms

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

    def _g_at(self, pts: np.ndarray) -> np.ndarray:
        g = self.dirichlet
        return finite("dirichlet", np.full(len(pts), float(g))
                      if np.isscalar(g) else g(pts))

    def _g_nodes(self) -> np.ndarray:
        """g at every node; a scalar g needs the node count, not the
        node coordinates."""
        g = self.dirichlet
        if np.isscalar(g):
            return finite("dirichlet", np.full(self.mesh.n_nodes, float(g)))
        return self._g_at(self.mesh.node_coords())

    def system(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Assembled system (A, b, fixed_mask) before elimination."""
        A = assemble(self.mesh, kind="stiffness")
        b = finite("f", load_vector(self.mesh, self.f))
        if self.method == "nodal":
            fixed = self.mesh.dirichlet_mask.copy()
        elif self.method == "sbm":
            A_s, b_s = sbm_terms(self.mesh, self._g_at)
            A = (A + A_s).tocsr()
            b = b + b_s
            # only the true cube boundary stays strongly imposed (so every
            # retained element keeps a free corner)
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
        """Solve the problem through one :class:`FreeSystem`.

        ``solver``: ``"auto"`` assembles the system and inverts it on the
        free nodes by the method's rule (:meth:`assembled_system`:
        Jacobi-CG for nodal, LU for SBM); ``"matrix-free"`` never
        assembles the global matrix: Jacobi-CG runs on the free nodes
        through the mesh's compiled constrained operator
        (:meth:`free_system`), and non-zero boundary data is lifted by
        one unconstrained apply.

        ``x0`` (length ``n_nodes``) warm-starts the CG iteration — the
        AMR loop passes the previous mesh's solution transferred to the
        current mesh, cutting iteration counts on later cycles.  Ignored
        by the LU.  Non-finite ``f``, ``dirichlet`` or ``x0`` is a
        ``ValueError`` before any solve.
        """
        if solver not in ("auto", "matrix-free"):
            raise ValueError(
                f"unknown solver {solver!r}: expected auto or matrix-free")
        if x0 is not None:
            x0 = finite("x0", x0, self.mesh.n_nodes)
        if solver == "matrix-free":
            system, b = self.free_system()
        else:
            system, A, b = self.assembled_system()
            b = system.bc.rhs(A, b)
        bc = system.bc
        res = system.solve(b, x0=None if x0 is None else x0[bc.free_idx],
                           rtol=rtol)
        if not res.converged:
            raise RuntimeError(f"CG failed to converge: residual {res.residual:.3e}")
        return bc.expand(res.x)

    def assembled_system(self) -> tuple[FreeSystem, sp.csr_matrix, np.ndarray]:
        """``(system, A, b)``: the assembled :meth:`system` before
        elimination and its :class:`FreeSystem` on the sliced ``A_ff``,
        inverted by the method's rule — Jacobi-CG for nodal, an LU built
        here for SBM."""
        A, b, fixed = self.system()
        bc = Dirichlet(fixed, self._g_nodes())
        return FreeSystem(bc, bc.A_ff(A), direct=self.method == "sbm"), A, b

    def free_system(self) -> tuple[FreeSystem, np.ndarray]:
        """The nodal system on the free nodes without a matrix,
        ``(system, b)``: the :class:`FreeSystem` over the compiled
        constrained stiffness
        (:meth:`repro.core.plan.OperatorContext.constrained_stiffness`,
        preconditioned by its Jacobi diagonal ``op.diag``) and the free
        load, non-zero boundary data lifted by one unconstrained apply.
        What ``solve(solver="matrix-free")`` iterates on, and what
        :func:`repro.resilience.recovery.resilient_poisson_solve`
        iterates on through its distributed apply."""
        if self.method != "nodal":
            raise ValueError("matrix-free solve supports the nodal method")
        mesh = self.mesh
        ctx = operator_context(mesh)
        op = ctx.constrained_stiffness()
        bc = Dirichlet(mesh.dirichlet_mask, self._g_nodes())
        if np.isscalar(self.f):
            b = finite("f", float(self.f) * op.unit_load)
        else:
            b = finite("f", load_vector(mesh, self.f))[op.free_idx]
        if bc.u_fix.any():  # homogeneous data lifts to nothing
            b = b - bc.lift(TraversalMatVec(mesh, plan=ctx.traversal))
        return FreeSystem(bc, op), b
