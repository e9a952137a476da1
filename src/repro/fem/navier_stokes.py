"""VMS/SUPG-PSPG stabilised incompressible Navier–Stokes (§5).

Equal-order Lagrange elements for velocity and pressure on the
incomplete octree, with the residual-based stabilisation of the VMS
family (Bazilevs et al. 2007 is the paper's formulation; this
implementation carries its SUPG/PSPG/grad-div core with element-wise
constant advection — adequate for the laminar validation regimes a
Python reproduction can reach, see DESIGN.md):

momentum   (w, u_t + a·∇u) + ν(∇w, ∇u) − (∇·w, p)
           + Σ_e τ_m (a·∇w, R_m(u, p)) + Σ_e τ_c (∇·w, ∇·u)
continuity (q, ∇·u) + Σ_e τ_m (∇q, R_m(u, p))

with R_m the momentum residual (time + advection + pressure gradient;
the viscous term drops for linear elements).  Nonlinearity is handled
by Picard iteration; time integration is implicit Euler; the linear
systems are solved with a sparse LU (the PETSc-equivalent role).

The velocity-diagonal blocks are the one stabilised advection–diffusion
form, :class:`repro.fem.transport.SupgForm` with κ = ν; the matrix is one
:func:`repro.kernels.api.assemble` over the multi-field gather, which
forms the blocks chunk by chunk, and the old state is applied element
by element, never assembled.

Unknown layout: ``x = [u_0 | u_1 | (u_2) | p]``, each field of length
``n_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.mesh import IncompleteMesh
from ..core.plan import operator_context
from ..kernels import api as kernels
from ..obs import add as obs_add
from ..obs import span
from ..solvers.system import sparse_lu
from .dirichlet import Dirichlet
from .transport import SupgForm, element_velocity

__all__ = ["NavierStokesProblem", "NSResult"]


@dataclass
class NSResult:
    velocity: np.ndarray  # (n_nodes, dim)
    pressure: np.ndarray  # (n_nodes,)
    iterations: int
    residual: float


class NavierStokesProblem:
    """Incompressible Navier–Stokes on an incomplete-octree mesh.

    Parameters
    ----------
    nu:
        Kinematic viscosity (1/Re for unit inflow and length).
    velocity_bc:
        ``f(points) -> (mask, values)`` with ``mask`` and ``values`` of
        shape ``(n_nodes, dim)``: strong velocity data per component.
    pressure_pin:
        Boolean node mask where p = 0 is imposed (e.g. the outlet).
    """

    def __init__(
        self,
        mesh: IncompleteMesh,
        nu: float,
        velocity_bc: Callable,
        pressure_pin: np.ndarray | None = None,
        dt: float = np.inf,
    ):
        self.mesh = mesh
        self.nu = float(nu)
        self.dt = float(dt)
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be finite and > 0, got {nu!r}")
        SupgForm.check(self.nu, self.dt)
        self.dim = mesh.dim
        self.n = mesh.n_nodes
        self.ctx = operator_context(mesh)
        self.ref = self.ctx.ref()
        self.h = self.ctx.h
        pts = mesh.node_coords()
        mask, vals = velocity_bc(pts)
        self.vmask = np.asarray(mask, bool)
        self.vvals = np.asarray(vals, float)
        if self.vmask.shape != (self.n, self.dim):
            raise ValueError("velocity_bc mask must be (n_nodes, dim)")
        self.ppin = (
            np.zeros(self.n, bool) if pressure_pin is None else np.asarray(pressure_pin, bool)
        )
        self._G = self.ctx.big_gather(self.dim + 1)
        self._GT = self._G.T.tocsr()
        # strong data over the big [u components | p] vector
        self._bc = Dirichlet(
            np.concatenate([self.vmask[:, k] for k in range(self.dim)] + [self.ppin]),
            np.concatenate([self.vvals[:, k] for k in range(self.dim)]
                           + [np.zeros(self.n)]),
        )

    # -- element blocks ----------------------------------------------------

    def _blocks(self, form: SupgForm, e: np.ndarray) -> np.ndarray:
        """Dense blocks ``(len(e), (dim+1)·npe, (dim+1)·npe)`` of the
        ascending element ids ``e``: the shared velocity block on each
        velocity component plus the Navier–Stokes terms."""
        ref, dim, npe, ne = self.ref, self.dim, self.mesh.npe, len(e)
        h, a, tau_m = self.h[e], form.a[e], form.tau[e][:, None, None]
        sc_k = (h ** (dim - 2))[:, None, None]
        sc_c = (h ** (dim - 1))[:, None, None]
        inv_dt = 1.0 / self.dt  # 0 when steady
        amag = np.linalg.norm(a, axis=1)
        re_h = amag * h / (2.0 * self.nu)
        # keep grad-div active in the Stokes limit for pressure robustness
        tau_c = np.maximum(0.5 * h * amag * np.minimum(re_h / 3.0, 1.0),
                           0.05 * self.nu)[:, None, None]
        E = np.zeros((ne, dim + 1, npe, dim + 1, npe))  # [field, slot]²
        vel_diag = form.lhs_blocks(e)
        for i in range(dim):
            CiT = ref.C_ref[i].T[None]
            E[:, i, :, i] += vel_diag
            # grad-div: tau_c (∂_i w, ∂_j u)
            for j in range(dim):
                E[:, i, :, j] += tau_c * ref.D_ref[i, j][None] * sc_k
            # pressure gradient: −(∂_i w, p) ; SUPG τ (a·∇w, ∂_i p)
            # τ_m ∫ (a·∇φ_r) ∂_i φ_c = τ_m Σ_k a_k D_ref[k, i]
            E[:, i, :, dim] += -CiT * sc_c + tau_m * np.einsum(
                "fk,kij->fij", a, ref.D_ref[:, i]) * sc_k
            # continuity: (q, ∂_i u_i) ; PSPG τ (∂_i q, u_t + a·∇u)
            E[:, dim, :, i] += (
                ref.C_ref[i][None] * sc_c
                + tau_m * inv_dt * CiT * sc_c
                + tau_m * np.einsum("fk,kij->fij", a, ref.D_ref[i, :]) * sc_k
            )
        # PSPG pressure block: τ_m (∇q, ∇p)
        E[:, dim, :, dim] += tau_m * (ref.K_ref[None] * sc_k)
        return E.reshape(ne, (dim + 1) * npe, (dim + 1) * npe)

    def _old_state(self, form: SupgForm, x_old: np.ndarray) -> np.ndarray:
        """The old-state right-hand side, applied element by element and
        never formed as a matrix: the shared old-state block on each
        velocity component, and into the pressure rows the PSPG term
        τ/dt (∂_i q, u_i) as a scaled reference apply."""
        dim, npe, ne = self.dim, self.mesh.npe, self.mesh.n_elem
        x_loc = kernels.gather(self._G, x_old).reshape(ne, dim + 1, npe)
        old = form.old_blocks(np.arange(ne))
        pspg = form.tau / self.dt * self.h ** (dim - 1)
        w = np.zeros((ne, dim + 1, npe))
        for i in range(dim):
            w[:, i] = np.matmul(old, x_loc[:, i, :, None])[..., 0]
            w[:, dim] += kernels.elem_apply(x_loc[:, i], self.ref.C_ref[i].T, pspg)
        return kernels.scatter(self._GT, w.reshape(-1))

    # -- assembly & solve -------------------------------------------------

    def _assemble(self, U: np.ndarray, x_old: np.ndarray | None):
        with span("ns.assemble", merge=True) as osp:
            form = SupgForm(self.ref, element_velocity(self.mesh, U), self.nu,
                            self.h, self.dt)
            A = kernels.assemble(self._G, self._GT,
                                 lambda e: self._blocks(form, e))
            b = (np.zeros(A.shape[0]) if x_old is None
                 else self._old_state(form, x_old))
            osp.add("elements", self.mesh.n_elem)
        A_bc, b = self._bc.masked(A, b)
        return A_bc.tocsc(), b

    def pack(self, U: np.ndarray, P: np.ndarray) -> np.ndarray:
        return np.concatenate([U[:, k] for k in range(self.dim)] + [P])

    def unpack(self, x: np.ndarray):
        n = self.n
        U = np.stack([x[k * n : (k + 1) * n] for k in range(self.dim)], axis=1)
        return U, x[self.dim * n :]

    def initial_state(self):
        """Start from the boundary data extended by zero."""
        U = np.where(self.vmask, self.vvals, 0.0)
        return U, np.zeros(self.n)

    def picard_solve(
        self,
        U0: np.ndarray | None = None,
        P0: np.ndarray | None = None,
        x_old: np.ndarray | None = None,
        max_iter: int = 25,
        tol: float = 1e-6,
    ) -> NSResult:
        """Picard iteration at fixed time level (steady if dt = inf)."""
        if U0 is None or P0 is None:
            U0, P0 = self.initial_state()
        U, P = U0.copy(), P0.copy()
        res = np.inf
        it = 0
        with span("ns.picard", merge=True) as osp:
            for it in range(1, max_iter + 1):
                A, b = self._assemble(U, x_old)
                with span("ns.linear_solve", merge=True):
                    x = sparse_lu(A).solve(b)
                U_new, P = self.unpack(x)
                res = np.linalg.norm(U_new - U) / max(np.linalg.norm(U_new), 1e-12)
                U = U_new
                if res < tol:
                    break
            osp.add("iterations", it)
        return NSResult(U, P, it, res)

    def _substep(self, state: NSResult, picard_per_step: int) -> NSResult:
        """One implicit-Euler step at the current ``self.dt``; raises
        ``FloatingPointError`` if the new state is not finite (sparse-LU
        singular factors surface as ``RuntimeError`` from SciPy)."""
        x_old = self.pack(state.velocity, state.pressure)
        out = self.picard_solve(
            state.velocity, state.pressure, x_old=x_old,
            max_iter=picard_per_step, tol=1e-8,
        )
        if not (
            np.all(np.isfinite(out.velocity)) and np.all(np.isfinite(out.pressure))
        ):
            raise FloatingPointError("non-finite Navier-Stokes state")
        return out

    def advance(
        self,
        U: np.ndarray,
        P: np.ndarray,
        nsteps: int,
        picard_per_step: int = 2,
        max_dt_halvings: int = 0,
    ) -> NSResult:
        """Implicit-Euler time stepping (dt must be finite).

        With ``max_dt_halvings > 0``, a failed step (singular linear
        solve or a non-finite state) is retried with the step size
        halved — 2^k substeps of dt/2^k land on the same time level, so
        the trajectory's time grid is unchanged for callers.  Each
        retry increments the ``resilience.ns.dt_halvings`` counter;
        exhausting the budget raises
        :class:`repro.resilience.faults.SolverBreakdown` instead of
        silently returning garbage.
        """
        if not np.isfinite(self.dt):
            raise ValueError("advance() requires a finite dt")
        out = NSResult(U, P, 0, np.inf)
        dt0 = self.dt
        with span("ns.advance") as osp:
            try:
                for s in range(nsteps):
                    for halving in range(max_dt_halvings + 1):
                        nsub = 2**halving
                        self.dt = dt0 / nsub
                        try:
                            sub = out
                            for _ in range(nsub):
                                sub = self._substep(sub, picard_per_step)
                            out = sub
                            break
                        except (FloatingPointError, RuntimeError) as exc:
                            if halving == max_dt_halvings:
                                if max_dt_halvings == 0:
                                    raise
                                from ..resilience.faults import SolverBreakdown

                                raise SolverBreakdown(
                                    "ns.advance",
                                    "dt_budget_exhausted",
                                    f"step {s + 1}: dt halved {halving}x "
                                    f"down to {self.dt:.3e}, still failing "
                                    f"({exc})",
                                ) from exc
                            obs_add("resilience.ns.dt_halvings", 1)
                            osp.add("dt_halvings", 1)
                osp.add("steps", nsteps)
            finally:
                self.dt = dt0
        return out
