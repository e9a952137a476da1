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

Unknown layout: ``x = [u_0 | u_1 | (u_2) | p]``, each field of length
``n_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..core.mesh import IncompleteMesh
from ..core.plan import operator_context
from ..obs import add as obs_add
from ..obs import span
from .dirichlet import Dirichlet

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
        grad_div: float = 1.0,
    ):
        self.mesh = mesh
        self.nu = float(nu)
        self.dt = float(dt)
        self.grad_div = float(grad_div)
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

    # -- elemental blocks ------------------------------------------------

    def _element_advection(self, U: np.ndarray) -> np.ndarray:
        g = self.ctx.gather
        npe = self.mesh.npe
        a = np.empty((self.mesh.n_elem, self.dim))
        for k in range(self.dim):
            a[:, k] = (g @ U[:, k]).reshape(-1, npe).mean(axis=1)
        return a

    def _taus(self, a: np.ndarray):
        amag = np.linalg.norm(a, axis=1)
        h = self.h
        inv_dt = 0.0 if not np.isfinite(self.dt) else 2.0 / self.dt
        tau_m = 1.0 / np.sqrt(
            inv_dt**2 + (2.0 * amag / h) ** 2 + (12.0 * self.nu / h**2) ** 2
        )
        re_h = amag * h / (2.0 * self.nu)
        tau_c = self.grad_div * 0.5 * h * amag * np.minimum(re_h / 3.0, 1.0)
        # keep grad-div active in the Stokes limit for pressure robustness
        tau_c = np.maximum(tau_c, 0.05 * self.nu)
        return tau_m, tau_c

    def _blocks(self, a: np.ndarray):
        """Dense element blocks ((dim+1)npe)² and the old-state operator."""
        ref, dim, npe = self.ref, self.dim, self.mesh.npe
        ne = self.mesh.n_elem
        h = self.h
        ndof = (dim + 1) * npe
        tau_m, tau_c = self._taus(a)
        sc_m = h**dim        # mass scaling
        sc_k = h ** (dim - 2)
        sc_c = h ** (dim - 1)
        inv_dt = 0.0 if not np.isfinite(self.dt) else 1.0 / self.dt

        M = ref.M_ref[None] * sc_m[:, None, None]
        K = ref.K_ref[None] * sc_k[:, None, None]
        C = np.einsum("fk,kij->fij", a, ref.C_ref) * sc_c[:, None, None]
        Daa = np.einsum("fk,fl,klij->fij", a, a, ref.D_ref) * sc_k[:, None, None]
        CT = np.einsum("fk,kji->fij", a, ref.C_ref) * sc_c[:, None, None]

        E = np.zeros((ne, ndof, ndof))
        rhs_old = np.zeros((ne, ndof, ndof))  # multiplies old state vector

        vel_diag = (
            inv_dt * M
            + C
            + self.nu * K
            + tau_m[:, None, None] * (Daa + inv_dt * CT)
        )
        for i in range(dim):
            sl_i = slice(i * npe, (i + 1) * npe)
            E[:, sl_i, sl_i] += vel_diag
            rhs_old[:, sl_i, sl_i] += inv_dt * (M + tau_m[:, None, None] * CT)
            # grad-div: tau_c (∂_i w, ∂_j u)
            for j in range(dim):
                sl_j = slice(j * npe, (j + 1) * npe)
                E[:, sl_i, sl_j] += (
                    tau_c[:, None, None] * ref.D_ref[i, j][None] * sc_k[:, None, None]
                )
            # pressure gradient: −(∂_i w, p) ; SUPG τ (a·∇w, ∂_i p)
            # τ_m ∫ (a·∇φ_r) ∂_i φ_c = τ_m Σ_k a_k D_ref[k, i]
            sl_p = slice(dim * npe, (dim + 1) * npe)
            gradP = -np.transpose(ref.C_ref[i][None], (0, 2, 1)) * sc_c[:, None, None]
            supgP = (
                tau_m[:, None, None]
                * np.einsum("fk,kij->fij", a, ref.D_ref[:, i])
                * sc_k[:, None, None]
            )
            E[:, sl_i, sl_p] += gradP + supgP
            # continuity: (q, ∂_i u_i) ; PSPG τ (∂_i q, u_t + a·∇u)
            contQ = ref.C_ref[i][None] * sc_c[:, None, None]
            pspgT = (
                tau_m[:, None, None]
                * inv_dt
                * np.transpose(ref.C_ref[i][None], (0, 2, 1))
                * sc_c[:, None, None]
            )
            pspgA = tau_m[:, None, None] * np.einsum(
                "fk,kij->fij", a, ref.D_ref[i, :]
            ) * sc_k[:, None, None]
            E[:, sl_p, sl_i] += contQ + pspgT + pspgA
            rhs_old[:, sl_p, sl_i] += (
                tau_m[:, None, None]
                * inv_dt
                * np.transpose(ref.C_ref[i][None], (0, 2, 1))
                * sc_c[:, None, None]
            )
        # PSPG pressure block: τ_m (∇q, ∇p)
        sl_p = slice(dim * npe, (dim + 1) * npe)
        E[:, sl_p, sl_p] += tau_m[:, None, None] * K
        return E, rhs_old

    # -- assembly & solve -------------------------------------------------

    def _assemble(self, U: np.ndarray, x_old: np.ndarray | None):
        with span("ns.assemble", merge=True) as osp:
            mesh = self.mesh
            dim, npe = self.dim, mesh.npe
            ndof = (dim + 1) * npe
            a = self._element_advection(U)
            E, R = self._blocks(a)
            ne = mesh.n_elem
            B = sp.bsr_matrix(
                (E, np.arange(ne), np.arange(ne + 1)),
                shape=(ne * ndof, ne * ndof),
            )
            A = (self._GT @ (B @ self._G)).tocsr()
            if x_old is not None:
                Bm = sp.bsr_matrix(
                    (R, np.arange(ne), np.arange(ne + 1)),
                    shape=(ne * ndof, ne * ndof),
                )
                b = self._GT @ (Bm @ (self._G @ x_old))
            else:
                b = np.zeros(A.shape[0])
            osp.add("elements", ne)
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
        relax: float = 1.0,
        verbose: bool = False,
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
                    x = spla.splu(A).solve(b)
                U_new, P_new = self.unpack(x)
                du = np.linalg.norm(U_new - U) / max(np.linalg.norm(U_new), 1e-12)
                U = relax * U_new + (1 - relax) * U
                P = relax * P_new + (1 - relax) * P
                res = du
                if verbose:
                    print(f"  picard {it}: dU = {du:.3e}")
                if du < tol:
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
        verbose: bool = False,
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
                            if verbose:
                                print(
                                    f"step {s + 1}: retry with dt = "
                                    f"{dt0 / 2 ** (halving + 1):.3e} ({exc})"
                                )
                    if verbose:
                        umax = np.abs(out.velocity).max()
                        print(
                            f"step {s + 1}/{nsteps}: dU = {out.residual:.3e}, "
                            f"|u|max = {umax:.3f}"
                        )
                osp.add("steps", nsteps)
            finally:
                self.dt = dt0
        return out

    def divergence_norm(self, U: np.ndarray) -> float:
        """L2 norm of ∇·u (diagnostic for incompressibility)."""
        mesh = self.mesh
        ref, dim, npe = self.ref, self.dim, mesh.npe
        g = self.ctx.gather
        h = self.h
        div_q = np.zeros((mesh.n_elem, ref.nq))
        for k in range(dim):
            u_loc = (g @ U[:, k]).reshape(mesh.n_elem, npe)
            div_q += (u_loc @ ref.G[:, :, k].T) / h[:, None]
        w = ref.qwts[None, :] * (h**dim)[:, None]
        return float(np.sqrt(np.sum(w * div_q**2)))
