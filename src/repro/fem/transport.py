"""SUPG-stabilised scalar transport on incomplete-octree meshes.

The §5 viral-load model: a passive scalar c (quanta/m³) advected by a
(statically computed) flow field with diffusion κ and localised source
terms (coughing events),

    c_t + v·∇c − κΔc = s,

discretised with equal-order elements, SUPG stabilisation and implicit
Euler.  The advection velocity is taken element-wise constant (the mean
of the element's nodal velocities), which keeps all elemental matrices
as contractions of cached reference tensors.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..core.mesh import IncompleteMesh
from ..core.plan import operator_context
from ..fem.poisson import load_vector
from .dirichlet import Dirichlet, finite

__all__ = ["TransportProblem", "element_velocity"]


def element_velocity(mesh: IncompleteMesh, vel_nodes: np.ndarray) -> np.ndarray:
    """Element-wise mean velocity from nodal values ``(n_nodes, dim)``."""
    g = operator_context(mesh).gather
    npe = mesh.npe
    out = np.empty((mesh.n_elem, mesh.dim))
    for k in range(mesh.dim):
        out[:, k] = (g @ vel_nodes[:, k]).reshape(mesh.n_elem, npe).mean(axis=1)
    return out


class TransportProblem:
    """Implicit-Euler SUPG advection–diffusion.

    Parameters
    ----------
    velocity:
        ``(n_nodes, dim)`` nodal velocity field (e.g. a Navier–Stokes
        solution) or a callable ``f(points) -> (n, dim)``.
    kappa:
        Diffusivity.
    dt:
        Time-step size.
    dirichlet_mask / dirichlet_value:
        Nodes with strong data (e.g. inlet c = 0), imposed row-replaced
        (:meth:`repro.fem.dirichlet.Dirichlet.replace_rows`).  Other
        boundaries get the natural (zero-flux) condition.
    """

    def __init__(
        self,
        mesh: IncompleteMesh,
        velocity,
        kappa: float,
        dt: float,
        dirichlet_mask: np.ndarray | None = None,
        dirichlet_value: float = 0.0,
    ):
        self.mesh = mesh
        self.kappa = float(kappa)
        self.dt = float(dt)
        pts = mesh.node_coords()
        vel = velocity(pts) if callable(velocity) else np.asarray(velocity, float)
        if vel.shape != (mesh.n_nodes, mesh.dim):
            raise ValueError("velocity must be (n_nodes, dim)")
        self.vel_nodes = vel
        self.bc = Dirichlet(
            np.zeros(mesh.n_nodes, bool) if dirichlet_mask is None
            else dirichlet_mask, dirichlet_value, n=mesh.n_nodes)
        self._build()

    def _build(self) -> None:
        mesh = self.mesh
        ctx = operator_context(mesh)
        ref = ctx.ref()
        dim, npe = mesh.dim, mesh.npe
        h = ctx.h
        a = element_velocity(mesh, self.vel_nodes)  # (n_elem, dim)
        amag = np.linalg.norm(a, axis=1)
        kap = self.kappa
        # SUPG intrinsic time
        tau = 1.0 / np.sqrt(
            (2.0 / self.dt) ** 2
            + (2.0 * amag / h) ** 2
            + (12.0 * kap / h**2) ** 2
        )
        self.tau = tau

        M = ref.M_ref[None] * (h**dim)[:, None, None]
        K = ref.K_ref[None] * (kap * h ** (dim - 2))[:, None, None]
        C = np.einsum("fk,kij->fij", a, ref.C_ref) * (h ** (dim - 1))[:, None, None]
        # SUPG: tau (a·∇w, a·∇c) and tau (a·∇w, c/dt)
        Daa = np.einsum("fk,fl,klij->fij", a, a, ref.D_ref)
        S_adv = tau[:, None, None] * Daa * (h ** (dim - 2))[:, None, None]
        CT = np.einsum("fk,kji->fij", a, ref.C_ref)  # ∫ (a·∇φ_i) φ_j
        S_mass = (tau / self.dt)[:, None, None] * CT * (h ** (dim - 1))[:, None, None]
        self._blocks_lhs = M / self.dt + K + C + S_adv + S_mass
        self._blocks_mass = M / self.dt + S_mass  # multiplies c_old

        g = ctx.gather
        B = sp.bsr_matrix(
            (self._blocks_lhs, np.arange(mesh.n_elem), np.arange(mesh.n_elem + 1)),
            shape=(mesh.n_elem * npe, mesh.n_elem * npe),
        )
        A = (g.T @ (B @ g)).tocsr()
        Bm = sp.bsr_matrix(
            (self._blocks_mass, np.arange(mesh.n_elem), np.arange(mesh.n_elem + 1)),
            shape=(mesh.n_elem * npe, mesh.n_elem * npe),
        )
        self.M_old = (g.T @ (Bm @ g)).tocsr()
        self.A = self.bc.replace_rows(A).tocsc()
        self._lu = spla.splu(self.A)

    def step(self, c: np.ndarray, source: "Callable | float" = 0.0) -> np.ndarray:
        """Advance one implicit-Euler step; ``source`` is s(x) this step."""
        rhs = self.M_old @ c
        if not (np.isscalar(source) and source == 0.0):
            rhs = rhs + finite("source", load_vector(self.mesh, source))
        return self._lu.solve(self.bc.replace_values(rhs))

    def run(self, c0: np.ndarray, nsteps: int, source=0.0) -> np.ndarray:
        c = np.asarray(c0, float).copy()
        for _ in range(nsteps):
            c = self.step(c, source)
        return c

    def total_mass(self, c: np.ndarray) -> float:
        """∫ c over the retained domain."""
        from ..core.assembly import assemble

        M = assemble(self.mesh, kind="mass")
        return float(np.ones(self.mesh.n_nodes) @ (M @ c))
