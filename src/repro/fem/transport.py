"""SUPG-stabilised scalar transport on incomplete-octree meshes.

The §5 viral-load model: a passive scalar c (quanta/m³) advected by a
(statically computed) flow field with diffusion κ and localised source
terms (coughing events),

    c_t + v·∇c − κΔc = s,

discretised with equal-order elements, SUPG stabilisation and implicit
Euler.  The advection velocity is taken element-wise constant (the mean
of the element's nodal velocities), which keeps all elemental matrices
as contractions of cached reference tensors.

:class:`SupgForm` is the one stabilised advection–diffusion element
form: Navier–Stokes takes its velocity blocks from it with κ = ν.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.mesh import IncompleteMesh
from ..core.plan import operator_context
from ..fem.poisson import load_vector
from ..kernels import api as kernels
from ..solvers.system import sparse_lu
from .dirichlet import Dirichlet, finite
from .elemental import ReferenceElement

__all__ = ["SupgForm", "TransportProblem", "element_velocity"]


def element_velocity(mesh: IncompleteMesh, vel_nodes: np.ndarray) -> np.ndarray:
    """Element-wise mean velocity from nodal values ``(n_nodes, dim)``."""
    g = operator_context(mesh).gather
    npe = mesh.npe
    out = np.empty((mesh.n_elem, mesh.dim))
    for k in range(mesh.dim):
        out[:, k] = (g @ vel_nodes[:, k]).reshape(mesh.n_elem, npe).mean(axis=1)
    return out


class SupgForm:
    """SUPG-stabilised implicit-Euler advection–diffusion element terms.

    From the element-mean advection ``a`` ``(n_elem, dim)``, the
    diffusivity ``kappa``, the element sizes ``h`` and the step ``dt``
    (``inf`` for a steady form, whose old-state terms vanish):

        lhs  = M/dt + κK + C(a) + τ (a·∇w, a·∇c) + τ/dt (a·∇w, c)
        old  = M/dt + τ/dt (a·∇w, c)          (multiplies c_old)

    with the SUPG intrinsic time τ = (4/dt² + 4|a|²/h² + 144κ²/h⁴)^-½.
    ``kappa`` must be finite and ≥ 0, ``dt`` > 0: anything else is a
    ``ValueError`` naming the field.
    """

    def __init__(self, ref: ReferenceElement, a: np.ndarray, kappa: float,
                 h: np.ndarray, dt: float):
        self.check(kappa, dt)
        self.ref, self.a, self.kappa, self.h, self.dt = ref, a, kappa, h, dt
        amag = np.linalg.norm(a, axis=1)
        self.tau = 1.0 / np.sqrt(
            (2.0 / dt) ** 2
            + (2.0 * amag / h) ** 2
            + (12.0 * kappa / h**2) ** 2
        )

    @staticmethod
    def check(kappa: float, dt: float) -> None:
        """The form's coefficient bounds: ``kappa`` finite and ≥ 0,
        ``dt`` > 0 (``inf`` allowed)."""
        if not (np.isfinite(kappa) and kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {kappa!r}")
        if not dt > 0:
            raise ValueError(f"dt must be > 0 (inf: steady), got {dt!r}")

    def _old_terms(self, e: np.ndarray):
        """M/dt and the SUPG mass term τ/dt (a·∇w, c) of the elements ``e``."""
        ref, h = self.ref, self.h[e]
        M = ref.M_ref[None] * (h**ref.dim)[:, None, None]
        M /= self.dt
        S_mass = np.einsum("fk,kji->fij", self.a[e], ref.C_ref)  # ∫ (a·∇φ_i) φ_j
        S_mass *= (self.tau[e] / self.dt)[:, None, None]
        S_mass *= (h ** (ref.dim - 1))[:, None, None]
        return M, S_mass

    def lhs_blocks(self, e: np.ndarray) -> np.ndarray:
        """The implicit-Euler element matrices of the ascending element
        ids ``e``, ``(len(e), npe, npe)``; the terms are added in place
        in the order the form lists them."""
        ref, h, a, dim = self.ref, self.h[e], self.a[e], self.ref.dim
        out, S_mass = self._old_terms(e)
        out += ref.K_ref[None] * (self.kappa * h ** (dim - 2))[:, None, None]
        C = np.einsum("fk,kij->fij", a, ref.C_ref)
        C *= (h ** (dim - 1))[:, None, None]
        out += C
        del C
        # SUPG: tau (a·∇w, a·∇c)
        S_adv = np.einsum("fk,fl,klij->fij", a, a, ref.D_ref)
        S_adv *= self.tau[e][:, None, None]
        S_adv *= (h ** (dim - 2))[:, None, None]
        out += S_adv
        del S_adv
        out += S_mass
        return out

    def old_blocks(self, e: np.ndarray) -> np.ndarray:
        """The element matrices of ``e`` that multiply the old state."""
        out, S_mass = self._old_terms(e)
        out += S_mass
        return out


class TransportProblem:
    """Implicit-Euler SUPG advection–diffusion (:class:`SupgForm`).

    Parameters
    ----------
    velocity:
        ``(n_nodes, dim)`` nodal velocity field (e.g. a Navier–Stokes
        solution) or a callable ``f(points) -> (n, dim)``.
    kappa:
        Diffusivity, finite and ≥ 0.
    dt:
        Time-step size, > 0.
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
        ctx = operator_context(self.mesh)
        form = SupgForm(ctx.ref(), element_velocity(self.mesh, self.vel_nodes),
                        self.kappa, ctx.h, self.dt)
        A = kernels.assemble(ctx.gather, ctx.scatter, form.lhs_blocks)
        self.M_old = kernels.assemble(ctx.gather, ctx.scatter, form.old_blocks)
        self.A = self.bc.replace_rows(A).tocsc()
        self._lu = sparse_lu(self.A)

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
