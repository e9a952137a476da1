"""The adaptive solve → estimate → mark → refine loop.

Each cycle:

1. **solve** the Poisson problem on the current mesh, warm-starting CG
   with the previous cycle's solution transferred through
   :func:`repro.core.interpolate.transfer_field`;
2. **estimate** per-element indicators η_K²
   (:func:`repro.amr.estimators.poisson_estimator`);
3. **mark** elements (Dörfler or maximum strategy);
4. **refine** the marked leaves, 2:1-balance, and rebuild the mesh
   through :func:`repro.core.mesh.mesh_from_leaves`.  A refinement step
   shifts nearly every leaf's SFC position, so there is little of the
   old mesh to reuse, and the full build is cheap.

The loop is deterministic: identical inputs produce an identical
refinement trajectory and a stable :attr:`AMRResult.digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.adapt import refine_leaves
from ..core.balance import balance_2to1
from ..core.construct import construct_adaptive
from ..core.domain import Domain
from ..core.interpolate import transfer_field
from ..core.mesh import IncompleteMesh, mesh_from_leaves
from ..fem.poisson import PoissonProblem, l2_error
from ..obs import span
from .estimators import poisson_estimator
from .marking import dorfler_mark, maximum_mark

__all__ = ["AMRResult", "amr_solve"]

_MARKERS = {"dorfler": dorfler_mark, "maximum": maximum_mark}


@dataclass
class AMRResult:
    """Final state and per-cycle history of an adaptive solve."""

    mesh: IncompleteMesh
    u: np.ndarray
    eta2: np.ndarray
    history: list[dict] = field(default_factory=list)

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_nodes

    @property
    def total_eta(self) -> float:
        return float(np.sqrt(self.eta2.sum()))

    def digest(self) -> str:
        """Deterministic fingerprint of the adaptive trajectory."""
        hsh = hashlib.sha256()
        for rec in self.history:
            hsh.update(
                f"{rec['cycle']}:{rec['n_elem']}:{rec['n_dofs']}:"
                f"{rec['eta']:.12e}:{rec['marked']}".encode()
            )
        hsh.update(np.ascontiguousarray(self.u).tobytes())
        hsh.update(self.mesh.leaves.anchors.tobytes())
        hsh.update(self.mesh.leaves.levels.tobytes())
        return hsh.hexdigest()


def amr_solve(
    domain: Domain,
    f: Callable | float = 0.0,
    dirichlet: Callable | float = 0.0,
    *,
    p: int = 1,
    base_level: int = 3,
    boundary_level: int | None = None,
    max_cycles: int = 8,
    theta: float = 0.5,
    marking: str = "dorfler",
    method: str = "nodal",
    solver: str = "auto",
    rtol: float = 1e-10,
    target_dofs: int | None = None,
    exact: Callable | None = None,
    mesh: IncompleteMesh | None = None,
) -> AMRResult:
    """Run the adaptive loop; see the module docstring for the cycle.

    Stops after ``max_cycles`` refinements or once ``target_dofs`` is
    exceeded.  ``exact`` (optional reference solution) adds an
    ``error_l2`` column to the history — used by the convergence
    benchmarks.  A caller that has already built the level-0 mesh of
    ``domain`` hands it in as ``mesh`` (it is not modified); ``p``,
    ``base_level`` and ``boundary_level`` are then the mesh's own.
    """
    try:
        mark_fn = _MARKERS[marking]
    except KeyError:
        raise ValueError(
            f"unknown marking {marking!r}; options: {sorted(_MARKERS)}"
        )
    with span("amr.solve") as outer:
        if mesh is None:
            leaves = construct_adaptive(
                domain, base_level, boundary_level or base_level
            )
            mesh = mesh_from_leaves(domain, leaves, p=p)
        u_prev: np.ndarray | None = None
        history: list[dict] = []
        for cycle in range(max_cycles + 1):
            with span("amr.cycle", cycle=cycle) as csp:
                problem = PoissonProblem(
                    mesh, f=f, dirichlet=dirichlet, method=method
                )
                with span("amr.solve_pde"):
                    u = problem.solve(rtol=rtol, solver=solver, x0=u_prev)
                with span("amr.estimate"):
                    eta2 = poisson_estimator(
                        mesh, u, f, method=method, dirichlet=dirichlet
                    )
                rec = {
                    "cycle": cycle,
                    "n_elem": mesh.n_elem,
                    "n_dofs": mesh.n_nodes,
                    "eta": float(np.sqrt(eta2.sum())),
                    "marked": 0,
                }
                if exact is not None:
                    rec["error_l2"] = l2_error(mesh, u, exact)
                csp.add("n_elem", mesh.n_elem)
                csp.add("n_dofs", mesh.n_nodes)
                done = cycle == max_cycles or (
                    target_dofs is not None and mesh.n_nodes >= target_dofs
                )
                if done:
                    history.append(rec)
                    break
                marks = mark_fn(eta2, theta)
                rec["marked"] = int(marks.sum())
                if not marks.any():
                    history.append(rec)
                    break
                with span("amr.adapt"):
                    new_leaves = balance_2to1(
                        domain, refine_leaves(domain, mesh.leaves, marks)
                    )
                    new_mesh = mesh_from_leaves(
                        domain, new_leaves, p=mesh.p, curve=mesh.curve,
                        balance=False,
                    )
                csp.add("marked", rec["marked"])
                with span("amr.transfer"):
                    u_prev = transfer_field(mesh, new_mesh, u)
                mesh = new_mesh
                history.append(rec)
        outer.add("cycles", len(history))
        outer.add("final_dofs", mesh.n_nodes)
    return AMRResult(mesh=mesh, u=u, eta2=eta2, history=history)
