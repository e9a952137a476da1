"""Matrix-free MATVEC on incomplete octrees (§3.5).

* :func:`traversal_matvec` / :class:`TraversalMatVec` — the paper's
  traversal as one compiled program per plan
  (:class:`repro.core.plan.ApplyProgram`, which documents the layout);
  a single-process matrix-free Poisson solve runs the same kernel on
  the free-node program :class:`repro.core.plan.ConstrainedStiffness`.  With
  tracing on (see :mod:`repro.obs`) the merge spans ``matvec.top_down``
  / ``matvec.leaf`` / ``matvec.bottom_up`` hold the phase breakdown of
  the scaling figures.
* :class:`MapBasedMatVec` — the element-to-node-map approach the paper
  argues against (sparse gather of every slot, batched kernel, scale
  pass, sparse scatter): the ablation column of
  ``benchmarks/bench_ablation_matvec.py`` and a test reference; no
  solver path constructs it.
* the literal recursive walk is the test oracle in
  :mod:`repro.core.traversal_reference`.

All take their per-mesh artifacts from the shared
:class:`repro.core.plan.OperatorContext`.
"""

from __future__ import annotations

import numpy as np

from ..kernels import api as kernels
from ..obs import span
from .mesh import IncompleteMesh
from .plan import TraversalPlan, operator_context

__all__ = ["MapBasedMatVec", "TraversalMatVec", "traversal_matvec", "TraversalPlan"]


class MapBasedMatVec:
    """Element-to-node-map matrix-free operator for a scalar PDE term.

    ``kind`` selects the elemental kernel: ``"stiffness"`` (Poisson)
    or ``"mass"``.
    """

    def __init__(self, mesh: IncompleteMesh, kind: str = "stiffness"):
        self.mesh = mesh
        self.ctx = operator_context(mesh)
        self.ref = self.ctx.ref()
        self.h = self.ctx.h
        if kind == "stiffness":
            self._apply_loc = self.ref.apply_stiffness
        elif kind == "mass":
            self._apply_loc = self.ref.apply_mass
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self._gather = self.ctx.gather
        self._scatter = self.ctx.scatter
        self._flops = (
            4 * self._gather.nnz
            + mesh.n_elem * self.ref.matvec_flops_per_element()
        )

    def __call__(self, u: np.ndarray) -> np.ndarray:
        npe = self.mesh.npe
        with span("matvec.apply", merge=True) as sp:
            u_loc = kernels.gather(self._gather, u).reshape(
                self.mesh.n_elem, npe
            )
            w_loc = self._apply_loc(u_loc, self.h)
            out = kernels.scatter(self._scatter, w_loc.reshape(-1))
            sp.add("elements", self.mesh.n_elem)
            sp.add("flops", self._flops)
        return out

    @property
    def shape(self):
        n = self.mesh.n_nodes
        return (n, n)

    def flops(self) -> int:
        """Double-precision FLOPs of one full MATVEC as executed:
        sparse gather + batched elemental apply + sparse scatter."""
        return self._flops

    def traffic_bytes(self) -> int:
        """Modelled bytes moved by one MATVEC as executed: the
        gather/scatter CSR arrays (data + indices + indptr, read once
        each) plus the vector traffic (global input/output, the
        element-local temporaries, and the per-element h scale)."""
        g = self._gather
        csr = 2 * (g.data.nbytes + g.indices.nbytes + g.indptr.nbytes)
        vec = 8 * (
            2 * self.mesh.n_nodes
            + 2 * self.mesh.n_elem * self.ref.npe
            + self.mesh.n_elem
        )
        return csr + vec


def traversal_matvec(
    mesh: IncompleteMesh,
    u: np.ndarray,
    kind: str = "stiffness",
    plan: TraversalPlan | None = None,
    owned_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Traversal-based matrix-free MATVEC (§3.5).

    ``owned_range=(lo, hi)`` restricts the traversal to the owned
    elements (the distributed-memory augmentation); contributions of
    non-owned elements are skipped, so the parts of a partition sum to
    the full apply.

    Without ``plan`` the mesh's cached plan is used, after the identity
    staleness check of :func:`operator_context` (a few ``is`` tests,
    no hash); an explicit ``plan`` is trusted as is.

    The top-down / leaf / bottom-up phase breakdown is published as
    merge spans under a ``matvec.traversal`` span when tracing is on.
    """
    if plan is None:
        plan = operator_context(mesh).traversal
    ker, pw = plan.kernel(kind)
    prog = (plan.apply_tables() if owned_range is None
            else plan.apply_tables(*owned_range))
    return kernels.traversal_apply(prog, np.asarray(u, float), ker, pw)


class TraversalMatVec:
    """The compiled traversal MATVEC over all nodes as a linear operator
    (the nodal Dirichlet solve iterates on the free-node program instead,
    :class:`repro.core.plan.ConstrainedStiffness`, and applies this once
    to lift non-zero boundary data)."""

    def __init__(
        self,
        mesh: IncompleteMesh,
        kind: str = "stiffness",
        plan: TraversalPlan | None = None,
    ):
        self.mesh = mesh
        self.kind = kind
        self.plan = plan if plan is not None else operator_context(mesh).traversal
        self.pw = self.plan.kernel(kind)[1]  # an unknown kind fails here

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return traversal_matvec(self.mesh, u, self.kind, plan=self.plan)

    def _cost(self) -> tuple[int, int]:
        return kernels.traversal_cost(
            self.plan.apply_tables(), self.pw, self.mesh.n_nodes
        )

    def flops(self) -> int:
        """FLOPs of one apply as executed
        (:func:`repro.kernels.api.traversal_cost`: no scale pass)."""
        return self._cost()[0]

    def traffic_bytes(self) -> int:
        """Modelled bytes moved by one apply as executed."""
        return self._cost()[1]
