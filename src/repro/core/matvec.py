"""Matrix-free MATVEC on incomplete octrees (§3.5).

Two implementations, verified against each other:

* :class:`MapBasedMatVec` — the conventional element-to-node-map
  approach the paper argues against: gather local vectors through the
  (sparse) element-to-node interpolation map, apply batched elemental
  kernels, scatter-add back.  It is the operator the solvers use.

* :func:`traversal_matvec` — the paper's traversal-based algorithm:
  a top-down pass delivers nodal values to the leaves (duplicating
  nodes incident on several of them) until each leaf holds its
  elemental nodes contiguously, hanging slots interpolated from their
  coarser-level donors; after the elemental apply, a bottom-up pass
  accumulates duplicated node instances back to a single value.  Every
  value the top-down pass hands down is an unchanged copy of a global
  nodal value, so the tree walk is a flat expression over the plan's
  slot table, and that is what runs, in every backend: one index
  gather, one dense apply and one accumulation per refinement level
  over tables compiled once per plan
  (:meth:`repro.core.plan.TraversalPlan.apply_tables`), plus one block
  for the elements with hanging slots.  When tracing is on (see
  :mod:`repro.obs`), merge spans ``matvec.top_down`` / ``matvec.leaf``
  / ``matvec.bottom_up`` accumulate the phase breakdown used in the
  scaling figures.  The literal recursive walk is kept as the test
  oracle in :mod:`repro.core.traversal_reference`.

Both obtain their per-mesh artifacts — gather/scatter CSR, element
sizes, the flattened traversal slot table — from the shared
:class:`repro.core.plan.OperatorContext`, so repeated operator
construction on the same mesh re-derives nothing.
"""

from __future__ import annotations

import numpy as np

from ..kernels import api as kernels
from ..obs import span
from .mesh import IncompleteMesh
from .plan import OperatorContext, TraversalPlan, operator_context

__all__ = ["MapBasedMatVec", "traversal_matvec", "TraversalPlan"]


class MapBasedMatVec:
    """Element-to-node-map matrix-free operator for a scalar PDE term.

    ``kind`` selects the elemental kernel: ``"stiffness"`` (Poisson),
    ``"mass"``, or a callable ``f(u_loc, h) -> w_loc`` for custom
    operators (e.g. the Navier–Stokes blocks).
    """

    def __init__(
        self,
        mesh: IncompleteMesh,
        kind="stiffness",
        nquad=None,
        ctx: OperatorContext | None = None,
    ):
        self.mesh = mesh
        self.ctx = ctx if ctx is not None else operator_context(mesh)
        self.ref = self.ctx.ref(nquad)
        self.h = self.ctx.h
        if callable(kind):
            self._apply_loc = kind
        elif kind == "stiffness":
            self._apply_loc = lambda u, h: self.ref.apply_stiffness(u, h)
        elif kind == "mass":
            self._apply_loc = lambda u, h: self.ref.apply_mass(u, h)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self._gather = self.ctx.gather
        self._scatter = self.ctx.scatter
        # FLOPs of the path as executed: CSR gather (2·nnz) + batched
        # dense elemental apply + CSR scatter (2·nnz) — not the
        # historical per-element-only count, so roofline attribution
        # matches the identity-block batched code that actually runs
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

    @property
    def dtype(self):
        return np.float64

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

    Without ``plan`` the mesh's cached plan is used, after the usual
    fingerprint staleness check of :func:`operator_context`; an
    explicit ``plan`` is trusted as is and nothing is re-hashed.

    The top-down / leaf / bottom-up phase breakdown is published as
    merge spans under a ``matvec.traversal`` span when tracing is on.
    """
    if plan is None:
        plan = operator_context(mesh).traversal
    ker, pw = plan.kernel(kind)
    e_lo, e_hi = owned_range if owned_range is not None else (0, mesh.n_elem)
    return kernels.traversal_apply(
        plan, np.asarray(u, float), ker, pw, e_lo, e_hi
    )
