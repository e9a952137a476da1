"""Shifted Boundary Method (SBM) surface terms (§4.3).

The Dirichlet condition on the true boundary Γ is shifted to the
voxelated surrogate boundary Γ̃ (the carved-boundary faces of the
incomplete octree) with a second-order Taylor correction along the
distance vector d(x) = proj_Γ(x) − x:

  −(w, ∇u·ñ)_Γ̃ − (∇w·ñ, u + ∇u·d − u_D)_Γ̃
  + (α/h)(w + ∇w·d, u + ∇u·d − u_D)_Γ̃

following Main & Scovazzi (2018) / Atallah et al. (2020).  The
predicate must provide :meth:`boundary_projection`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..core.faces import extract_boundary_faces
from ..core.mesh import IncompleteMesh
from ..core.plan import operator_context
from ..fem.basis import LagrangeBasis
from ..fem.quadrature import tensor_rule
from ..kernels import api as kernels

__all__ = ["sbm_terms", "face_quadrature"]

#: penalty α: large enough for stability yet gentle on cells touching
#: the boundary only at a corner (where |d| approaches the cell
#: diagonal); 2.0 gives clean optimal rates for p=1 and p=2
ALPHA = 2.0


def face_quadrature(p: int, dim: int, axis: int, side: int, nquad: int):
    """Reference quadrature on one face of the unit cube.

    Returns ``(pts, wts)`` with pts ``(nqf, dim)`` lying on the face.
    """
    if dim == 1:
        return np.array([[float(side)]]), np.array([1.0])
    fpts, fwts = tensor_rule(nquad, dim - 1)
    pts = np.zeros((len(fpts), dim))
    in_axes = [a for a in range(dim) if a != axis]
    pts[:, in_axes] = fpts
    pts[:, axis] = float(side)
    return pts, fwts


def sbm_terms(
    mesh: IncompleteMesh,
    g: Callable[[np.ndarray], np.ndarray],
    nquad: int | None = None,
    include_domain_faces: bool = True,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """SBM bilinear matrix and load vector on the surrogate boundary.

    ``g(points) -> values`` is the Dirichlet data, evaluated at the true
    boundary (at the projections of the quadrature points).  When the
    carved set reaches the root cube (e.g. a retained disk tangent to
    the cube), faces of retained elements on the cube boundary also
    belong to the surrogate boundary; ``include_domain_faces`` adds them
    (disable for problems where the cube boundary carries its own BC).
    """
    dim = mesh.dim
    p = mesh.p
    npe = mesh.npe
    nq1 = nquad or p + 1
    basis = LagrangeBasis(p, dim)
    sub_faces, dom_faces = extract_boundary_faces(mesh)
    if include_domain_faces and len(dom_faces):
        sub_faces = type(sub_faces)(
            np.concatenate([sub_faces.elem, dom_faces.elem]),
            np.concatenate([sub_faces.axis, dom_faces.axis]),
            np.concatenate([sub_faces.side, dom_faces.side]),
        )
    n_elem = mesh.n_elem
    ctx = operator_context(mesh)
    h_all = ctx.h
    lo_all, _ = mesh.leaves.physical_bounds(mesh.domain.scale)
    pred = mesh.domain.predicate

    idx = np.unique(sub_faces.elem)  # the face elements, ascending
    if len(idx) == 0:
        n = mesh.n_nodes
        return sp.csr_matrix((n, n)), np.zeros(n)
    blocks = np.zeros((len(idx), npe, npe))
    rhs_loc = np.zeros((n_elem, npe))

    for axis in range(dim):
        for side in (0, 1):
            sel = np.flatnonzero((sub_faces.axis == axis) & (sub_faces.side == side))
            if len(sel) == 0:
                continue
            es = sub_faces.elem[sel]
            rpts, rwts = face_quadrature(p, dim, axis, side, nq1)
            N = basis.eval(rpts)               # (nqf, npe)
            G = basis.eval_grad(rpts)          # (nqf, npe, dim)
            h = h_all[es]                      # (nf,)
            xq = lo_all[es][:, None, :] + rpts[None, :, :] * h[:, None, None]
            nf, nqf = len(es), len(rpts)
            flat = xq.reshape(-1, dim)
            proj = pred.boundary_projection(flat)
            dvec = (proj - flat).reshape(nf, nqf, dim)
            uD = g(proj).reshape(nf, nqf)
            nrm = np.zeros(dim)
            nrm[axis] = 2.0 * side - 1.0
            # physical gradients: G/h per element
            gn = np.einsum("qid,d->qi", G, nrm)[None, :, :] / h[:, None, None]
            gd = np.einsum("qid,fqd->fqi", G, dvec) / h[:, None, None]
            Nq = np.broadcast_to(N[None], (nf, nqf, npe))
            shifted = Nq + gd                  # φ + ∇φ·d
            wq = rwts[None, :] * (h ** (dim - 1))[:, None]
            wpen = wq * (ALPHA / h)[:, None]
            # bilinear terms
            S = (
                -np.einsum("fq,fqi,fqj->fij", wq, Nq, gn)
                - np.einsum("fq,fqi,fqj->fij", wq, gn, shifted)
                + np.einsum("fq,fqi,fqj->fij", wpen, shifted, shifted)
            )
            r = -np.einsum("fq,fqi,fq->fi", wq, gn, uD) + np.einsum(
                "fq,fqi,fq->fi", wpen, shifted, uD
            )
            np.add.at(blocks, np.searchsorted(idx, es), S)
            np.add.at(rhs_loc, es, r)

    # assemble over the face elements only (hanging-aware gather)
    A_s = kernels.assemble(ctx.gather, ctx.scatter,
                           lambda e: blocks[np.searchsorted(idx, e)], idx)
    b_s = ctx.gather.T @ rhs_loc.reshape(-1)
    return A_s, b_s
