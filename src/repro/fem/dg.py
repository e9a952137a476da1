"""Discontinuous Galerkin (SIPG) Poisson on incomplete octrees.

The paper's stated future work ("we plan to extend the algorithms to
incorporate DG based FEM") and the §4.4 remark: in DG every element
owns its ``(p+1)^d`` nodes, so the DOF count scales exactly with the
element count (no sharing, hanging nodes irrelevant) — which is why the
immersed-vs-carved DOF excess would equal the element excess under DG.

This implementation provides the symmetric interior-penalty (SIPG)
discretisation of −Δu = f with Dirichlet data on the carved/domain
boundary faces.  Faces are matched between equal-level neighbours, so
meshes must be *uniform-level* (the standard first step for DG on
trees; hanging-interface mortars are the follow-up the paper defers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..core.faces import extract_boundary_faces
from ..core.mesh import IncompleteMesh
from ..core.octant import max_level
from ..core.sfc import cached_keys, get_curve
from ..fem.basis import LagrangeBasis
from ..fem.elemental import reference_element
from ..fem.sbm import face_quadrature

__all__ = ["DGPoissonProblem", "dg_dof_count", "interior_faces"]


def dg_dof_count(mesh: IncompleteMesh) -> int:
    """DG DOFs: every element owns all its nodes (§4.4 remark)."""
    return mesh.n_elem * mesh.npe


def interior_faces(mesh: IncompleteMesh):
    """(elem_minus, elem_plus, axis) for every interior face, counted
    once with the normal along +axis from minus to plus."""
    dim = mesh.dim
    oracle = get_curve(mesh.curve)
    keys = cached_keys(mesh.leaves, oracle)
    a = mesh.leaves.anchors.astype(np.int64)
    s = mesh.leaves.sizes.astype(np.int64)
    m = max_level(dim)
    extent = np.int64(1) << m
    out = []
    for axis in range(dim):
        nb = a.copy()
        nb[:, axis] += s
        inside = nb[:, axis] < extent
        idx = np.flatnonzero(inside)
        nk = oracle.keys_from_coords(nb[idx].astype(np.uint32), dim)
        pos = np.searchsorted(keys, nk)
        posc = np.clip(pos, 0, len(keys) - 1)
        hit = (pos < len(keys)) & (keys[posc] == nk) & (
            mesh.leaves.levels[posc] == mesh.leaves.levels[idx]
        )
        em = idx[hit]
        ep = posc[hit]
        out.append((em, ep, np.full(len(em), axis)))
    return (
        np.concatenate([o[0] for o in out]),
        np.concatenate([o[1] for o in out]),
        np.concatenate([o[2] for o in out]),
    )


@dataclass
class DGPoissonProblem:
    """SIPG discretisation of −Δu = f, u = g on the voxel boundary."""

    mesh: IncompleteMesh
    f: object = 0.0
    dirichlet: object = 0.0
    sigma: float = 10.0  # penalty (scaled by p² / h)

    def __post_init__(self):
        lv = self.mesh.leaves.levels
        if lv.min() != lv.max():
            raise ValueError(
                "DGPoissonProblem requires a uniform-level mesh "
                "(hanging-interface mortars are future work, as in the paper)"
            )

    def _g_at(self, pts):
        if np.isscalar(self.dirichlet):
            return np.full(len(pts), float(self.dirichlet))
        return self.dirichlet(pts)

    def _f_at(self, pts):
        if np.isscalar(self.f):
            return np.full(len(pts), float(self.f))
        return self.f(pts)

    def assemble(self):
        mesh = self.mesh
        dim, p, npe = mesh.dim, mesh.p, mesh.npe
        ref = reference_element(p, dim)
        basis = LagrangeBasis(p, dim)
        n_elem = mesh.n_elem
        N = n_elem * npe
        h = mesh.element_sizes()
        pen = self.sigma * (p + 1) ** 2 / h

        rows, cols, vals = [], [], []

        def add_block(er, ec, B):
            """Accumulate per-face dense blocks B (nf, npe, npe)."""
            r = (er[:, None, None] * npe + np.arange(npe)[None, :, None])
            c = (ec[:, None, None] * npe + np.arange(npe)[None, None, :])
            rows.append(np.broadcast_to(r, B.shape).ravel())
            cols.append(np.broadcast_to(c, B.shape).ravel())
            vals.append(B.ravel())

        # volume stiffness
        Kv = ref.stiffness_blocks(h)
        add_block(np.arange(n_elem), np.arange(n_elem), Kv)

        # interior faces (same-level)
        em, ep, fax = interior_faces(mesh)
        nq1 = p + 1
        for axis in range(dim):
            sel = np.flatnonzero(fax == axis)
            if not len(sel):
                continue
            e1, e2 = em[sel], ep[sel]
            rpts_m, rwts = face_quadrature(p, dim, axis, 1, nq1)
            rpts_p, _ = face_quadrature(p, dim, axis, 0, nq1)
            Nm, Np = basis.eval(rpts_m), basis.eval(rpts_p)
            Gm = basis.eval_grad(rpts_m)[:, :, axis]
            Gp = basis.eval_grad(rpts_p)[:, :, axis]
            hh = h[e1]
            wq = rwts[None, :] * (hh ** (dim - 1))[:, None]
            pe = 0.5 * (pen[e1] + pen[e2])
            # average normal flux and jump operators; n = +axis
            # a(u, w) += -{∂u}[w] - {∂w}[u] + pen [u][w]
            def face_terms(Nw, Nu, Gw, Gu, sw, su, hw, hu):
                """sw/su: jump signs of the w/u sides; hw/hu: h of the
                gradient-owning element (for the 1/h scaling)."""
                t = -0.5 * np.einsum("fq,qi,qj->fij", wq / hu[:, None], Nw, Gu) * sw[:, None, None]
                t += -0.5 * np.einsum("fq,qi,qj->fij", wq / hw[:, None], Gw, Nu) * su[:, None, None]
                t += np.einsum("f,fq,qi,qj->fij", pe, wq, Nw, Nu) * (sw * su)[:, None, None]
                return t

            ones = np.ones(len(e1))
            add_block(e1, e1, face_terms(Nm, Nm, Gm, Gm, ones, ones, h[e1], h[e1]))
            add_block(e1, e2, face_terms(Nm, Np, Gm, Gp, ones, -ones, h[e1], h[e2]))
            add_block(e2, e1, face_terms(Np, Nm, Gp, Gm, -ones, ones, h[e2], h[e1]))
            add_block(e2, e2, face_terms(Np, Np, Gp, Gp, -ones, -ones, h[e2], h[e2]))

        # boundary faces: Nitsche Dirichlet
        b = np.zeros(N)
        sub, domf = extract_boundary_faces(mesh)
        all_e = np.concatenate([sub.elem, domf.elem])
        all_ax = np.concatenate([sub.axis, domf.axis])
        all_sd = np.concatenate([sub.side, domf.side])
        lo_all, _ = mesh.leaves.physical_bounds(mesh.domain.scale)
        for axis in range(dim):
            for side in (0, 1):
                sel = np.flatnonzero((all_ax == axis) & (all_sd == side))
                if not len(sel):
                    continue
                es = all_e[sel]
                rpts, rwts = face_quadrature(p, dim, axis, side, nq1)
                Nb = basis.eval(rpts)
                Gb = basis.eval_grad(rpts)[:, :, axis] * (2.0 * side - 1.0)
                hh = h[es]
                wq = rwts[None, :] * (hh ** (dim - 1))[:, None]
                B = -np.einsum("fq,qi,qj->fij", wq / hh[:, None], Nb, Gb)
                B += -np.einsum("fq,qi,qj->fij", wq / hh[:, None], Gb, Nb)
                B += np.einsum("f,fq,qi,qj->fij", pen[es], wq, Nb, Nb)
                add_block(es, es, B)
                xq = lo_all[es][:, None, :] + rpts[None, :, :] * hh[:, None, None]
                g = self._g_at(xq.reshape(-1, dim)).reshape(len(es), -1)
                rb = -np.einsum("fq,fq,qi->fi", wq / hh[:, None], g, Gb)
                rb += np.einsum("f,fq,fq,qi->fi", pen[es], wq, g, Nb)
                np.add.at(
                    b, es[:, None] * npe + np.arange(npe)[None, :], rb
                )

        A = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(N, N),
        )
        A.sum_duplicates()
        # volume load
        x = lo_all[:, None, :] + ref.qpts[None, :, :] * h[:, None, None]
        fv = self._f_at(x.reshape(-1, dim)).reshape(n_elem, ref.nq)
        wv = ref.qwts[None, :] * (h**dim)[:, None]
        b += np.einsum("eq,eq,qi->ei", wv, fv, ref.N).ravel()
        return A, b

    def solve(self):
        A, b = self.assemble()
        return spla.spsolve(A.tocsc(), b)

    # -- evaluation helpers ------------------------------------------------

    def l2_error(self, u: np.ndarray, exact) -> float:
        mesh = self.mesh
        ref = reference_element(mesh.p, mesh.dim, mesh.p + 2)
        h = mesh.element_sizes()
        lo, _ = mesh.leaves.physical_bounds(mesh.domain.scale)
        x = lo[:, None, :] + ref.qpts[None, :, :] * h[:, None, None]
        uh = u.reshape(mesh.n_elem, mesh.npe) @ ref.N.T
        ue = exact(x.reshape(-1, mesh.dim)).reshape(uh.shape)
        w = ref.qwts[None, :] * (h**mesh.dim)[:, None]
        return float(np.sqrt(np.sum(w * (uh - ue) ** 2)))
