"""Residual-based a-posteriori error estimators.

Per-element estimator for the Poisson problem

    η_K² = h_K² ‖f‖²_K  +  Σ_{faces} ½ · (h_K/2) ‖[∂u_h/∂n]‖²_e

with the face terms split half-and-half between the two adjacent
elements.  Normal-derivative jumps are measured by a second-difference
probe across each face: with face centre c and outward normal n,

    [∂u/∂n] ≈ (u(c + δn) − 2 u(c) + u(c − δn)) / δ,   δ = h_K/4,

which is exact for piecewise-linear kinks and vanishes on smooth
regions.  The inner probe and the face value are evaluated from the
element's own dofs (reference coordinates 0.25/0.75 — no point
location needed); only the outer probe crosses into the neighbour and
goes through :func:`repro.core.interpolate.locate_points`.  Faces whose
outer probe leaves the mesh (surrogate/cube boundary) contribute no
jump term.

For SBM solves an additional boundary-mismatch term

    η_K² += h_K^{dim-2} · (u_h(c_f) − g(proj(c_f)))²

is accumulated over the element's surrogate-boundary faces, where
``proj`` is the predicate's closest-point projection onto the true
boundary — the geometric error the Shifted Boundary Method controls.

Everything is vectorised over elements; cost is a handful of basis
evaluations plus one point-location sweep over all face probes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.faces import extract_boundary_faces
from ..core.interpolate import locate_points
from ..core.mesh import IncompleteMesh
from ..core.octant import max_level
from ..core.plan import operator_context
from ..fem.basis import LagrangeBasis

__all__ = ["poisson_estimator"]


def _local_values(u_loc: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Field values from per-element dofs at one reference point."""
    return u_loc @ N


def poisson_estimator(
    mesh: IncompleteMesh,
    u: np.ndarray,
    f: Callable | float = 0.0,
    *,
    method: str = "nodal",
    dirichlet: Callable | float = 0.0,
) -> np.ndarray:
    """Per-element squared error indicators ``η_K²`` (length n_elem)."""
    dim, p, n = mesh.dim, mesh.p, mesh.n_elem
    m = max_level(dim)
    ctx = operator_context(mesh)
    u = np.asarray(u, float)
    u_loc = (ctx.gather @ u).reshape(n, mesh.npe)
    basis = LagrangeBasis(p, dim)
    h = mesh.element_sizes()
    lo, _ = mesh.leaves.physical_bounds(mesh.domain.scale)
    centers = lo + 0.5 * h[:, None]

    # cell residual: h² ∫_K f²  (midpoint quadrature; Δu_h is dropped —
    # zero for p=1 tensor elements away from the mixed terms)
    if np.isscalar(f):
        fc = np.full(n, float(f))
    else:
        fc = np.asarray(f(centers), float)
    eta2 = h**2 * fc**2 * h**dim

    # face jump terms via second-difference probes; the outer probes of
    # all 2·dim faces are located in one sweep
    anchors = mesh.leaves.anchors.astype(np.int64)
    sizes = mesh.leaves.sizes.astype(np.int64)
    scale = mesh.domain.scale
    sides = [(ax, side) for ax in range(dim) for side in (0, 1)]
    probes = np.tile(centers, (len(sides), 1, 1))
    for k, (ax, side) in enumerate(sides):
        probes[k, :, ax] += (2 * side - 1) * 0.75 * h
    located = locate_points(mesh, probes.reshape(-1, dim)).reshape(len(sides), n)
    for (ax, side), pts, leaf in zip(sides, probes, located):
        idx = np.flatnonzero(leaf >= 0)
        if not len(idx):
            continue
        sign = 2 * side - 1
        xi0 = np.full((1, dim), 0.5)
        xi0[0, ax] = float(side)
        xi_in = np.full((1, dim), 0.5)
        xi_in[0, ax] = 0.5 + sign * 0.25
        u0 = _local_values(u_loc, basis.eval(xi0)[0])
        u_in = _local_values(u_loc, basis.eval(xi_in)[0])
        lf = leaf[idx]
        frac = pts[idx] / scale * (1 << m)
        xi = np.clip((frac - anchors[lf]) / sizes[lf][:, None], 0.0, 1.0)
        Nout = basis.eval(xi)
        u_out = np.einsum("ki,ki->k", Nout, u_loc[lf])
        delta = 0.25 * h[idx]
        jump = (u_out - 2.0 * u0[idx] + u_in[idx]) / delta
        eta2[idx] += 0.5 * (0.5 * h[idx]) * jump**2 * h[idx] ** (dim - 1)

    if method == "sbm":
        faces, _ = extract_boundary_faces(mesh)
        if len(faces):
            pred = mesh.domain.predicate
            e, ax, sd = faces.elem, faces.axis, faces.side
            sign = 2.0 * sd - 1.0
            fc_pts = centers[e].copy()
            fc_pts[np.arange(len(e)), ax] += sign * 0.5 * h[e]
            xi = np.full((len(e), dim), 0.5)
            xi[np.arange(len(e)), ax] = sd.astype(float)
            Nf = basis.eval(xi)
            u_f = np.einsum("ki,ki->k", Nf, u_loc[e])
            proj = pred.boundary_projection(fc_pts)
            if np.isscalar(dirichlet):
                g = np.full(len(e), float(dirichlet))
            else:
                g = np.asarray(dirichlet(proj), float)
            term = h[e] ** (dim - 2) * (u_f - g) ** 2
            np.add.at(eta2, e, term)
    elif method != "nodal":
        raise ValueError(f"unknown method {method!r}")

    return eta2
