"""Field evaluation and mesh-to-mesh transfer on incomplete octrees.

Supports the workflow the paper's fast re-meshing enables: when the
geometry moves or the refinement changes, rebuild the mesh (cheap, by
design) and *transfer* the solution — each target point is located in a
source leaf (corner-perturbed SFC point location, the same machinery as
the hanging-node donor search; a point stops being probed at its first
hit) and evaluated through the source element's shape functions
composed with its hanging interpolation, so the transferred field is
exactly the conforming FE function.  Both steps are vectorised over the
points; the per-point reference loop lives in ``tests/test_cold_path.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..fem.basis import LagrangeBasis, local_node_offsets
from .mesh import IncompleteMesh
from .octant import max_level
from .plan import operator_context

__all__ = ["locate_points", "evaluation_matrix", "transfer_field"]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i]+counts[i])`` ranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    rep = np.repeat(starts.astype(np.int64), counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64), counts
    )
    return rep + offs


def locate_points(mesh: IncompleteMesh, pts: np.ndarray) -> np.ndarray:
    """Containing leaf index per physical point (−1 outside the mesh).

    Points on cell boundaries resolve to any containing leaf; field
    evaluation is continuous there so the choice is immaterial.  The
    ``2^dim`` corner probes run over a shrinking to-do list: a point
    leaves it at its first hit, so interior points are probed once.
    """
    dim = mesh.dim
    m = max_level(dim)
    plan = operator_context(mesh).traversal
    oracle, keys, ends = plan.oracle, plan.keys, plan.ends
    anchors = mesh.leaves.anchors.astype(np.int64)
    sizes = mesh.leaves.sizes.astype(np.int64)
    # scale to fractional anchor units, probe the 2^dim surrounding cells
    frac = np.asarray(pts, float) / mesh.domain.scale * (1 << m)
    dirs = 2 * local_node_offsets(1, dim) - 1
    eps = 0.25
    out = np.full(len(frac), -1, np.int64)
    todo = np.arange(len(frac))
    for d in dirs:
        if not len(todo):
            break
        f = frac[todo]
        cand = np.floor(f + eps * d).astype(np.int64)
        ok_dom = np.all((cand >= 0) & (cand < (1 << m)), axis=1)
        cand = np.clip(cand, 0, (1 << m) - 1)
        ck = oracle.keys_from_coords(cand.astype(np.uint32), dim)
        idx = np.searchsorted(keys, ck, side="right") - 1
        idxc = np.clip(idx, 0, len(keys) - 1)
        hit = ok_dom & (idx >= 0) & (ck >= keys[idxc]) & (ck < ends[idxc])
        # the candidate cell must actually contain the point (closed)
        lo = anchors[idxc]
        hi = lo + sizes[idxc][:, None]
        hit &= np.all((f >= lo - 1e-9) & (f <= hi + 1e-9), axis=1)
        out[todo[hit]] = idxc[hit]
        todo = todo[~hit]
    return out


def evaluation_matrix(
    mesh: IncompleteMesh, pts: np.ndarray, strict: bool = True
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sparse E with ``E @ u`` = the FE field at ``pts``.

    Returns ``(E, found)``; rows of points outside the mesh are zero
    (and flagged False in ``found``).  ``strict=True`` raises instead.
    Row i is the shape-function row of point i composed with its leaf's
    block of the gather operator, built for all points in one pass.
    """
    dim, p = mesh.dim, mesh.p
    basis = LagrangeBasis(p, dim)
    m = max_level(dim)
    leaf = locate_points(mesh, pts)
    found = leaf >= 0
    if strict and not found.all():
        raise ValueError(
            f"{int((~found).sum())} evaluation points lie outside the mesh"
        )
    frac = np.asarray(pts, float) / mesh.domain.scale * (1 << m)
    safe = np.where(found, leaf, 0)
    a = mesh.leaves.anchors.astype(np.int64)[safe]
    s = mesh.leaves.sizes.astype(np.int64)[safe]
    xi = np.clip((frac - a) / s[:, None], 0.0, 1.0)
    N = basis.eval(xi)
    ctx = operator_context(mesh)
    g, plan = ctx.gather, ctx.traversal
    # gather entries of each found point's leaf, point-major in CSR order
    pt = np.flatnonzero(found)
    start = plan.slot_ptr[leaf[pt]]
    cnt = plan.slot_ptr[leaf[pt] + 1] - start
    entry = _ranges(start, cnt)
    pt = np.repeat(pt, cnt)
    w = N[pt, plan.slot_idx[entry]] * g.data[entry]
    nz = w != 0.0
    E = sp.csr_matrix(
        (w[nz], (pt[nz], g.indices[entry][nz])), shape=(len(pts), mesh.n_nodes)
    )
    E.sum_duplicates()
    return E, found


def transfer_field(
    src: IncompleteMesh, dst: IncompleteMesh, u: np.ndarray
) -> np.ndarray:
    """Interpolate a nodal field from one mesh onto another.

    Destination nodes outside the source mesh (the voxel boundary moved
    — e.g. a translated object) keep the value of the nearest source
    node, so the transfer is total.
    """
    pts = dst.node_coords()
    E, found = evaluation_matrix(src, pts, strict=False)
    out = E @ np.asarray(u, float)
    if not found.all():
        from scipy.spatial import cKDTree

        tree = cKDTree(src.node_coords())
        _, nearest = tree.query(pts[~found])
        out[~found] = np.asarray(u, float)[nearest]
    return out
