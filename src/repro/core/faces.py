"""Boundary-face extraction on incomplete octrees.

A face of a retained leaf is a *subdomain-boundary* face when the
equal-size region across it contains no retained leaf (it was carved) —
these faces tile the voxelated surrogate boundary Γ̃ used by the
Shifted Boundary Method and by surface integrals (drag, fluxes).
Faces on the root-cube boundary are reported separately.

With the standard construction (intercepted octants refined to one
uniform boundary level) the equal-size neighbour test is exact; meshes
whose carved interface abuts elements of mixed levels would need
sub-face resolution, which the evaluation meshes never produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import IncompleteMesh
from .octant import max_level
from .sfc import cached_keys, get_curve
from .treesort import block_ends

__all__ = ["BoundaryFaces", "extract_boundary_faces"]


@dataclass
class BoundaryFaces:
    """Faces on the carved (subdomain) and cube (domain) boundaries.

    ``elem``/``axis``/``side`` are parallel arrays: element index, face
    normal axis, and side (0 = low face, 1 = high face).  The outward
    normal of face k is ``side*2-1`` along ``axis``.
    """

    elem: np.ndarray
    axis: np.ndarray
    side: np.ndarray

    def __len__(self) -> int:
        return len(self.elem)


def extract_boundary_faces(
    mesh: IncompleteMesh,
) -> tuple[BoundaryFaces, BoundaryFaces]:
    """Return ``(subdomain_faces, domain_faces)`` for the mesh."""
    leaves = mesh.leaves
    dim = mesh.dim
    m = max_level(dim)
    oracle = get_curve(mesh.curve)
    keys = cached_keys(leaves, oracle)
    ends = block_ends(keys, leaves.levels, dim)
    n = len(leaves)
    a = leaves.anchors.astype(np.int64)
    s = leaves.sizes.astype(np.int64)
    extent = np.int64(1) << m

    sub_e, sub_ax, sub_sd = [], [], []
    dom_e, dom_ax, dom_sd = [], [], []
    span = (
        np.uint64(1)
        << (np.uint64(dim) * (np.uint64(m) - leaves.levels.astype(np.uint64)))
    )
    for axis in range(dim):
        for side in (0, 1):
            shift = np.where(side == 1, s, -s)
            nb = a.copy()
            nb[:, axis] += shift
            outside = (nb[:, axis] < 0) | (nb[:, axis] >= extent)
            idx_out = np.flatnonzero(outside)
            dom_e.append(idx_out)
            dom_ax.append(np.full(len(idx_out), axis))
            dom_sd.append(np.full(len(idx_out), side))
            inside = np.flatnonzero(~outside)
            if len(inside) == 0:
                continue
            nk = oracle.keys_from_coords(nb[inside].astype(np.uint32), dim)
            nk_end = nk + span[inside]
            # a retained leaf overlaps the neighbour block iff some leaf
            # key falls inside it, or a coarser leaf contains its start
            i0 = np.searchsorted(keys, nk, side="left")
            has_in = (i0 < n) & (np.where(i0 < n, keys[np.minimum(i0, n - 1)], 0) < nk_end)
            j = np.searchsorted(keys, nk, side="right") - 1
            jc = np.clip(j, 0, n - 1)
            has_cover = (j >= 0) & (nk < ends[jc])
            boundary = ~(has_in | has_cover)
            idx_b = inside[boundary]
            sub_e.append(idx_b)
            sub_ax.append(np.full(len(idx_b), axis))
            sub_sd.append(np.full(len(idx_b), side))

    def _pack(es, axs, sds):
        return BoundaryFaces(
            np.concatenate(es) if es else np.zeros(0, np.int64),
            np.concatenate(axs) if axs else np.zeros(0, np.int64),
            np.concatenate(sds) if sds else np.zeros(0, np.int64),
        )

    return _pack(sub_e, sub_ax, sub_sd), _pack(dom_e, dom_ax, dom_sd)
