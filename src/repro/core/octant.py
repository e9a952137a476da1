"""Dimension-agnostic octant (quadtree/octree cell) algebra.

An octant is identified by its *anchor* (the lexicographically smallest
corner) expressed in integer coordinates at the finest representable
resolution, together with its *level* (depth in the tree).  The root
octant has level 0 and spans ``[0, 2**max_level(dim))`` along every axis;
an octant at level ``l`` has side ``2**(max_level(dim) - l)`` in anchor
units.

All operations here are vectorised: octant collections are stored as an
``(N, dim)`` ``uint32`` anchor array plus an ``(N,)`` ``uint8`` level
array (see :class:`OctantSet`).  No per-octant Python objects exist in
hot paths, per the HPC guide idioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "max_level",
    "octant_size",
    "OctantSet",
    "parent",
    "children",
    "neighbors",
]


def max_level(dim: int) -> int:
    """Finest tree depth representable for ``dim`` (keys fit in 63 bits)."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return min(63 // dim, 30)


def octant_size(levels: np.ndarray | int, dim: int) -> np.ndarray | int:
    """Side length in anchor units of octants at ``levels``."""
    m = max_level(dim)
    lv = np.asarray(levels)
    if np.any(lv < 0) or np.any(lv > m):
        raise ValueError(f"levels must lie in [0, {m}]")
    out = np.uint32(1) << (np.uint32(m) - lv.astype(np.uint32))
    if np.isscalar(levels):
        return int(out)
    return out


@dataclass
class OctantSet:
    """A flat collection of octants of a fixed dimension.

    Attributes
    ----------
    anchors:
        ``(N, dim)`` uint32 integer anchor coordinates.
    levels:
        ``(N,)`` uint8 tree levels.

    A set is **immutable** once built: every operation returns a new
    set, and ``anchors`` / ``levels`` are marked read-only, so a write
    into either raises ``ValueError``.  (An array that already has the
    stored dtype and layout is stored as is, so the caller's array is
    frozen with it.)  That is what lets the SFC keys computed for a set
    (:func:`repro.core.sfc.cached_keys`) travel with its octants: an
    index or a concatenation hands the result the matching entries of
    every cached key array, so a sort → dedup pipeline interleaves
    once.  A set built from new arrays starts without keys.
    """

    anchors: np.ndarray
    levels: np.ndarray
    dim: int = field(default=-1)
    #: read-only uint64 keys per curve name, filled by ``cached_keys``
    _sfc_keys: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.anchors = np.ascontiguousarray(self.anchors, dtype=np.uint32)
        self.levels = np.ascontiguousarray(self.levels, dtype=np.uint8)
        if self.anchors.ndim != 2:
            raise ValueError("anchors must be a 2-D (N, dim) array")
        if self.dim == -1:
            self.dim = int(self.anchors.shape[1])
        if self.anchors.shape != (len(self.levels), self.dim):
            raise ValueError(
                f"shape mismatch: anchors {self.anchors.shape}, "
                f"levels {self.levels.shape}, dim {self.dim}"
            )
        self.anchors.flags.writeable = False
        self.levels.flags.writeable = False

    # -- basic container protocol -------------------------------------
    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, idx) -> "OctantSet":
        if np.isscalar(idx) or isinstance(idx, (int, np.integer)):
            idx = [idx]
        out = OctantSet(self.anchors[idx], self.levels[idx], self.dim)
        for name, keys in self._sfc_keys.items():
            out._sfc_keys[name] = _readonly(keys[idx])
        return out

    @classmethod
    def root(cls, dim: int) -> "OctantSet":
        return cls(np.zeros((1, dim), np.uint32), np.zeros(1, np.uint8), dim)

    @classmethod
    def empty(cls, dim: int) -> "OctantSet":
        return cls(np.zeros((0, dim), np.uint32), np.zeros(0, np.uint8), dim)

    @classmethod
    def concatenate(cls, sets: list["OctantSet"]) -> "OctantSet":
        if not sets:
            raise ValueError("need at least one OctantSet")
        dim = sets[0].dim
        out = cls(
            np.concatenate([s.anchors for s in sets]),
            np.concatenate([s.levels for s in sets]),
            dim,
        )
        for name in sets[0]._sfc_keys:
            if all(name in s._sfc_keys for s in sets):
                out._sfc_keys[name] = _readonly(
                    np.concatenate([s._sfc_keys[name] for s in sets])
                )
        return out

    @property
    def sizes(self) -> np.ndarray:
        """Side lengths in anchor units, one per octant."""
        return octant_size(self.levels, self.dim)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners in anchor units: ``(lo, hi)``."""
        lo = self.anchors.astype(np.int64)
        hi = lo + self.sizes.astype(np.int64)[:, None]
        return lo, hi

    def physical_bounds(self, domain_scale=1.0) -> tuple[np.ndarray, np.ndarray]:
        """Bounds mapped to physical coordinates in ``[0, domain_scale]**dim``.

        ``domain_scale`` may be a scalar or a length-``dim`` vector (for
        anisotropic embeddings of the unit cube).
        """
        m = max_level(self.dim)
        h = np.asarray(domain_scale, dtype=np.float64) / (1 << m)
        lo, hi = self.bounds()
        return lo * h, hi * h


def _readonly(keys: np.ndarray) -> np.ndarray:
    keys.flags.writeable = False
    return keys


# -- vectorised octant algebra ----------------------------------------

def parent(oset: OctantSet) -> OctantSet:
    """Parents of every octant (root maps to itself)."""
    lv = np.maximum(oset.levels.astype(np.int64) - 1, 0)
    psize = octant_size(lv, oset.dim).astype(np.uint32)
    mask = ~(psize - np.uint32(1))
    return OctantSet(oset.anchors & mask[:, None], lv.astype(np.uint8), oset.dim)


def children(oset: OctantSet) -> OctantSet:
    """All ``2**dim`` children of every octant, grouped per parent.

    The output has ``N * 2**dim`` octants ordered parent-major with
    children in Morton (child-number) order within each parent.
    """
    dim = oset.dim
    m = max_level(dim)
    if np.any(oset.levels >= m):
        raise ValueError("cannot refine octants already at max level")
    n = len(oset)
    nch = 1 << dim
    csize = (octant_size(oset.levels, dim) >> 1).astype(np.uint32)
    # child-number bit j sets axis j
    offs = np.zeros((nch, dim), np.uint32)
    for k in range(nch):
        for j in range(dim):
            offs[k, j] = (k >> j) & 1
    anchors = (
        oset.anchors[:, None, :] + offs[None, :, :] * csize[:, None, None]
    ).reshape(n * nch, dim)
    levels = np.repeat(oset.levels + np.uint8(1), nch)
    return OctantSet(anchors.astype(np.uint32), levels, dim)


_NEIGHBOR_OFFSETS_CACHE: dict[int, np.ndarray] = {}


def _neighbor_offsets(dim: int) -> np.ndarray:
    """All ``3**dim - 1`` nonzero offsets in {-1, 0, 1}**dim."""
    if dim not in _NEIGHBOR_OFFSETS_CACHE:
        grids = np.meshgrid(*([np.array([-1, 0, 1])] * dim), indexing="ij")
        offs = np.stack([g.ravel() for g in grids], axis=1)
        offs = offs[np.any(offs != 0, axis=1)]
        _NEIGHBOR_OFFSETS_CACHE[dim] = offs.astype(np.int64)
    return _NEIGHBOR_OFFSETS_CACHE[dim]


def neighbors(
    oset: OctantSet, include_self: bool = False, return_source: bool = False
):
    """Same-level face/edge/corner neighbours of every octant.

    Neighbours falling outside the root domain are dropped.  Output is
    concatenated over inputs (duplicates across inputs are *not* removed;
    callers dedup via SFC keys).  With ``return_source`` the result is
    ``(neighbours, src)``, ``src[k]`` the input index neighbour ``k``
    was generated from.
    """
    dim = oset.dim
    m = max_level(dim)
    offs = _neighbor_offsets(dim)
    if include_self:
        offs = np.concatenate([offs, np.zeros((1, dim), np.int64)])
    sizes = oset.sizes.astype(np.int64)
    cand = oset.anchors.astype(np.int64)[:, None, :] + offs[None, :, :] * sizes[:, None, None]
    levels = np.repeat(oset.levels, len(offs))
    cand = cand.reshape(-1, dim)
    extent = np.int64(1) << m
    ok = np.all((cand >= 0) & (cand < extent), axis=1)
    out = OctantSet(cand[ok].astype(np.uint32), levels[ok], dim)
    if return_source:
        return out, np.repeat(np.arange(len(oset)), len(offs))[ok]
    return out
