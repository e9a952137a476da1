"""Space-filling-curve (SFC) oracles: Morton and Hilbert orderings.

The octree algorithms (TreeSort, construction, partitioning) are
parameterised by an SFC "oracle" that linearly orders the cells of the
finest grid.  An octant at level ``l`` covers a contiguous block of
``2**(dim*(max_level-l))`` finest cells under both curves (the curves are
self-similar), so the octant's key is the key of its first finest cell,
i.e. the key of its anchor with the low ``dim*(max_level-l)`` bits
cleared.

Morton keys are plain bit interleaves.  Hilbert keys use Skilling's
transpose algorithm ("Programming the Hilbert curve", AIP CP 707, 2004),
vectorised over numpy arrays.

Everything outside this module asks for the keys of an octant set
through :func:`cached_keys`: they are interleaved once per (set, curve)
and then travel with the octants through indexing and concatenation, so
no later stage re-derives them.  The oracles' ``keys`` /
``keys_from_coords`` stay the way to key bare coordinates (probe cells,
point clouds).
"""

from __future__ import annotations

import numpy as np

from .octant import OctantSet, max_level

__all__ = [
    "SFCOracle",
    "MortonOrder",
    "HilbertOrder",
    "get_curve",
    "cached_keys",
]


def _interleave(coords: np.ndarray, nbits: int, reverse_axes: bool) -> np.ndarray:
    """Bit-interleave ``(N, dim)`` integer coords into uint64 keys.

    Bit ``j`` of axis ``i`` lands at key position ``j*dim + i`` (or with
    the axis order reversed when ``reverse_axes`` — the convention the
    Hilbert transpose format requires, axis 0 most significant).
    """
    c = np.ascontiguousarray(coords, dtype=np.uint64)
    n, dim = c.shape
    key = np.zeros(n, np.uint64)
    if dim == 2 and nbits <= 32:
        spread = _spread_1by1
    elif dim == 3 and nbits <= 21:
        spread = _spread_1by2
    else:
        spread = None
    for i in range(dim):
        pos = (dim - 1 - i) if reverse_axes else i
        col = c[:, i]
        if spread is not None:
            key |= spread(col) << np.uint64(pos)
            continue
        for j in range(nbits):
            bit = (col >> np.uint64(j)) & np.uint64(1)
            key |= bit << np.uint64(j * dim + pos)
    return key


def _spread_1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of ``x``: bit j lands at position 2j."""
    u = np.uint64
    x = x & u(0xFFFFFFFF)
    x = (x | (x << u(16))) & u(0x0000FFFF0000FFFF)
    x = (x | (x << u(8))) & u(0x00FF00FF00FF00FF)
    x = (x | (x << u(4))) & u(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << u(2))) & u(0x3333333333333333)
    x = (x | (x << u(1))) & u(0x5555555555555555)
    return x


def _spread_1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of ``x``: bit j lands at position 3j."""
    u = np.uint64
    x = x & u(0x1FFFFF)
    x = (x | (x << u(32))) & u(0x001F00000000FFFF)
    x = (x | (x << u(16))) & u(0x001F0000FF0000FF)
    x = (x | (x << u(8))) & u(0x100F00F00F00F00F)
    x = (x | (x << u(4))) & u(0x10C30C30C30C30C3)
    x = (x | (x << u(2))) & u(0x1249249249249249)
    return x


def _axes_to_transpose(coords: np.ndarray, nbits: int) -> np.ndarray:
    """Skilling's AxesToTranspose, vectorised. Returns transposed coords."""
    x = np.ascontiguousarray(coords, dtype=np.uint64).copy()
    n, dim = x.shape
    q = np.uint64(1) << np.uint64(nbits - 1)
    one = np.uint64(1)
    # Inverse undo
    while q > one:
        p = q - one
        for i in range(dim):
            hi = (x[:, i] & q) != 0
            # invert low bits of x[0] where bit set
            x[hi, 0] ^= p
            # exchange low bits of x[0] and x[i] where bit clear
            lo = ~hi
            t = (x[lo, 0] ^ x[lo, i]) & p
            x[lo, 0] ^= t
            x[lo, i] ^= t
        q >>= one
    # Gray encode
    for i in range(1, dim):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, np.uint64)
    q = np.uint64(1) << np.uint64(nbits - 1)
    while q > one:
        sel = (x[:, dim - 1] & q) != 0
        t[sel] ^= q - one
        q >>= one
    x ^= t[:, None]
    return x


class SFCOracle:
    """Base interface: uint64 keys over finest-grid coordinates."""

    name = "abstract"

    def keys_from_coords(self, coords: np.ndarray, dim: int) -> np.ndarray:
        raise NotImplementedError

    def keys(self, oset: OctantSet) -> np.ndarray:
        """Keys of octants: anchor key with sub-octant bits cleared."""
        m = max_level(oset.dim)
        key = self.keys_from_coords(oset.anchors, oset.dim)
        shift = (np.uint64(oset.dim) * (np.uint64(m) - oset.levels.astype(np.uint64)))
        # clear the low dim*(m-l) bits (block-align the key)
        return (key >> shift) << shift


class MortonOrder(SFCOracle):
    """Z-order / Lebesgue curve: plain bit interleave."""

    name = "morton"

    def keys_from_coords(self, coords: np.ndarray, dim: int) -> np.ndarray:
        return _interleave(coords, max_level(dim), reverse_axes=False)


class HilbertOrder(SFCOracle):
    """Hilbert curve via Skilling's transpose algorithm."""

    name = "hilbert"

    def keys_from_coords(self, coords: np.ndarray, dim: int) -> np.ndarray:
        nbits = max_level(dim)
        tr = _axes_to_transpose(coords, nbits)
        return _interleave(tr, nbits, reverse_axes=True)


_CURVES = {"morton": MortonOrder(), "hilbert": HilbertOrder()}


def get_curve(curve: "str | SFCOracle") -> SFCOracle:
    """Resolve a curve name ('morton' / 'hilbert') or pass through."""
    if isinstance(curve, SFCOracle):
        return curve
    try:
        return _CURVES[curve]
    except KeyError:
        raise ValueError(f"unknown SFC curve {curve!r}; options: {sorted(_CURVES)}")


def cached_keys(oset: OctantSet, curve: "str | SFCOracle" = "morton") -> np.ndarray:
    """Block-aligned keys of ``oset`` — the one way the repo obtains them.

    Octant sets are immutable (every operation returns a new set), so
    the keys are interleaved once per (set, curve), kept on the set and
    handed on to every set indexed or concatenated out of it (see
    :class:`repro.core.octant.OctantSet`): sort, dedup, constrained
    construction, the mesh fingerprint and the traversal plan all read
    the same array.  It is marked read-only.
    """
    oracle = get_curve(curve)
    keys = oset._sfc_keys.get(oracle.name)
    if keys is None:
        keys = oracle.keys(oset)
        keys.flags.writeable = False
        oset._sfc_keys[oracle.name] = keys
    return keys
