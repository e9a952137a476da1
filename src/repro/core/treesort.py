"""TreeSort: comparison-free SFC sorting and linear-octree utilities.

The production sort argsorts the set's 64-bit SFC keys — the numpy
analogue of a most-significant-digit radix sort.  The keys come from
:func:`repro.core.sfc.cached_keys` and travel with the octants, so
``tree_sort`` → ``remove_duplicates`` interleave once per input set,
not once per stage.  A faithful recursive MSD bucketing
implementation (:func:`tree_sort_msd`) is kept as the reference (and as
an ablation benchmark target): it buckets octants level by level,
permuting buckets into the regional SFC order exactly as TreeSort in
the paper does.
"""

from __future__ import annotations

import numpy as np

from ..obs import span
from .octant import OctantSet, max_level
from .sfc import SFCOracle, cached_keys

__all__ = [
    "tree_sort",
    "tree_sort_msd",
    "remove_duplicates",
    "block_ends",
]


def block_ends(keys: np.ndarray, levels: np.ndarray, dim: int) -> np.ndarray:
    """Exclusive end key of each octant's SFC block."""
    m = max_level(dim)
    span = np.uint64(dim) * (np.uint64(m) - levels.astype(np.uint64))
    return keys + (np.uint64(1) << span)


def tree_sort(
    oset: OctantSet, curve: "str | SFCOracle" = "morton"
) -> tuple[OctantSet, np.ndarray]:
    """Sort octants into SFC order. Returns (sorted set, permutation)."""
    with span("treesort", merge=True) as sp:
        order = np.lexsort((oset.levels, cached_keys(oset, curve)))
        sp.add("octants", len(oset))
    return oset[order], order


def tree_sort_msd(oset: OctantSet, curve: "str | SFCOracle" = "morton") -> OctantSet:
    """Reference MSD-radix TreeSort: recursive per-level SFC bucketing.

    Functionally identical to :func:`tree_sort` (asserted in tests);
    kept for fidelity to the paper's Algorithm and for the sort ablation
    benchmark.
    """
    dim = oset.dim
    m = max_level(dim)
    keys = cached_keys(oset, curve)
    out_idx: list[np.ndarray] = []

    def recurse(idx: np.ndarray, level: int) -> None:
        if len(idx) == 0:
            return
        if len(idx) == 1 or level >= m:
            # order coarse-first among identical blocks
            out_idx.append(idx[np.argsort(oset.levels[idx], kind="stable")])
            return
        here = idx[oset.levels[idx] == level]
        if len(here):
            out_idx.append(here)
        rest = idx[oset.levels[idx] > level]
        if len(rest) == 0:
            return
        # bucket by the SFC digit at this level: dim bits of the key
        shift = np.uint64(dim) * np.uint64(m - level - 1)
        digit = (keys[rest] >> shift) & np.uint64((1 << dim) - 1)
        order = np.argsort(digit, kind="stable")
        rest = rest[order]
        counts = np.bincount(digit[order].astype(np.int64), minlength=1 << dim)
        offs = np.concatenate([[0], np.cumsum(counts)])
        for c in range(1 << dim):
            recurse(rest[offs[c]:offs[c + 1]], level + 1)

    recurse(np.arange(len(oset)), 0)
    if not out_idx:
        return OctantSet.empty(dim)
    return oset[np.concatenate(out_idx)]


def remove_duplicates(
    oset: OctantSet, curve: "str | SFCOracle" = "morton", assume_sorted: bool = False
) -> OctantSet:
    """Remove exact duplicate octants (same anchor and level)."""
    if not assume_sorted:
        oset, _ = tree_sort(oset, curve)
    keys = cached_keys(oset, curve)
    if len(oset) == 0:
        return oset
    keep = np.ones(len(oset), bool)
    keep[1:] = (keys[1:] != keys[:-1]) | (oset.levels[1:] != oset.levels[:-1])
    return oset[np.flatnonzero(keep)]
