"""Overlap resolution of an octant set into a linear octree."""

from __future__ import annotations

import numpy as np

from repro.core.octant import OctantSet
from repro.core.sfc import SFCOracle, cached_keys
from repro.core.treesort import block_ends, remove_duplicates, tree_sort


def linearize(
    oset: OctantSet,
    curve: "str | SFCOracle" = "morton",
    prefer: str = "finer",
) -> OctantSet:
    """Resolve overlaps in an octant set, producing a linear octree.

    ``prefer='finer'`` deletes every octant that has a strict descendant
    present (the Algorithm-3 rule: finer octants win, so depth
    constraints hold globally).  ``prefer='coarser'`` deletes octants
    contained in a coarser one.
    """
    if prefer not in ("finer", "coarser"):
        raise ValueError("prefer must be 'finer' or 'coarser'")
    oset, _ = tree_sort(oset, curve)
    oset = remove_duplicates(oset, curve, assume_sorted=True)
    n = len(oset)
    if n <= 1:
        return oset
    keys = cached_keys(oset, curve)
    ends = block_ends(keys, oset.levels, oset.dim)
    if prefer == "finer":
        # In (key, level) order an octant's first strict descendant, if
        # any, is its immediate successor (SFC blocks are nested or
        # disjoint), so one shifted comparison suffices.
        keep = np.ones(n, bool)
        keep[:-1] = keys[1:] >= ends[:-1]
    elif prefer == "coarser":
        cummax = np.maximum.accumulate(ends)
        keep = np.ones(n, bool)
        keep[1:] = keys[1:] >= cummax[:-1]
    else:
        raise ValueError("prefer must be 'finer' or 'coarser'")
    return oset[np.flatnonzero(keep)]
