"""2:1 balancing of incomplete octrees (Algorithms 4 and 5).

Bottom-up local block balancing in the style of Sundar et al.: seed
octants are processed finest level first; for every seed the neighbours
of its *parent* are added as next-coarser seeds (siblings share a
parent, so a tier's parents are made distinct first and each emits its
``3^dim - 1`` candidates once).  Crucially (per §3.3)
carved-region octants generated this way are **not** discarded — two
leaves of ≥4:1 size ratio could otherwise meet across a carved region.
The final constrained construction (Algorithm 2) then rebuilds a linear
octree that is no coarser than any seed, which enforces the 2:1
constraint over all shared boundaries (faces, edges and corners).
"""

from __future__ import annotations

import numpy as np

from ..obs import span
from .domain import Domain
from .construct import construct_constrained
from .octant import OctantSet, neighbors, parent
from .sfc import SFCOracle, cached_keys
from .treesort import block_ends, tree_sort

__all__ = [
    "bottom_up_constrain_neighbors",
    "balance_2to1",
    "find_balance_violations",
    "is_balanced",
]


def _unique_tier(tier: OctantSet) -> OctantSet:
    """Distinct octants of a single-level set, in key order (at one
    level the key *is* the octant)."""
    _, first = np.unique(cached_keys(tier), return_index=True)
    return tier[first]


def bottom_up_constrain_neighbors(seeds: OctantSet) -> OctantSet:
    """Algorithm 5: propagate balance constraints coarse-ward.

    Returns the union of the input seeds and all generated auxiliary
    seeds (duplicates removed), SFC-sorted.  No subdomain predicate is
    applied.
    """
    if len(seeds) == 0:
        return seeds
    levels = seeds.levels.astype(np.int64)
    by_level: dict[int, list[OctantSet]] = {}
    for lv in np.unique(levels):
        by_level[int(lv)] = [seeds[np.flatnonzero(levels == lv)]]
    tiers = []
    for lv in range(int(levels.max()), -1, -1):
        if lv not in by_level:
            continue
        tier = _unique_tier(OctantSet.concatenate(by_level[lv]))
        tiers.append(tier)
        # level lv-1, clipped to the domain (the root has no neighbours)
        nbrs = neighbors(_unique_tier(parent(tier)))
        if len(nbrs):
            by_level.setdefault(lv - 1, []).append(nbrs)
    return tree_sort(OctantSet.concatenate(tiers))[0]


def balance_2to1(
    domain: Domain, seeds: OctantSet, curve: "str | SFCOracle" = "morton"
) -> OctantSet:
    """Algorithm 4: 2:1-balanced linear octree covering the subdomain.

    ``seeds`` is typically the unbalanced leaf set from construction.
    """
    with span("balance") as sp:
        with span("balance.constrain"):
            aux = bottom_up_constrain_neighbors(seeds)
        out = construct_constrained(domain, aux, curve)
        sp.add("seeds", len(seeds))
        sp.add("aux_seeds", len(aux))
        sp.add("leaves", len(out))
    return out


def find_balance_violations(
    leaves: OctantSet, curve: "str | SFCOracle" = "morton"
) -> np.ndarray:
    """Indices of leaves with a neighbour coarser by 2+ levels.

    ``leaves`` must be an SFC-sorted linear octree (as produced by the
    construction routines).  For every leaf we form its same-level
    neighbour regions and look up the leaf containing each region's
    anchor; if that containing leaf is coarser by more than one level,
    the pair violates 2:1 balance.
    """
    dim = leaves.dim
    n = len(leaves)
    if n == 0:
        return np.zeros(0, np.int64)
    keys = cached_keys(leaves, curve)
    ends = block_ends(keys, leaves.levels, dim)
    nbrs, src = neighbors(leaves, return_source=True)
    nkeys = cached_keys(nbrs, curve)
    pos = np.searchsorted(keys, nkeys, side="right") - 1
    valid = pos >= 0
    pos_c = np.clip(pos, 0, n - 1)
    containing = valid & (nkeys >= keys[pos_c]) & (nkeys < ends[pos_c])
    too_coarse = containing & (
        leaves.levels[pos_c].astype(np.int64)
        < nbrs.levels.astype(np.int64) - 1
    )
    return np.unique(src[too_coarse])


def is_balanced(leaves: OctantSet, curve: "str | SFCOracle" = "morton") -> bool:
    """True if the linear octree satisfies the 2:1 constraint."""
    return len(find_balance_violations(leaves, curve)) == 0
