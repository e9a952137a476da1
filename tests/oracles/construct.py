"""Algorithm 2 as written — the oracle for
:func:`repro.core.construct.construct_constrained`'s frontier driver."""

from __future__ import annotations

import numpy as np

from repro.core.construct import _block_span
from repro.core.domain import Domain
from repro.core.octant import OctantSet, children, max_level
from repro.core.sfc import SFCOracle, cached_keys, get_curve
from repro.core.treesort import tree_sort
from repro.geometry.predicate import RegionLabel


def construct_constrained_recursive(
    domain: Domain, seeds: OctantSet, curve: "str | SFCOracle" = "morton"
) -> OctantSet:
    """Faithful per-octant recursion of Algorithm 2 (reference only).

    Children are visited in regional SFC order via the oracle; seeds are
    bucketed to children with a counting pass exactly as in the paper.
    Used in tests to cross-check the vectorised frontier driver.
    """
    oracle = get_curve(curve)
    dim = domain.dim
    m = max_level(dim)
    seeds_sorted, _ = tree_sort(seeds, oracle)
    out: list[OctantSet] = []

    def recurse(region: OctantSet, bucket: OctantSet) -> None:
        label = domain.classify_octants(region)[0]
        if label == RegionLabel.CARVED:
            return  # prune
        lvl = int(region.levels[0])
        finest = int(bucket.levels.max()) if len(bucket) else -1
        if len(bucket) == 0 or lvl >= finest or lvl >= m:
            out.append(region)
            return
        kids = children(region)
        kid_keys = cached_keys(kids, oracle)
        sfc_order = np.argsort(kid_keys)  # regional SFC ordering of children
        # bucket seeds to children by key range
        bkeys = cached_keys(bucket, oracle)
        for c in sfc_order:
            kid = kids[int(c)]
            k0 = cached_keys(kid, oracle)[0]
            k1 = k0 + _block_span(kid, dim)[0]
            sel = np.flatnonzero((bkeys >= k0) & (bkeys < k1))
            recurse(kid, bucket[sel])

    recurse(OctantSet.root(dim), seeds_sorted)
    merged = OctantSet.concatenate(out) if out else OctantSet.empty(dim)
    merged, _ = tree_sort(merged, oracle)
    return merged
