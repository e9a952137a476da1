"""Dendro-style complete-octree pipeline (the Table-4 comparator).

The prior approach ([66], Dendro-based) first builds the **complete**
octree over the isotropic cube — void regions included — partitions it,
and only then cancels the inactive octants.  Consequences the paper
measures and we reproduce:

* construction visits (and stores) every octant of the complete tree —
  for an elongated channel almost all of them are void, so mesh
  creation is ~20× slower and memory explodes (Dendro fails outright at
  base level ≥ 12);
* the partitioner balances *complete-tree* octants, so the **active**
  (retained) elements per rank are imbalanced, and MATVEC time is set
  by the most-loaded rank (~5× slower).

Building a complete level-10+ tree in a 128³-cube channel means ~2³⁰
octants — unbuildable here exactly as it was for Dendro.  We therefore
count it *exactly* without enumeration: whenever the pruned constructor
discards a carved subtree at level ℓ < base, that subtree would have
contributed ``2^(dim·(base−ℓ))`` complete-tree leaves at the base
level; recording each pruned block's SFC key and leaf count also lets
us compute, by prefix sums, exactly how many active elements fall into
every rank range of the complete-tree partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.domain import Domain
from ..core.octant import OctantSet, children, max_level
from ..core.sfc import cached_keys, get_curve
from ..geometry.predicate import RegionLabel

__all__ = ["CompleteTreeReport", "dendro_style_pipeline"]


@dataclass
class CompleteTreeReport:
    """Measured outcome of the complete-octree baseline pipeline."""

    n_active: int                # retained (FEM-active) elements
    n_complete: int              # leaves of the complete octree
    octants_visited: int         # construction work (complete pipeline)
    active_octants_visited: int  # construction work (pruned pipeline)
    active_per_rank: np.ndarray  # active elements per complete-tree rank
    bytes_per_rank: np.ndarray   # complete-tree storage per rank (B)

    @property
    def inactive_fraction(self) -> float:
        return 1.0 - self.n_active / self.n_complete

    @property
    def active_imbalance(self) -> float:
        """max/mean active elements per rank (1.0 = perfectly balanced)."""
        mean = self.active_per_rank.mean()
        return float(self.active_per_rank.max() / mean) if mean > 0 else np.inf

    def exceeds_memory(self, bytes_per_octant: float = 1.0e3, node_mem: float = 192e9,
                       ranks_per_node: int = 56) -> bool:
        """Would the complete tree overflow node memory (the Dendro
        failure the paper reports for base level >= 12)?"""
        per_node = self.bytes_per_rank.max() * ranks_per_node
        return bool(per_node * bytes_per_octant / 8.0 > node_mem)


def dendro_style_pipeline(
    domain: Domain,
    base_level: int,
    boundary_level: int,
    nranks: int,
    curve: str = "morton",
) -> CompleteTreeReport:
    """Run the complete-tree pipeline in counting mode.

    Builds the *pruned* tree for the active octants (cheap), while
    exactly accounting for the carved blocks the complete pipeline
    would have enumerated, then partitions the complete tree into
    ``nranks`` equal ranges and measures the active load per rank.
    """
    dim = domain.dim
    m = max_level(dim)
    oracle = get_curve(curve)

    # pruned construction with carved-block recording
    pruned_keys: list[np.ndarray] = []
    pruned_counts: list[np.ndarray] = []
    visited_active = 0
    visited_complete = 0
    frontier = OctantSet.root(dim)
    leaves: list[OctantSet] = []
    while len(frontier):
        visited_active += len(frontier)
        visited_complete += len(frontier)
        labels = domain.classify_octants(frontier)
        carved = labels == RegionLabel.CARVED
        if carved.any():
            sub = frontier[np.flatnonzero(carved)]
            lv = sub.levels.astype(np.int64)
            # carved cells refine to base level in the complete tree
            nleaves = np.where(
                lv >= base_level, 1, 1 << (dim * (base_level - lv))
            ).astype(np.int64)
            # complete pipeline also visits all their internal octants:
            # a full 2^dim-ary tree with L leaves has (L·2^dim − 1)/(2^dim − 1) nodes
            nch = 1 << dim
            visited_complete += int(((nleaves * nch - 1) // (nch - 1)).sum())
            pruned_keys.append(cached_keys(sub, oracle))
            pruned_counts.append(nleaves)
        keep = np.flatnonzero(~carved)
        frontier = frontier[keep]
        labels = labels[keep]
        if not len(frontier):
            break
        target = np.full(len(frontier), base_level, np.int64)
        np.putmask(target, labels == RegionLabel.RETAIN_BOUNDARY, boundary_level)
        split = (frontier.levels.astype(np.int64) < target) & (frontier.levels < m)
        leaves.append(frontier[np.flatnonzero(~split)])
        frontier = children(frontier[np.flatnonzero(split)])

    from ..core.treesort import tree_sort

    active = tree_sort(OctantSet.concatenate(leaves), oracle)[0]
    akeys = cached_keys(active, oracle)
    n_active = len(active)

    if pruned_keys:
        ckeys = np.concatenate(pruned_keys)
        ccounts = np.concatenate(pruned_counts)
        order = np.argsort(ckeys)
        ckeys, ccounts = ckeys[order], ccounts[order]
    else:
        ckeys = np.zeros(0, np.uint64)
        ccounts = np.zeros(0, np.int64)
    ccum = np.concatenate([[0], np.cumsum(ccounts)])
    n_complete = int(n_active + ccum[-1])

    # position of each active element in the complete-tree SFC order =
    # its active index + number of carved leaves with smaller keys
    carved_before = ccum[np.searchsorted(ckeys, akeys, side="left")]
    complete_pos = np.arange(n_active) + carved_before

    # equal complete-tree ranges per rank (what Dendro's partitioner does)
    bounds = np.linspace(0, n_complete, nranks + 1)
    active_per_rank = np.histogram(complete_pos, bins=bounds)[0].astype(np.int64)
    complete_per_rank = np.diff(bounds).astype(np.int64)

    return CompleteTreeReport(
        n_active=n_active,
        n_complete=n_complete,
        octants_visited=visited_complete,
        active_octants_visited=visited_active,
        active_per_rank=active_per_rank,
        bytes_per_rank=complete_per_rank * 8,
    )
