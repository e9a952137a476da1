"""Incomplete-octree construction (Algorithms 1 and 2 of the paper).

Construction proceeds top-down from the root; a subtree is pruned the
moment F classifies it as carved ("proactive pruning" — the paper's key
difference from build-complete-then-filter pipelines).  The production
implementation advances a whole frontier of octants per level with
vectorised classification; tests cross-check it against a faithful
per-octant recursion of Algorithm 2 (``tests/oracles/construct.py``).

Refinement criteria supported (matching the paper's §3.2 list):

* a uniform target level (Algorithm 1, :func:`construct_uniform`);
* a set of seed octants — output no coarser than the seeds
  (Algorithm 2, :func:`construct_constrained`);
* interception of the subdomain boundary plus per-region levels
  (:func:`construct_adaptive` — the "base level + boundary level"
  meshes used throughout the evaluation).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..geometry.predicate import RegionLabel
from ..obs import span
from .domain import Domain
from .octant import OctantSet, children, max_level
from .sfc import SFCOracle, cached_keys, get_curve
from .treesort import tree_sort

__all__ = [
    "construct_uniform",
    "construct_constrained",
    "construct_adaptive",
]


def _construct_frontier(
    domain: Domain,
    split_rule: Callable[[OctantSet, np.ndarray], np.ndarray],
    curve: "str | SFCOracle" = "morton",
    keep_labels: bool = False,
):
    """Shared BFS driver: classify, prune carved, split per rule.

    ``split_rule(frontier, labels) -> bool mask`` decides which retained
    octants are refined; the rest become leaves.
    """
    dim = domain.dim
    m = max_level(dim)
    frontier = OctantSet.root(dim)
    leaf_parts: list[OctantSet] = []
    label_parts: list[np.ndarray] = []
    with span("construct") as sp:
        while len(frontier):
            sp.add("classified", len(frontier))
            labels = domain.classify_octants(frontier)
            retained = labels != RegionLabel.CARVED
            sp.add("pruned", int(len(frontier) - retained.sum()))
            frontier = frontier[np.flatnonzero(retained)]
            labels = labels[retained]
            if not len(frontier):
                break
            split = split_rule(frontier, labels)
            split &= frontier.levels < m  # hard cap at max depth
            keep = np.flatnonzero(~split)
            leaf_parts.append(frontier[keep])
            if keep_labels:
                label_parts.append(labels[keep])
            frontier = children(frontier[np.flatnonzero(split)])
        leaves = (
            OctantSet.concatenate(leaf_parts) if leaf_parts else OctantSet.empty(dim)
        )
        leaves, order = tree_sort(leaves, curve)
        sp.add("leaves", len(leaves))
    if keep_labels:
        lab = (
            np.concatenate(label_parts) if label_parts else np.zeros(0, np.uint8)
        )
        return leaves, lab[order]
    return leaves


def construct_uniform(
    domain: Domain, level: int, curve: "str | SFCOracle" = "morton"
) -> OctantSet:
    """Algorithm 1: level-``level`` leaves covering the subdomain."""
    _check_level("level", level, domain.dim)

    def rule(frontier, labels):
        return frontier.levels < level

    return _construct_frontier(domain, rule, curve)


def construct_constrained(
    domain: Domain, seeds: OctantSet, curve: "str | SFCOracle" = "morton"
) -> OctantSet:
    """Algorithm 2: leaves no coarser than ``seeds``, covering the subdomain.

    Every output leaf whose SFC block contains a seed is at least as fine
    as the finest such seed.
    """
    oracle = get_curve(curve)
    dim = domain.dim
    if seeds.dim != dim:
        raise ValueError("seed dimension mismatch")
    if len(seeds) == 0:
        return construct_uniform(domain, 0, curve)
    seeds_sorted, _ = tree_sort(seeds, oracle)
    skeys = cached_keys(seeds_sorted, oracle)
    slevels = seeds_sorted.levels.astype(np.int64)

    def rule(frontier, labels):
        fkeys = cached_keys(frontier, oracle)
        fends = fkeys + _block_span(frontier, dim)
        starts = np.searchsorted(skeys, fkeys, side="left")
        ends = np.searchsorted(skeys, fends, side="left")
        # max seed level within each frontier block (empty -> -1)
        finest = _segment_max(slevels, starts, ends, fill=-1)
        return frontier.levels.astype(np.int64) < finest

    return _construct_frontier(domain, rule, curve)


def construct_adaptive(
    domain: Domain,
    base_level: int,
    boundary_level: int,
    curve: "str | SFCOracle" = "morton",
    extra_refine: Callable[[OctantSet, np.ndarray], np.ndarray] | None = None,
    return_labels: bool = False,
):
    """Boundary-adapted construction: the evaluation's standard mesh.

    Retained octants refine to ``base_level`` everywhere and to
    ``boundary_level`` where they intercept the subdomain boundary.
    ``extra_refine(frontier, labels) -> desired level array`` can impose
    additional region-based refinement (e.g. the classroom's exit level).
    Levels are integers with ``0 ≤ base_level ≤ boundary_level ≤
    max_level(dim)``; anything else is a ``ValueError`` naming the field.
    """
    _check_level("base_level", base_level, domain.dim)
    _check_level("boundary_level", boundary_level, domain.dim)
    if boundary_level < base_level:
        raise ValueError("boundary_level must be >= base_level")

    def rule(frontier, labels):
        target = np.full(len(frontier), base_level, np.int64)
        np.putmask(target, labels == RegionLabel.RETAIN_BOUNDARY, boundary_level)
        if extra_refine is not None:
            target = np.maximum(target, extra_refine(frontier, labels))
        return frontier.levels.astype(np.int64) < target

    return _construct_frontier(domain, rule, curve, keep_labels=return_labels)


def _check_level(name: str, level, dim: int) -> None:
    """A ``ValueError`` naming ``name`` unless ``level`` is an integer
    in ``0..max_level(dim)``."""
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {level!r}")
    if not 0 <= level <= max_level(dim):
        raise ValueError(f"{name} out of range: {level} (0..{max_level(dim)})")


def _block_span(oset: OctantSet, dim: int) -> np.ndarray:
    m = max_level(dim)
    return np.uint64(1) << (
        np.uint64(dim) * (np.uint64(m) - oset.levels.astype(np.uint64))
    )


def _segment_max(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray, fill: int
) -> np.ndarray:
    """Max of ``values[starts[i]:ends[i]]`` per segment; ``fill`` if empty.

    ``values`` are small non-negative integers (tree levels), so the max
    is found by per-level prefix counts — fully vectorised and immune to
    the ordering pitfalls of ``np.maximum.reduceat``.
    """
    out = np.full(len(starts), fill, np.int64)
    if len(values) == 0 or len(starts) == 0:
        return out
    unset = np.ones(len(starts), bool)
    for lv in range(int(values.max()), -1, -1):
        csum = np.concatenate([[0], np.cumsum(values >= lv)])
        hit = unset & (csum[ends] > csum[starts])
        out[hit] = lv
        unset &= ~hit
        if not unset.any():
            break
    return out
