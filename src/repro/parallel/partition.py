"""SFC partitioning with load tolerance (the DistTreeSort splitter rule).

Elements already in SFC order are split into contiguous per-rank ranges.
The ideal splitter positions balance weights exactly; an optional
tolerance lets splitters snap to coarse subtree boundaries (the paper:
"a large tolerance will partition the tree at coarse levels; a small
tolerance will balance the load more evenly at the expense of splitting
coarse subtrees over multiple processes").

The *active-region-only* property — the central difference from the
complete-octree pipeline of [66]/Dendro — holds by construction here:
the element list being split contains only retained octants, so every
rank receives the same amount of actual FEM work.  The baseline in
:mod:`repro.baselines.complete_octree` partitions the complete tree
instead, and its per-rank *active* work becomes unbalanced.
"""

from __future__ import annotations

import numpy as np

from ..core.mesh import IncompleteMesh
from ..core.octant import max_level
from ..core.sfc import cached_keys

__all__ = [
    "partition_weights",
    "partition_mesh",
    "shrink_splits",
]


def partition_weights(
    weights: np.ndarray, nparts: int, load_tol: float = 0.0, keys=None, dim=3
) -> np.ndarray:
    """Split SFC-ordered ``weights`` into ``nparts`` contiguous ranges.

    Returns ``splits`` of length ``nparts + 1`` (element index bounds).
    With ``load_tol > 0`` and ``keys`` given, each splitter may move by
    up to ``load_tol`` × (ideal grain) positions to land on the
    coarsest-possible subtree boundary.
    """
    w = np.asarray(weights, np.float64)
    n = len(w)
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    csum = np.concatenate([[0.0], np.cumsum(w)])
    total = csum[-1]
    targets = total * np.arange(1, nparts) / nparts
    splits = np.searchsorted(csum, targets, side="left")
    splits = np.clip(splits, 0, n)
    out = np.concatenate([[0], splits, [n]]).astype(np.int64)
    # enforce monotonicity for degenerate weight distributions
    np.maximum.accumulate(out, out=out)
    if load_tol > 0.0 and keys is not None and n:
        grain = max(int(n / nparts), 1)
        radius = max(int(load_tol * grain), 0)
        align = _boundary_alignment(np.asarray(keys, np.uint64), dim)
        for i in range(1, nparts):
            s = out[i]
            lo = max(int(out[i - 1]), s - radius)
            hi = min(int(out[i + 1]), s + radius)
            if hi <= lo:
                continue
            cand = np.arange(lo, hi + 1)
            cand = cand[(cand >= out[i - 1]) & (cand <= out[i + 1])]
            # prefer the coarsest block boundary, then closeness to ideal
            score = -align[np.clip(cand, 0, n - 1)] * (2 * radius + 2) + np.abs(
                cand - s
            )
            out[i] = cand[np.argmin(score)]
        np.maximum.accumulate(out, out=out)
    return out


def _boundary_alignment(keys: np.ndarray, dim: int) -> np.ndarray:
    """How coarse a subtree boundary each position starts: the number of
    trailing zero *digit groups* (dim bits each) of the SFC key."""
    n = len(keys)
    out = np.zeros(n + 1, np.int64)
    m = max_level(dim)
    k = keys.astype(np.uint64)
    for g in range(1, m + 1):
        mask = (np.uint64(1) << np.uint64(dim * g)) - np.uint64(1)
        aligned = (k & mask) == 0
        out[:n] = np.where(aligned, g, out[:n])
    out[n] = m
    return out


def partition_mesh(
    mesh: IncompleteMesh, nparts: int, load_tol: float = 0.0
) -> np.ndarray:
    """Partition a mesh's elements (unit weights) into rank ranges."""
    keys = cached_keys(mesh.leaves, mesh.curve)
    return partition_weights(
        np.ones(mesh.n_elem), nparts, load_tol, keys=keys, dim=mesh.dim
    )


def shrink_splits(splits: np.ndarray, failed_ranks) -> np.ndarray:
    """Contract a partition onto the ranks surviving a failure.

    Each failed rank's element range is absorbed by the nearest
    surviving rank *before* it in SFC order (leading failed ranges go
    to the first survivor), so surviving ranks keep their own element
    ranges — the minimal-data-movement recovery repartition used by
    :mod:`repro.resilience.recovery`.  Returns splits of length
    ``n_survivors + 1`` covering the same global element range.
    """
    splits = np.asarray(splits, np.int64)
    nranks = len(splits) - 1
    failed = {int(r) for r in failed_ranks}
    if not failed <= set(range(nranks)):
        raise ValueError(f"failed ranks {sorted(failed)} outside 0..{nranks - 1}")
    survivors = [r for r in range(nranks) if r not in failed]
    if not survivors:
        raise ValueError("no surviving ranks to shrink onto")
    out = np.empty(len(survivors) + 1, np.int64)
    out[0] = splits[0]
    # survivor i > 0 keeps its own range start; everything between the
    # previous survivor's end and here (failed ranges) merges backwards
    for i, r in enumerate(survivors[1:], start=1):
        out[i] = splits[r]
    out[-1] = splits[-1]
    return out
