"""Distributed octree construction (Algorithm 3) on the simulated MPI —
the differential oracle for serial
:func:`repro.core.construct.construct_constrained`.

DistTreeSort partitions SFC-sorted octants across virtual ranks with a
load tolerance; DistributedConstructConstrained lets every rank build a
tree satisfying its local seed constraints, re-sorts, and resolves
overlaps across rank boundaries preferring finer octants — so depth
constraints hold globally.  All inter-rank traffic flows through
:class:`~repro.parallel.simmpi.SimComm` and is therefore measured.
"""

from __future__ import annotations

import numpy as np

from repro.core.construct import construct_constrained
from repro.core.domain import Domain
from repro.core.octant import OctantSet
from repro.core.sfc import cached_keys, get_curve
from repro.core.treesort import block_ends, tree_sort
from repro.parallel.partition import partition_weights
from repro.parallel.simmpi import SimComm

from .collectives import allgather, alltoallv
from .treesort import linearize


def _pack(oset: OctantSet) -> np.ndarray:
    """Serialise an OctantSet into a (N, dim+1) int64 buffer."""
    return np.concatenate(
        [oset.anchors.astype(np.int64), oset.levels.astype(np.int64)[:, None]],
        axis=1,
    )


def _unpack(buf: np.ndarray | None, dim: int) -> OctantSet:
    if buf is None or len(buf) == 0:
        return OctantSet.empty(dim)
    return OctantSet(
        buf[:, :dim].astype(np.uint32), buf[:, dim].astype(np.uint8), dim
    )


def dist_tree_sort(
    parts: list[OctantSet],
    comm: SimComm,
    load_tol: float = 0.1,
    curve: str = "morton",
) -> list[OctantSet]:
    """Globally sort and repartition distributed octants (DistTreeSort).

    ``parts[r]`` is rank r's local octants; the result is SFC-sorted
    with rank ranges split at (tolerance-adjusted) weight boundaries.
    """
    oracle = get_curve(curve)
    dim = parts[0].dim
    nranks = comm.size
    # local sorts
    parts = [tree_sort(p, oracle)[0] for p in parts]
    # splitter selection: allgather per-rank key ranges + counts, then
    # every rank computes identical global splitters
    keys_per_rank = [cached_keys(p, oracle) for p in parts]
    counts = allgather(comm, [np.int64(len(p)) for p in parts])[0]
    all_keys = np.concatenate(keys_per_rank) if sum(counts) else np.zeros(0, np.uint64)
    all_levels = np.concatenate([p.levels for p in parts])
    order = np.lexsort((all_levels, all_keys))
    sorted_keys = all_keys[order]
    splits = partition_weights(
        np.ones(len(sorted_keys)), nranks, load_tol, keys=sorted_keys, dim=dim
    )
    splitter_keys = sorted_keys[np.clip(splits[1:-1], 0, max(len(sorted_keys) - 1, 0))]
    # route octants to destination ranks (alltoallv with traffic counts)
    send: list[list] = [[None] * nranks for _ in range(nranks)]
    for src in range(nranks):
        if len(parts[src]) == 0:
            continue
        dest = np.searchsorted(splitter_keys, keys_per_rank[src], side="right")
        for dst in range(nranks):
            sel = np.flatnonzero(dest == dst)
            if len(sel):
                send[src][dst] = _pack(parts[src][sel])
    recv = alltoallv(comm, send)
    out = []
    for r in range(nranks):
        bufs = [b for b in recv[r] if b is not None]
        merged = (
            OctantSet.concatenate([_unpack(b, dim) for b in bufs])
            if bufs
            else OctantSet.empty(dim)
        )
        out.append(tree_sort(merged, oracle)[0])
    return out


def distributed_construct_constrained(
    domain: Domain,
    seed_parts: list[OctantSet],
    comm: SimComm,
    load_tol: float = 0.1,
    curve: str = "morton",
) -> list[OctantSet]:
    """Algorithm 3: distributed leaves, no coarser than the seeds.

    Each rank constructs a tree satisfying its local constraints; after
    a global re-sort, duplicates are removed and overlaps across rank
    boundaries are resolved preferring finer octants.
    """
    oracle = get_curve(curve)
    dim = domain.dim
    seed_parts = dist_tree_sort(seed_parts, comm, load_tol, curve)
    tmp = [construct_constrained(domain, s, curve) for s in seed_parts]
    tmp = dist_tree_sort(tmp, comm, load_tol, curve)
    # local dedup + overlap resolution
    local = [linearize(t, oracle, prefer="finer") for t in tmp]
    # cross-boundary: an octant whose block extends past the next rank's
    # first key contains octants there -> drop it (finer wins). Exchange
    # the first key of each rank to its predecessor.
    firsts = [
        cached_keys(t, oracle)[0] if len(t) else np.uint64(0xFFFFFFFFFFFFFFFF)
        for t in local
    ]
    gathered = allgather(comm, [np.uint64(f) for f in firsts])[0]
    out = []
    for r in range(comm.size):
        t = local[r]
        if len(t) == 0 or r == comm.size - 1:
            out.append(t)
            continue
        nxt = np.uint64(min(int(g) for g in gathered[r + 1 :]))
        ends = block_ends(cached_keys(t, oracle), t.levels, dim)
        keep = ends <= nxt
        out.append(t[np.flatnonzero(keep)])
    return out
