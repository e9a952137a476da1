"""Tests for Algorithm 3: distributed construction on the simulated MPI."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import (
    balance_2to1,
    bottom_up_constrain_neighbors,
    is_balanced,
)
from repro.core.construct import construct_adaptive, construct_constrained
from repro.core.domain import Domain
from repro.core.octant import OctantSet, max_level
from repro.core.sfc import get_curve
from repro.core.treesort import remove_duplicates, tree_sort
from repro.geometry import SphereCarve
from repro.parallel import SimComm

from .oracles.distributed import dist_tree_sort, distributed_construct_constrained
from .test_treesort import is_sorted_linear


def _random_seeds(rng, n, dim=2, levels=(2, 6)):
    m = max_level(dim)
    lv = rng.integers(levels[0], levels[1], n)
    anchors = np.empty((n, dim), np.uint32)
    for i, l in enumerate(lv):
        anchors[i] = rng.integers(0, 1 << l, dim) * (1 << (m - l))
    return OctantSet(anchors, lv.astype(np.uint8), dim)


def gather_global(parts: list[OctantSet], curve: str = "morton") -> OctantSet:
    """Concatenate per-rank octants into one deduplicated global set."""
    merged = OctantSet.concatenate([p for p in parts if len(p)])
    return remove_duplicates(merged, get_curve(curve))


def _scatter(oset, nranks, rng):
    owner = rng.integers(0, nranks, len(oset))
    return [oset[np.flatnonzero(owner == r)] for r in range(nranks)]


def test_dist_tree_sort_global_order():
    rng = np.random.default_rng(0)
    seeds = _random_seeds(rng, 40)
    comm = SimComm(4)
    parts = dist_tree_sort(_scatter(seeds, 4, rng), comm)
    merged = OctantSet.concatenate([p for p in parts if len(p)])
    ref, _ = tree_sort(seeds)
    assert np.array_equal(merged.anchors, ref.anchors)
    assert np.array_equal(merged.levels, ref.levels)
    # rank ranges are globally ordered
    keys = [get_curve("morton").keys(p) for p in parts if len(p)]
    for a, b in zip(keys[:-1], keys[1:]):
        assert a[-1] <= b[0]


def test_dist_tree_sort_counts_traffic():
    rng = np.random.default_rng(1)
    seeds = _random_seeds(rng, 60)
    comm = SimComm(4)
    dist_tree_sort(_scatter(seeds, 4, rng), comm)
    assert comm.counters.total_bytes() > 0
    assert comm.counters.collectives >= 2


@pytest.mark.parametrize("nranks", [2, 4, 7])
def test_distributed_construct_matches_serial(nranks):
    rng = np.random.default_rng(nranks)
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    seeds = _random_seeds(rng, 20)
    comm = SimComm(nranks)
    parts = distributed_construct_constrained(
        dom, _scatter(seeds, nranks, rng), comm
    )
    glob = gather_global(parts)
    ref = construct_constrained(dom, seeds)
    assert np.array_equal(glob.anchors, ref.anchors)
    assert np.array_equal(glob.levels, ref.levels)
    assert is_sorted_linear(glob)


def test_distributed_balance_matches_serial():
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    raw = construct_adaptive(dom, 2, 6)
    rng = np.random.default_rng(2)
    comm = SimComm(4)
    # Algorithm 4, distributed: each rank propagates its neighbour-of-
    # parent seeds; the constrained construction merges them globally
    aux = [bottom_up_constrain_neighbors(p) if len(p) else p
           for p in _scatter(raw, 4, rng)]
    parts = distributed_construct_constrained(dom, aux, comm)
    glob = gather_global(parts)
    ref = balance_2to1(dom, raw)
    assert np.array_equal(glob.anchors, ref.anchors)
    assert is_balanced(glob)


def test_distributed_construct_empty_ranks_ok():
    """Ranks holding no seeds must not break the pipeline."""
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    rng = np.random.default_rng(3)
    seeds = _random_seeds(rng, 6)
    comm = SimComm(4)
    parts = [seeds, OctantSet.empty(2), OctantSet.empty(2), OctantSet.empty(2)]
    out = distributed_construct_constrained(dom, parts, comm)
    glob = gather_global(out)
    ref = construct_constrained(dom, seeds)
    assert np.array_equal(glob.anchors, ref.anchors)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_distributed_construct_property(seed):
    """Distributed == serial for random seed scatters (3D too)."""
    rng = np.random.default_rng(seed)
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.3))
    seeds = _random_seeds(rng, 10, dim=3, levels=(1, 4))
    comm = SimComm(3)
    parts = distributed_construct_constrained(dom, _scatter(seeds, 3, rng), comm)
    glob = gather_global(parts)
    ref = construct_constrained(dom, seeds)
    assert np.array_equal(glob.anchors, ref.anchors)
    assert np.array_equal(glob.levels, ref.levels)
