"""Tests for TreeSort, linearisation, and duplicate removal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.octant import OctantSet, children, max_level
from repro.core.sfc import cached_keys
from repro.core.treesort import (
    block_ends,
    remove_duplicates,
    tree_sort,
    tree_sort_msd,
)

from .oracles.treesort import linearize


def is_sorted_linear(oset: OctantSet, curve: str = "morton") -> bool:
    """True if the set is SFC-sorted, duplicate-free and overlap-free."""
    keys = cached_keys(oset, curve)
    if len(oset) <= 1:
        return True
    if not np.all(keys[:-1] <= keys[1:]):
        return False
    ends = block_ends(keys, oset.levels, oset.dim)
    return bool(np.all(keys[1:] >= ends[:-1]))


def _random_octants(rng, dim, n, max_lv=6):
    m = max_level(dim)
    levels = rng.integers(1, max_lv + 1, n)
    anchors = np.empty((n, dim), np.uint32)
    for i, lv in enumerate(levels):
        size = 1 << (m - lv)
        anchors[i] = rng.integers(0, 1 << lv, dim) * size
    return OctantSet(anchors, levels.astype(np.uint8), dim)


@pytest.mark.parametrize("curve", ["morton", "hilbert"])
@pytest.mark.parametrize("dim", [2, 3])
def test_msd_matches_keysort(curve, dim):
    rng = np.random.default_rng(7)
    o = _random_octants(rng, dim, 200)
    a, _ = tree_sort(o, curve)
    b = tree_sort_msd(o, curve)
    assert np.array_equal(a.anchors, b.anchors)
    assert np.array_equal(a.levels, b.levels)


def test_tree_sort_permutation_valid():
    rng = np.random.default_rng(3)
    o = _random_octants(rng, 2, 50)
    s, order = tree_sort(o)
    assert np.array_equal(s.anchors, o.anchors[order])
    assert sorted(order) == list(range(50))


def test_remove_duplicates():
    rng = np.random.default_rng(1)
    o = _random_octants(rng, 2, 30)
    dup = OctantSet.concatenate([o, o, o])
    u = remove_duplicates(dup)
    s, _ = tree_sort(o)
    su = remove_duplicates(s, assume_sorted=True)
    assert len(u) == len(su)
    # all duplicates gone: pairwise distinct
    keys = [tuple(a) + (l,) for a, l in zip(u.anchors, u.levels)]
    assert len(set(keys)) == len(keys)


def test_linearize_prefer_finer():
    r = OctantSet.root(2)
    ch = children(r)
    both = OctantSet.concatenate([r, ch])
    lin = linearize(both, prefer="finer")
    assert len(lin) == 4
    assert np.all(lin.levels == 1)


def test_linearize_prefer_coarser():
    r = OctantSet.root(2)
    ch = children(r)
    both = OctantSet.concatenate([r, ch])
    lin = linearize(both, prefer="coarser")
    assert len(lin) == 1
    assert lin.levels[0] == 0


def test_linearize_rejects_bad_prefer():
    with pytest.raises(ValueError):
        linearize(OctantSet.root(2), prefer="middle")


def test_linearize_multilevel_chain():
    """ancestor chains of depth > 1 resolve in one pass."""
    r = OctantSet.root(2)
    ch = children(r)
    gch = children(ch[0])
    mix = OctantSet.concatenate([r, ch[0], gch])
    fin = linearize(mix, prefer="finer")
    assert is_sorted_linear(fin)
    assert fin.levels.max() == 2 and fin.levels.min() == 2
    co = linearize(mix, prefer="coarser")
    assert len(co) == 1 and co.levels[0] == 0


def test_is_sorted_linear_detects_overlap():
    r = OctantSet.root(2)
    ch = children(r)
    both, _ = tree_sort(OctantSet.concatenate([r, ch]))
    assert not is_sorted_linear(both)
    assert is_sorted_linear(ch)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_linearize_produces_linear_octree(seed):
    rng = np.random.default_rng(seed)
    o = _random_octants(rng, 2, 100)
    lin = linearize(o)
    assert is_sorted_linear(lin)
    # prefer='finer' keeps every finest representative: no input octant
    # is strictly finer than everything that survived in its block
    assert len(lin) >= 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_linearize_coarser_covers_all_inputs(seed):
    """Every input octant is covered by some kept octant."""
    rng = np.random.default_rng(seed)
    o = _random_octants(rng, 2, 60)
    lin = linearize(o, prefer="coarser")
    # each input is a descendant-or-equal of a kept octant: one kept
    # octant no finer than it has a block holding its anchor
    size = np.int64(1) << (max_level(2) - lin.levels.astype(np.int64))
    lo = lin.anchors.astype(np.int64)
    for i in range(len(o)):
        a = o.anchors[i].astype(np.int64)
        inside = np.all((a >= lo) & (a < lo + size[:, None]), axis=1)
        assert (inside & (lin.levels <= o.levels[i])).any()
