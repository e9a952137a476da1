"""Tests for the SFC oracles (Morton and Hilbert)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain
from repro.core.construct import construct_uniform
from repro.core.octant import OctantSet, max_level
from repro.core.sfc import HilbertOrder, MortonOrder, cached_keys, get_curve


def test_get_curve_resolution():
    assert get_curve("morton").name == "morton"
    assert get_curve("hilbert").name == "hilbert"
    mo = MortonOrder()
    assert get_curve(mo) is mo
    with pytest.raises(ValueError):
        get_curve("peano")


def test_morton_keys_2d_level1():
    m = max_level(2)
    h = np.uint32(1 << (m - 1))
    anchors = np.array([[0, 0], [h, 0], [0, h], [h, h]], np.uint32)
    o = OctantSet(anchors, np.ones(4, np.uint8))
    keys = MortonOrder().keys(o)
    # Morton order: (0,0) < (1,0) < (0,1) < (1,1) with x as bit 0
    assert list(np.argsort(keys)) == [0, 1, 2, 3]


def test_hilbert_keys_2d_level1_classic_order():
    m = max_level(2)
    h = np.uint32(1 << (m - 1))
    anchors = np.array([[0, 0], [h, 0], [0, h], [h, h]], np.uint32)
    o = OctantSet(anchors, np.ones(4, np.uint8))
    keys = HilbertOrder().keys(o)
    order = list(np.argsort(keys))
    # classic U-shaped first-order Hilbert curve: a path through the 4
    # quadrants where consecutive quadrants share an edge
    seq = anchors[order].astype(np.int64)
    steps = np.abs(np.diff(seq, axis=0)).sum(axis=1)
    assert np.all(steps == int(h))


@pytest.mark.parametrize("dim", [2, 3])
def test_hilbert_full_grid_is_hamiltonian_path(dim):
    """Consecutive cells along the Hilbert curve are face-adjacent."""
    level = 4 if dim == 2 else 3
    t = construct_uniform(Domain(dim=dim), level, curve="hilbert")
    anch = t.anchors.astype(np.int64)
    size = int(t.sizes[0])
    d = np.abs(np.diff(anch, axis=0))
    # exactly one coordinate changes, by exactly one cell size
    assert np.all(d.sum(axis=1) == size)
    assert np.all((d != 0).sum(axis=1) == 1)


@pytest.mark.parametrize("curve", ["morton", "hilbert"])
@pytest.mark.parametrize("dim", [2, 3])
def test_keys_unique_on_uniform_grid(curve, dim):
    t = construct_uniform(Domain(dim=dim), 3, curve=curve)
    keys = get_curve(curve).keys(t)
    assert len(np.unique(keys)) == len(keys)


def test_octant_key_block_alignment():
    """An octant's key equals the min key over its descendants."""
    dom = Domain(dim=2)
    coarse = construct_uniform(dom, 2, curve="hilbert")
    fine = construct_uniform(dom, 5, curve="hilbert")
    hc = get_curve("hilbert")
    ck, fk = hc.keys(coarse), hc.keys(fine)
    span = np.uint64(1) << np.uint64(2 * (max_level(2) - 2))
    for i in range(len(coarse)):
        inside = (fk >= ck[i]) & (fk < ck[i] + span)
        # the octant's block contains exactly its 2^(2*3) descendants
        assert inside.sum() == 8**2
        assert fk[inside].min() == ck[i]


def test_ancestor_sorts_before_descendants():
    dom = Domain(dim=2)
    coarse = construct_uniform(dom, 1)
    fine = construct_uniform(dom, 3)
    both = OctantSet.concatenate([coarse, fine])
    order = np.lexsort((both.levels, cached_keys(both, "morton")))
    s = both[order]
    # the first octant must be the level-1 ancestor at the origin
    assert s.levels[0] == 1
    assert np.all(s.anchors[0] == 0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 3))
def test_hilbert_key_injective_random(seed, dim):
    rng = np.random.default_rng(seed)
    m = max_level(dim)
    pts = rng.integers(0, 1 << m, (64, dim), dtype=np.uint64).astype(np.uint32)
    pts = np.unique(pts, axis=0)
    keys = HilbertOrder().keys_from_coords(pts, dim)
    assert len(np.unique(keys)) == len(pts)
