"""Unit tests for octant algebra (repro.core.octant)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.octant import (
    OctantSet,
    children,
    max_level,
    neighbors,
    octant_size,
    parent,
)

from .oracles.octant import contains


def test_max_level_by_dim():
    assert max_level(2) == 30
    assert max_level(3) == 21
    assert max_level(4) == 15


def test_max_level_invalid_dim():
    with pytest.raises(ValueError):
        max_level(0)


def test_octant_size_scalar_and_array():
    assert octant_size(0, 3) == 1 << 21
    assert octant_size(21, 3) == 1
    sizes = octant_size(np.array([0, 1, 2]), 2)
    assert list(sizes) == [1 << 30, 1 << 29, 1 << 28]


def test_octant_size_rejects_bad_levels():
    with pytest.raises(ValueError):
        octant_size(31, 2)
    with pytest.raises(ValueError):
        octant_size(-1, 2)


def test_root_and_empty():
    r = OctantSet.root(3)
    assert len(r) == 1
    assert r.levels[0] == 0
    assert np.all(r.anchors == 0)
    e = OctantSet.empty(3)
    assert len(e) == 0


def test_shape_validation():
    with pytest.raises(ValueError):
        OctantSet(np.zeros((3, 2), np.uint32), np.zeros(2, np.uint8))


def test_children_count_and_levels():
    r = OctantSet.root(2)
    ch = children(r)
    assert len(ch) == 4
    assert np.all(ch.levels == 1)
    # anchors are the 4 quadrant corners
    half = np.uint32(1 << 29)
    expect = {(0, 0), (int(half), 0), (0, int(half)), (int(half), int(half))}
    got = {tuple(map(int, a)) for a in ch.anchors}
    assert got == expect


def test_children_3d_count():
    ch = children(OctantSet.root(3))
    assert len(ch) == 8
    assert len({tuple(map(int, a)) for a in ch.anchors}) == 8


def test_children_at_max_level_raises():
    m = max_level(2)
    o = OctantSet(np.zeros((1, 2), np.uint32), np.array([m], np.uint8))
    with pytest.raises(ValueError):
        children(o)


def test_parent_of_children_is_self():
    r = OctantSet.root(3)
    ch = children(r)
    gch = children(ch)
    back = parent(gch)
    # grandchildren's parents are the children, repeated 8x
    expect_anchors = np.repeat(ch.anchors, 8, axis=0)
    assert np.array_equal(back.anchors, expect_anchors)
    assert np.all(back.levels == 1)


def test_parent_of_root_is_root():
    pr = parent(OctantSet.root(2))
    assert pr.levels[0] == 0
    assert np.all(pr.anchors == 0)


def test_neighbors_of_corner_octant():
    ch = children(OctantSet.root(2))
    corner = ch[0]  # anchor (0,0): only 3 of 8 neighbours are in-domain
    nb = neighbors(corner)
    assert len(nb) == 3


def test_neighbors_interior_full_count():
    # an interior level-2 octant has all 3^d-1 neighbours
    m = max_level(2)
    s = 1 << (m - 2)
    o = OctantSet(np.array([[s, s]], np.uint32), np.array([2], np.uint8))
    assert len(neighbors(o)) == 8
    assert len(neighbors(o, include_self=True)) == 9


def test_contains_closed():
    r = OctantSet.root(2)
    m = max_level(2)
    pts = np.array([[0, 0], [1 << m, 1 << m], [1 << (m - 1), 5]])
    c = contains(r, pts)
    assert c.shape == (1, 3)
    assert c.all()  # closed containment includes the upper corner


def test_physical_bounds_isotropic():
    ch = children(OctantSet.root(3))
    lo, hi = ch.physical_bounds(2.0)
    assert np.allclose(hi - lo, 1.0)  # half of scale=2
    assert lo.min() == 0.0 and hi.max() == 2.0


@settings(max_examples=50)
@given(
    dim=st.integers(2, 3),
    level=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_parent_child_roundtrip_property(dim, level, seed):
    """children(parent) always covers the original octant."""
    rng = np.random.default_rng(seed)
    m = max_level(dim)
    size = 1 << (m - level)
    anchors = (rng.integers(0, 1 << level, (5, dim)) * size).astype(np.uint32)
    o = OctantSet(anchors, np.full(5, level, np.uint8))
    p = parent(o)
    ch = children(p)
    # each original octant equals one of its parent's children
    for i in range(5):
        kid_anchors = ch.anchors[i * (1 << dim) : (i + 1) * (1 << dim)]
        assert any(np.array_equal(o.anchors[i], k) for k in kid_anchors)
