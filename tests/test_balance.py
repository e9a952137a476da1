"""Tests for 2:1 balancing (Algorithms 4-5)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import (
    balance_2to1,
    bottom_up_constrain_neighbors,
    find_balance_violations,
    is_balanced,
)
from repro.core.construct import construct_adaptive, construct_uniform
from repro.core.domain import Domain
from repro.core.octant import OctantSet, max_level
from repro.geometry.primitives import SphereCarve, SphereRetain

from .test_treesort import is_sorted_linear


def _point_seed(dim, level, cell_index):
    m = max_level(dim)
    size = 1 << (m - level)
    anchor = (np.asarray(cell_index, np.uint32) * size).astype(np.uint32)
    return OctantSet(anchor[None, :], np.array([level], np.uint8), dim)


def test_unbalanced_seed_creates_violation_free_tree():
    """A single deep seed in a coarse tree forces a graded cascade."""
    dom = Domain(dim=2)
    seed = _point_seed(2, 6, [0, 0])
    t = balance_2to1(dom, seed)
    assert is_sorted_linear(t)
    assert is_balanced(t)
    assert t.levels.max() == 6
    # grading forces strictly more leaves than the 4 of a level-1 cover
    assert len(t) > 4


def test_uniform_tree_already_balanced():
    dom = Domain(dim=2)
    t = construct_uniform(dom, 4)
    assert is_balanced(t)
    t2 = balance_2to1(dom, t)
    assert len(t2) == len(t)


def test_violation_detector_catches_imbalance():
    """A 4:1 interface across the x-midline is flagged."""
    dom = Domain(dim=2)
    # a level-4 cell hugging the x-midline from the left; the right half
    # stays a level-1 quadrant -> 3-level jump across the shared edge
    fine = _point_seed(2, 4, [7, 0])
    from repro.core.construct import construct_constrained

    t = construct_constrained(dom, fine)
    assert t.levels.max() - t.levels.min() >= 2
    assert len(find_balance_violations(t)) > 0
    # and balancing repairs it
    bal = balance_2to1(dom, fine)
    assert is_balanced(bal)


def test_balance_adaptive_carved_mesh():
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    raw = construct_adaptive(dom, 2, 6)
    bal = balance_2to1(dom, raw)
    assert is_balanced(bal)
    # balancing only refines: balanced count >= raw count
    assert len(bal) >= len(raw)


def test_balance_across_carved_region_3d():
    """Balance constraints propagate through carved regions (§3.3)."""
    dom = Domain(SphereCarve([0.5, 0.5, 0.5], 0.2))
    raw = construct_adaptive(dom, 1, 5)
    bal = balance_2to1(dom, raw)
    assert is_balanced(bal)


def test_bottom_up_seeds_include_parent_neighbors():
    seed = _point_seed(2, 3, [2, 2])
    aux = bottom_up_constrain_neighbors(seed)
    # must contain octants at every coarser level down to 1 or 0
    lv = set(int(x) for x in np.unique(aux.levels))
    assert {1, 2, 3}.issubset(lv)


def test_bottom_up_empty():
    e = OctantSet.empty(2)
    assert len(bottom_up_constrain_neighbors(e)) == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_balance_random_seeds_property(seed):
    """Random seed sets always yield 2:1-balanced covers."""
    rng = np.random.default_rng(seed)
    dom = Domain(SphereRetain([0.5, 0.5], 0.45))
    m = max_level(2)
    n = 6
    levels = rng.integers(2, 7, n)
    anchors = np.empty((n, 2), np.uint32)
    for i, lv in enumerate(levels):
        size = 1 << (m - lv)
        anchors[i] = rng.integers(0, 1 << lv, 2) * size
    seeds = OctantSet(anchors, levels.astype(np.uint8))
    bal = balance_2to1(dom, seeds)
    assert is_balanced(bal)
    assert is_sorted_linear(bal)
