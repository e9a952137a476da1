"""Tests for incomplete-octree construction (Algorithms 1-2)."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import (
    construct_adaptive,
    construct_constrained,
    construct_uniform,
)
from repro.core.domain import Domain
from repro.core.mesh import build_mesh
from repro.core.octant import OctantSet, max_level, octant_size
from repro.geometry.predicate import RegionLabel
from repro.geometry.primitives import BoxRetain, SphereCarve, SphereRetain

from .oracles.construct import construct_constrained_recursive
from .test_treesort import is_sorted_linear


def test_uniform_complete_counts():
    dom = Domain(dim=2)
    for lv in range(5):
        t = construct_uniform(dom, lv)
        assert len(t) == 4**lv
        assert is_sorted_linear(t)


def test_uniform_3d_counts():
    dom = Domain(dim=3)
    assert len(construct_uniform(dom, 2)) == 64


def test_uniform_level_out_of_range():
    with pytest.raises(ValueError):
        construct_uniform(Domain(dim=2), 99)


def test_carved_sphere_removes_interior():
    """Carving a disk removes cells fully inside it."""
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    t = construct_uniform(dom, 5)
    full = 4**5
    assert len(t) < full
    # removed area ~ pi r^2 fraction of cells
    removed = full - len(t)
    assert removed > 0.5 * np.pi * 0.3**2 * full


def test_carved_cells_never_in_output():
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    t = construct_uniform(dom, 5)
    labels = dom.classify_octants(t)
    assert not np.any(labels == RegionLabel.CARVED)


def test_retained_disk_covers_disk_only():
    dom = Domain(SphereRetain([0.5, 0.5], 0.25))
    t = construct_uniform(dom, 5)
    centers = dom.octant_centers(t)
    # every retained cell must intersect the closed disk: its centre is
    # within radius + half cell diagonal
    h = octant_size(5, 2) * dom.h_unit
    d = np.linalg.norm(centers - 0.5, axis=1)
    assert np.all(d <= 0.25 + h * np.sqrt(2) / 2 + 1e-12)


def test_channel_retain_box():
    dom = Domain(BoxRetain([0, 0], [4, 1], domain=([0, 0], [4, 4])), scale=4.0)
    t = construct_uniform(dom, 4)
    assert len(t) == 16 * 4  # 16 x 4 cells of size 1/4


def test_adaptive_refines_boundary_only():
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    t = construct_adaptive(dom, 3, 6)
    labels = dom.classify_octants(t)
    bdry = labels == RegionLabel.RETAIN_BOUNDARY
    assert np.all(t.levels[bdry] == 6)
    assert np.all(t.levels[~bdry] >= 3)
    assert t.levels.min() == 3


def test_adaptive_rejects_inverted_levels():
    with pytest.raises(ValueError):
        construct_adaptive(Domain(dim=2), 5, 3)


# -- inputs the construction cannot build: refused by name, before any work


def _refused_fast(match, build):
    """``build()`` raises a ``ValueError`` matching ``match`` within 1 s
    (the unchecked inputs built wrong meshes, or ran for minutes)."""
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        build()
    assert time.perf_counter() - t0 < 1.0


_SPHERE = SphereCarve([0.5, 0.5, 0.5], 0.3)


def test_negative_base_level_is_refused():
    _refused_fast(r"^base_level out of range: -1",
                  lambda: build_mesh(Domain(_SPHERE), -1, 3))


def test_fractional_base_level_is_refused():
    _refused_fast(r"^base_level must be an integer, got 2\.5",
                  lambda: build_mesh(Domain(_SPHERE), 2.5, 3))


def test_base_level_past_the_deepest_level_is_refused():
    _refused_fast(rf"^base_level out of range: 30 \(0\.\.{max_level(3)}\)",
                  lambda: build_mesh(Domain(_SPHERE), 30, 30))


def test_boundary_level_past_the_deepest_level_is_refused():
    _refused_fast(r"^boundary_level out of range: 22",
                  lambda: construct_adaptive(Domain(_SPHERE), 2, 22))


def test_nan_sphere_radius_is_refused():
    _refused_fast(r"^radius must be positive and finite, got nan",
                  lambda: SphereCarve([0.5, 0.5, 0.5], float("nan")))


def test_non_finite_sphere_centre_is_refused():
    for centre in ([0.5, float("nan"), 0.5], [float("inf"), 0.5]):
        _refused_fast(r"^center must be finite",
                      lambda: SphereCarve(centre, 0.3))


def test_adaptive_return_labels():
    dom = Domain(SphereCarve([0.5, 0.5], 0.25))
    t, lab = construct_adaptive(dom, 3, 5, return_labels=True)
    assert len(lab) == len(t)
    assert np.array_equal(lab, dom.classify_octants(t))


def test_adaptive_extra_refine():
    dom = Domain(dim=2)

    def near_origin(frontier, labels):
        lo, hi = frontier.physical_bounds(1.0)
        want = np.where(np.all(lo < 0.25, axis=1), 5, 0)
        return want

    t = construct_adaptive(dom, 2, 2, extra_refine=near_origin)
    lo, _ = t.physical_bounds(1.0)
    near = np.all(lo < 0.2, axis=1)
    assert t.levels[near].max() == 5


def test_constrained_no_coarser_than_seeds():
    dom = Domain(dim=2)
    m = max_level(2)
    size = 1 << (m - 4)
    seeds = OctantSet(
        np.array([[0, 0], [3 * size, 2 * size]], np.uint32),
        np.array([4, 4], np.uint8),
    )
    t = construct_constrained(dom, seeds)
    assert is_sorted_linear(t)
    # the leaf covering each seed anchor must be at level >= 4
    from repro.core.sfc import get_curve

    keys = get_curve("morton").keys(t)
    skeys = get_curve("morton").keys(seeds)
    pos = np.searchsorted(keys, skeys, side="right") - 1
    assert np.all(t.levels[pos] >= 4)


def test_constrained_empty_seeds_gives_root_cover():
    dom = Domain(dim=2)
    t = construct_constrained(dom, OctantSet.empty(2))
    assert len(t) == 1 and t.levels[0] == 0


def test_constrained_seed_dim_mismatch():
    with pytest.raises(ValueError):
        construct_constrained(Domain(dim=2), OctantSet.root(3))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_constrained_matches_recursive_reference(seed):
    """Vectorised frontier driver == faithful Algorithm-2 recursion."""
    rng = np.random.default_rng(seed)
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    m = max_level(2)
    n = 8
    levels = rng.integers(2, 6, n)
    anchors = np.empty((n, 2), np.uint32)
    for i, lv in enumerate(levels):
        size = 1 << (m - lv)
        anchors[i] = rng.integers(0, 1 << lv, 2) * size
    seeds = OctantSet(anchors, levels.astype(np.uint8))
    a = construct_constrained(dom, seeds)
    b = construct_constrained_recursive(dom, seeds)
    assert np.array_equal(a.anchors, b.anchors)
    assert np.array_equal(a.levels, b.levels)


def test_output_covers_subdomain_exactly():
    """Union of leaf areas equals the area of retained cells at the
    finest uniform refinement (no gaps, no overlaps)."""
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    adaptive = construct_adaptive(dom, 2, 5)
    fine = construct_uniform(dom, 5)
    area = lambda t: float(np.sum((t.sizes.astype(np.float64) * dom.h_unit) ** 2))
    assert area(adaptive) == pytest.approx(area(fine), rel=1e-12)
