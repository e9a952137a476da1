"""Tests for the geometric predicates (repro.geometry.primitives)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    BoxCarve,
    BoxRetain,
    CapsuleCarve,
    CarveUnion,
    RegionLabel,
    SphereCarve,
    SphereRetain,
)
from repro.geometry.predicate import EverywhereRetained


def _cells(rng, n, dim, size=0.1):
    lo = rng.uniform(0, 1 - size, (n, dim))
    return lo, lo + rng.uniform(0.01, size, (n, dim))


def test_sphere_carve_classification():
    s = SphereCarve([0.5, 0.5], 0.25)
    lo = np.array([[0.45, 0.45], [0.0, 0.0], [0.2, 0.45]])
    hi = np.array([[0.55, 0.55], [0.1, 0.1], [0.3, 0.55]])
    lab = s.classify_cells(lo, hi)
    assert lab[0] == RegionLabel.CARVED          # cell inside ball
    assert lab[1] == RegionLabel.RETAIN_INTERNAL  # far corner cell
    assert lab[2] == RegionLabel.RETAIN_BOUNDARY  # straddles the circle


def test_sphere_carve_points_closed():
    s = SphereCarve([0.0, 0.0], 1.0)
    pts = np.array([[1.0, 0.0], [0.999, 0.0], [1.001, 0.0]])
    c = s.carved_points(pts)
    assert list(c) == [True, True, False]  # boundary point is carved


def test_sphere_retain_is_complement():
    inner = SphereRetain([0.5, 0.5], 0.25)
    pts = np.array([[0.5, 0.5], [0.5, 0.74], [0.5, 0.76], [0.5, 0.75]])
    c = inner.carved_points(pts)
    assert list(c) == [False, False, True, True]  # boundary carved


def test_sphere_projection_on_circle():
    s = SphereCarve([0.5, 0.5], 0.25)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, (50, 2))
    proj = s.boundary_projection(pts)
    r = np.linalg.norm(proj - 0.5, axis=1)
    assert np.allclose(r, 0.25)


def test_box_carve_exact():
    b = BoxCarve([0.2, 0.2], [0.6, 0.4])
    lo = np.array([[0.3, 0.25], [0.0, 0.0], [0.1, 0.1]])
    hi = np.array([[0.4, 0.35], [0.1, 0.1], [0.3, 0.3]])
    lab = b.classify_cells(lo, hi)
    assert lab[0] == RegionLabel.CARVED
    assert lab[1] == RegionLabel.RETAIN_INTERNAL
    assert lab[2] == RegionLabel.RETAIN_BOUNDARY


def test_box_carve_signed_distance_sign():
    b = BoxCarve([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    pts = np.array([[0.5, 0.5, 0.5], [2.0, 0.5, 0.5]])
    d = b.boundary_distance(pts)
    assert d[0] > 0 and d[1] < 0
    assert d[0] == pytest.approx(0.5)
    assert d[1] == pytest.approx(-1.0)


def test_box_retain_channel_semantics():
    ch = BoxRetain([0, 0], [4, 1], domain=([0, 0], [4, 4]))
    # inlet/outlet faces flush with the domain cube are NOT carved
    pts = np.array([[0.0, 0.5], [4.0, 0.5], [2.0, 1.0], [2.0, 1.5]])
    c = ch.carved_points(pts)
    assert list(c) == [False, False, True, True]


def test_box_retain_rejects_nothing_without_domain():
    ch = BoxRetain([0, 0], [4, 1])
    assert ch.carved_points(np.array([[0.0, 0.5]]))[0]  # x=0 face carved


def test_capsule_carve():
    cap = CapsuleCarve([0.5, 0.5, 0.2], [0.5, 0.5, 0.8], 0.1)
    pts = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.05], [0.59, 0.5, 0.2]])
    c = cap.carved_points(pts)
    assert list(c) == [True, False, True]


def test_carve_union():
    u = CarveUnion([SphereCarve([0.25, 0.5], 0.1), SphereCarve([0.75, 0.5], 0.1)])
    pts = np.array([[0.25, 0.5], [0.75, 0.5], [0.5, 0.5]])
    assert list(u.carved_points(pts)) == [True, True, False]
    lab = u.classify_cells(
        np.array([[0.2, 0.45], [0.45, 0.45]]), np.array([[0.3, 0.55], [0.55, 0.55]])
    )
    assert lab[0] != RegionLabel.RETAIN_INTERNAL
    assert lab[1] == RegionLabel.RETAIN_INTERNAL


def test_carve_union_empty_raises():
    with pytest.raises(ValueError):
        CarveUnion([])


def test_carve_union_distance_is_max():
    a = SphereCarve([0.3, 0.5], 0.1)
    b = SphereCarve([0.7, 0.5], 0.2)
    u = CarveUnion([a, b])
    pts = np.array([[0.7, 0.5]])
    assert u.boundary_distance(pts)[0] == pytest.approx(0.2)


def test_everywhere_retained():
    e = EverywhereRetained(3)
    lo, hi = _cells(np.random.default_rng(0), 10, 3)
    assert np.all(e.classify_cells(lo, hi) == RegionLabel.RETAIN_INTERNAL)
    assert not e.carved_points(lo).any()


@settings(max_examples=30)
@given(seed=st.integers(0, 2**31 - 1))
def test_classification_consistency_property(seed):
    """Conservative-exactness: a cell labelled CARVED has all its
    sampled points carved; RETAIN_INTERNAL has none."""
    rng = np.random.default_rng(seed)
    preds = [
        SphereCarve(rng.uniform(0.3, 0.7, 2), rng.uniform(0.1, 0.3)),
        BoxCarve([0.2, 0.3], [0.7, 0.8]),
        CapsuleCarve(rng.uniform(0.2, 0.8, 2), rng.uniform(0.2, 0.8, 2),
                     rng.uniform(0.05, 0.2)),
    ]
    lo, hi = _cells(rng, 20, 2)
    for p in preds:
        lab = p.classify_cells(lo, hi)
        for i in range(len(lo)):
            samples = lo[i] + rng.uniform(0, 1, (20, 2)) * (hi[i] - lo[i])
            carved = p.carved_points(samples)
            if lab[i] == RegionLabel.CARVED:
                assert carved.all()
            elif lab[i] == RegionLabel.RETAIN_INTERNAL:
                assert not carved.any()
