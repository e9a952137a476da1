"""End-to-end property tests: random geometries through the full
carve → balance → nodes → operators pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Domain, assemble, build_mesh
from repro.core.balance import is_balanced
from repro.core.matvec import MapBasedMatVec, traversal_matvec
from repro.core.treesort import is_sorted_linear
from repro.geometry import BoxCarve, CarveUnion, SphereCarve


def _random_domain(rng, dim):
    parts = []
    n_obj = rng.integers(1, 4)
    for _ in range(n_obj):
        kind = rng.integers(0, 2)
        if kind == 0:
            c = rng.uniform(0.25, 0.75, dim)
            parts.append(SphereCarve(c, rng.uniform(0.05, 0.2)))
        else:
            lo = rng.uniform(0.1, 0.6, dim)
            hi = lo + rng.uniform(0.1, 0.3, dim)
            parts.append(BoxCarve(lo, np.minimum(hi, 0.9)))
    return Domain(CarveUnion(parts))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_random_geometry_pipeline_2d(seed):
    rng = np.random.default_rng(seed)
    dom = _random_domain(rng, 2)
    mesh = build_mesh(dom, 2, 5, p=1)
    # structural invariants
    assert is_sorted_linear(mesh.leaves)
    assert is_balanced(mesh.leaves)
    assert mesh.n_nodes > 0
    # operator invariants
    A = assemble(mesh)
    assert abs(A - A.T).max() < 1e-12
    assert np.abs(A @ np.ones(mesh.n_nodes)).max() < 1e-9
    u = rng.standard_normal(mesh.n_nodes)
    assert np.allclose(MapBasedMatVec(mesh)(u), A @ u, atol=1e-10)
    # energy positivity on the non-constant part
    v = u - u.mean()
    assert v @ (A @ v) >= -1e-10


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_random_geometry_traversal_equivalence_3d(seed):
    rng = np.random.default_rng(seed)
    dom = _random_domain(rng, 3)
    mesh = build_mesh(dom, 2, 3, p=1)
    u = rng.standard_normal(mesh.n_nodes)
    y_map = MapBasedMatVec(mesh)(u)
    y_trav = traversal_matvec(mesh, u)
    assert np.allclose(y_trav, y_map, atol=1e-11)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_random_geometry_volume_consistency(seed):
    """1' M 1 equals the summed voxel volume for any random carving."""
    rng = np.random.default_rng(seed)
    dom = _random_domain(rng, 2)
    mesh = build_mesh(dom, 3, 4, p=1)
    M = assemble(mesh, kind="mass")
    ones = np.ones(mesh.n_nodes)
    assert ones @ (M @ ones) == pytest.approx(
        float(np.sum(mesh.element_sizes() ** 2)), rel=1e-12
    )


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nranks=st.integers(2, 9))
def test_random_geometry_distributed_consistency(seed, nranks):
    from repro.parallel import SimComm, analyze_partition, distributed_matvec, partition_mesh

    rng = np.random.default_rng(seed)
    dom = _random_domain(rng, 2)
    mesh = build_mesh(dom, 2, 4, p=1)
    u = rng.standard_normal(mesh.n_nodes)
    layout = analyze_partition(mesh, partition_mesh(mesh, nranks))
    dist = distributed_matvec(mesh, layout, u, SimComm(nranks))
    assert np.allclose(dist, MapBasedMatVec(mesh)(u), atol=1e-10)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nranks=st.integers(2, 9),
       p=st.integers(1, 2))
def test_random_geometry_distributed_is_the_compiled_apply(seed, nranks, p):
    """1 rank reproduces the serial compiled apply bit for bit, k ranks
    to 1e-14 relative, on a generated 3-D carve."""
    from repro.parallel import SimComm, analyze_partition, distributed_matvec, partition_mesh

    rng = np.random.default_rng(seed)
    mesh = build_mesh(_random_domain(rng, 3), 2, 3, p=p)
    u = rng.standard_normal(mesh.n_nodes)
    serial = traversal_matvec(mesh, u)
    for k in (1, nranks):
        layout = analyze_partition(mesh, partition_mesh(mesh, k))
        dist = distributed_matvec(mesh, layout, u, SimComm(k))
        if k == 1:
            assert np.array_equal(dist, serial)
        else:
            assert np.abs(dist - serial).max() <= 1e-14 * np.abs(serial).max()
