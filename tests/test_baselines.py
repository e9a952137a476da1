"""Tests for the immersed and complete-octree baselines."""

import numpy as np
import pytest

from repro import Domain
from repro.baselines import (
    CompleteTreeReport,
    ImmersedPredicate,
    build_immersed_mesh,
    compare_carved_immersed,
    dendro_style_pipeline,
)
from repro.geometry import BoxRetain, RegionLabel, SphereCarve


@pytest.fixture(scope="module")
def sphere_domain():
    return Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)


def test_immersed_predicate_never_carves(sphere_domain):
    pred = ImmersedPredicate(sphere_domain.predicate)
    rng = np.random.default_rng(0)
    lo = rng.uniform(0, 9, (50, 3))
    hi = lo + rng.uniform(0.1, 1.0, (50, 3))
    lab = pred.classify_cells(lo, hi)
    assert not np.any(lab == RegionLabel.CARVED)
    # but points inside the object still report carved (the IN nodes)
    assert pred.carved_points(np.array([[5.0, 5.0, 5.0]]))[0]


def test_immersed_mesh_larger_than_carved(sphere_domain):
    r = compare_carved_immersed(sphere_domain, 3, 6, p=1)
    assert r.immersed_elems > r.carved_elems
    assert r.f_elem > 1.0
    assert r.in_elements > 0


def test_immersed_mesh_has_in_nodes(sphere_domain):
    imm = build_immersed_mesh(sphere_domain, 3, 6, p=1)
    # carved_node marks the object interior in the immersed mesh
    pts = imm.node_coords()
    inside = np.linalg.norm(pts - 5.0, axis=1) <= 0.5
    assert np.array_equal(imm.nodes.carved_node, inside)
    assert inside.sum() > 0


def test_immersed_band_zero_smaller(sphere_domain):
    with_band = build_immersed_mesh(sphere_domain, 3, 7, p=1, band=0.6)
    no_band = build_immersed_mesh(sphere_domain, 3, 7, p=1, band=0.0)
    assert with_band.n_elem > no_band.n_elem


def test_dendro_pipeline_counting_exact_small():
    """At a small scale the counting analysis must equal the actual
    complete tree built by the immersed predicate."""
    dom = Domain(BoxRetain([0, 0], [4, 1], domain=([0, 0], [4, 4])), scale=4.0)
    rep = dendro_style_pipeline(dom, 4, 4, nranks=4)
    # exact complete tree at level 4 in 2D: 16x16 cells
    assert rep.n_complete == 256
    assert rep.n_active == 16 * 4
    assert rep.active_per_rank.sum() == rep.n_active


def test_dendro_pipeline_channel_imbalance():
    dom = Domain(
        BoxRetain([0, 0, 0], [16, 1, 1], domain=([0, 0, 0], [16, 16, 16])),
        scale=16.0,
    )
    rep = dendro_style_pipeline(dom, 5, 6, nranks=16)
    assert rep.inactive_fraction > 0.8
    assert rep.active_imbalance > 2.0
    assert rep.octants_visited > 3 * rep.active_octants_visited


def test_dendro_active_count_matches_direct_build():
    dom = Domain(
        BoxRetain([0, 0, 0], [16, 1, 1], domain=([0, 0, 0], [16, 16, 16])),
        scale=16.0,
    )
    from repro.core.construct import construct_adaptive

    rep = dendro_style_pipeline(dom, 5, 6, nranks=4)
    direct = construct_adaptive(dom, 5, 6)
    assert rep.n_active == len(direct)


def test_dendro_memory_model():
    rep = CompleteTreeReport(
        n_active=10,
        n_complete=10**10,
        octants_visited=1,
        active_octants_visited=1,
        active_per_rank=np.array([10]),
        bytes_per_rank=np.array([8 * 10**10]),
    )
    assert rep.exceeds_memory()
    small = CompleteTreeReport(
        n_active=10,
        n_complete=100,
        octants_visited=1,
        active_octants_visited=1,
        active_per_rank=np.array([10]),
        bytes_per_rank=np.array([800]),
    )
    assert not small.exceeds_memory()


# -- two-tier (macro-element) baseline ---------------------------------------


def test_two_tier_channel_matches_carved_octree():
    """For box-decomposable domains, two-tier == carved octree exactly."""
    from repro import assemble, build_uniform_mesh
    from repro.baselines import TwoTierMesh, boxes_for_predicate
    from repro.fem.dirichlet import Dirichlet
    from repro.solvers import condest_1norm

    dom = Domain(BoxRetain([0, 0], [4, 1], domain=([0, 0], [4, 4])), scale=4.0)
    boxes = boxes_for_predicate(dom)
    assert len(boxes) == 4
    tt = TwoTierMesh(boxes, level=3)
    oc = build_uniform_mesh(dom, 5, p=1)
    assert tt.n_elem == oc.n_elem
    assert tt.n_nodes == oc.n_nodes
    assert tt.boundary_mask().sum() == oc.dirichlet_mask.sum()

    def cond_of(A, fixed):
        return condest_1norm(Dirichlet(fixed).replace_rows(A).tocsc())

    c_tt = cond_of(tt.assemble_stiffness(), tt.boundary_mask())
    c_oc = cond_of(assemble(oc), oc.dirichlet_mask)
    assert c_tt == pytest.approx(c_oc, rel=1e-6)


def test_two_tier_rejects_curved_geometry():
    from repro.baselines import TwoTierError, boxes_for_predicate

    with pytest.raises(TwoTierError):
        boxes_for_predicate(Domain(SphereCarve([5, 5, 5], 0.5), scale=10.0))


def test_two_tier_rejects_non_integer_scale():
    from repro.baselines import TwoTierError, boxes_for_predicate

    dom = Domain(BoxRetain([0, 0], [1, 1]), scale=1.5)
    with pytest.raises(TwoTierError):
        boxes_for_predicate(dom)


def test_two_tier_3d_l_shape():
    """An L-shaped union of cubes meshes fine in two-tier form."""
    from repro.baselines import TwoTierMesh

    boxes = [
        (np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0])),
        (np.array([1.0, 0.0, 0.0]), np.array([2.0, 1.0, 1.0])),
        (np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 1.0])),
    ]
    tt = TwoTierMesh(boxes, level=2)
    assert tt.n_elem == 3 * 64
    # shared macro faces deduplicate nodes
    assert tt.n_nodes < 3 * 5**3
    A = tt.assemble_stiffness()
    ones = np.ones(tt.n_nodes)
    assert np.abs(A @ ones).max() < 1e-10
