"""Dimension- and order-agnosticism tests.

The paper claims "the algorithms presented ... are dimension agnostic"
(the group's lineage includes 4-D space-time trees, Ishii et al. 2019)
and arbitrary p-refinement (§3.4: "for a given p-refinement, there are
(p+1)^3 nodes per element").  These tests exercise the machinery at
d = 4 (hexadecatrees) and p = 3 — configurations none of the standard
benches touch.
"""

import numpy as np

from repro import Domain, build_mesh, build_uniform_mesh
from repro.core.balance import balance_2to1, is_balanced
from repro.core.construct import construct_adaptive, construct_uniform
from repro.core.octant import OctantSet, children, max_level, parent
from repro.fem.basis import LagrangeBasis, local_node_offsets
from repro.geometry import SphereCarve

from .test_treesort import is_sorted_linear


# -- 4D trees ---------------------------------------------------------------


def test_4d_max_level():
    assert max_level(4) == 15


def test_4d_children_and_parent():
    r = OctantSet.root(4)
    ch = children(r)
    assert len(ch) == 16
    back = parent(ch)
    assert np.all(back.anchors == 0)
    assert np.all(back.levels == 0)


def test_4d_uniform_construction():
    dom = Domain(dim=4)
    t = construct_uniform(dom, 2)
    assert len(t) == 16**2
    assert is_sorted_linear(t)


def test_4d_carved_construction_and_balance():
    """A 4-ball carved from the 4-cube (a space-time sphere)."""
    dom = Domain(SphereCarve([0.5] * 4, 0.3))
    t = construct_adaptive(dom, 1, 3)
    assert len(t) > 0
    bal = balance_2to1(dom, t)
    assert is_balanced(bal)
    assert is_sorted_linear(bal)
    # the carved region removed something
    assert len(construct_uniform(dom, 3)) < 16**3


def test_4d_nodes_and_matvec():
    """Full pipeline at d=4: nodes, gather, stiffness MATVEC."""
    dom = Domain(SphereCarve([0.5] * 4, 0.3))
    mesh = build_mesh(dom, 1, 2, p=1)
    assert mesh.npe == 16
    # linear reproduction across the 4D mesh
    pts = mesh.nodes.physical_coords()
    coef = np.array([1.0, -2.0, 0.5, 3.0])
    f = pts @ coef + 1.0
    loc = mesh.nodes.gather @ f
    off = local_node_offsets(1, 4)
    a = mesh.leaves.anchors.astype(np.int64)
    s = mesh.leaves.sizes.astype(np.int64)
    X = (2 * a[:, None, :] + 2 * off[None] * s[:, None, None]).reshape(-1, 4)
    expect = (X * mesh.nodes.h_node) @ coef + 1.0
    assert np.abs(loc - expect).max() < 1e-9
    # stiffness annihilates constants in 4D too
    from repro.core.matvec import MapBasedMatVec

    mv = MapBasedMatVec(mesh)
    assert np.abs(mv(np.ones(mesh.n_nodes))).max() < 1e-10


def test_4d_hilbert_keys_injective():
    from repro.core.sfc import HilbertOrder

    dom = Domain(dim=4)
    t = construct_uniform(dom, 2, curve="hilbert")
    keys = HilbertOrder().keys(t)
    assert len(np.unique(keys)) == len(t)
    assert is_sorted_linear(t, "hilbert")


# -- p = 3 -------------------------------------------------------------------


def test_p3_basis_is_nodal():
    b = LagrangeBasis(3, 2)
    assert b.npe == 16
    vals = b.eval(b.offsets / b.p)
    assert np.allclose(vals, np.eye(16), atol=1e-10)


def test_p3_uniform_node_count():
    mesh = build_uniform_mesh(Domain(dim=2), 3, p=3)
    assert mesh.n_nodes == (3 * 8 + 1) ** 2


def test_p3_cubic_reproduction_across_hanging():
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 4, p=3)
    assert mesh.nodes.n_hanging_slots > 0
    pts = mesh.nodes.physical_coords()

    def func(p):
        return p[:, 0] ** 3 - 2 * p[:, 1] ** 3 + p[:, 0] * p[:, 1] ** 2 + 1

    loc = mesh.nodes.gather @ func(pts)
    off = local_node_offsets(3, 2)
    a = mesh.leaves.anchors.astype(np.int64)
    s = mesh.leaves.sizes.astype(np.int64)
    X = (6 * a[:, None, :] + 2 * off[None] * s[:, None, None]).reshape(-1, 2)
    expect = func(X * mesh.nodes.h_node)
    assert np.abs(loc - expect).max() < 1e-8


def test_p3_poisson_superconvergence():
    """p=3 beats p=1 by orders of magnitude on a smooth problem."""
    from repro.fem.poisson import PoissonProblem, l2_error

    def exact(p):
        return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    def f(p):
        return 2 * np.pi**2 * exact(p)

    m1 = build_uniform_mesh(Domain(dim=2), 4, p=1)
    m3 = build_uniform_mesh(Domain(dim=2), 4, p=3)
    e1 = l2_error(m1, PoissonProblem(m1, f=f).solve(rtol=1e-13), exact)
    e3 = l2_error(m3, PoissonProblem(m3, f=f).solve(rtol=1e-13), exact)
    assert e3 < e1 / 100
