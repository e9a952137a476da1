"""Memory gates of the mesh build and of assembly, and the per-slot donor
check that the once-per-position donor search keeps.

The gates are tracemalloc peaks on the 18 224-element carved sphere
(r = 0.3, base 4, boundary 6, p = 1), per element.  Per-slot coordinate
arrays in ``build_nodes`` read 3.6 kB, and a CSC outer product in
assembly (elemental blocks included) 2.6 kB; the bounds sit between
those and the current 0.98 / 1.87 kB, so either coming back fails its
gate.
"""

import tracemalloc

import numpy as np
import pytest

from repro import Domain, build_mesh, mesh_from_leaves
from repro.core import nodes as nodes_mod
from repro.core.assembly import assemble
from repro.core.mesh import IncompleteMesh
from repro.core.nodes import build_nodes
from repro.core.octant import OctantSet, max_level
from repro.core.plan import operator_context
from repro.core.treesort import tree_sort
from repro.fem.basis import local_node_offsets
from repro.fem.poisson import PoissonProblem
from repro.geometry import SphereCarve

#: bytes per element at the tracemalloc peak
BUILD_NODES_BYTES_PER_ELEMENT = 1600
ASSEMBLE_BYTES_PER_ELEMENT = 2000


@pytest.fixture(scope="module")
def sphere():
    mesh = build_mesh(Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), 4, 6, p=1)
    assert mesh.n_elem == 18_224
    return mesh


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_build_nodes_peak_per_element(sphere):
    peak = _peak_bytes(lambda: build_nodes(sphere.domain, sphere.leaves, 1))
    assert peak <= BUILD_NODES_BYTES_PER_ELEMENT * sphere.n_elem, peak / sphere.n_elem


def test_assemble_peak_per_element(sphere):
    operator_context(sphere).scatter  # a per-mesh artifact, built once
    peak = _peak_bytes(lambda: assemble(sphere))
    assert peak <= ASSEMBLE_BYTES_PER_ELEMENT * sphere.n_elem, peak / sphere.n_elem


def _overlapping_leaves():
    """2-D leaves in level-3 units: G = [0,4]², H = [0,1]² inside G,
    E1 = [4,5]×[1,2] (level 3) and E2 = [4,6]×[2,4] (level 2).

    X = (4, 2) is the midpoint of G's right edge, so G cancels it; it is
    a corner of E1 and of E2.  H shares G's SFC key and sorts after it,
    so the donor search never finds G: the coarsest leaf found at X is
    E2, strictly coarser than E1 (X's first slot) but not than E2."""
    m = max_level(2)
    u = 1 << (m - 3)
    cells = [((0, 0), 1), ((0, 0), 3), ((4, 1), 3), ((4, 2), 2)]
    anchors = np.array([[x * u, y * u] for (x, y), _ in cells], np.uint32)
    levels = np.array([lv for _, lv in cells], np.uint8)
    return tree_sort(OctantSet(anchors, levels))[0]


def test_donor_check_covers_every_slot():
    leaves = _overlapping_leaves()
    dom = Domain(dim=2)
    # X's slots: E1 (element 2) corner (0, 1), E2 (element 3) corner (0, 0)
    he, hi = np.array([2, 3]), np.array([2, 0])
    a = leaves.anchors.astype(np.int64)[he]
    s = leaves.sizes.astype(np.int64)[he]
    X = 2 * a + 2 * local_node_offsets(1, 2)[hi] * s[:, None]
    assert (X[0] == X[1]).all() and list(leaves.levels[he]) == [3, 2]
    position = np.zeros(2, np.int64)
    # the representative slot alone passes; the search result is shared
    nodes_mod._find_donors(dom, leaves, he[:1], hi[:1], position[:1], 1, "morton")
    with pytest.raises(RuntimeError, match="strictly coarser"):
        nodes_mod._find_donors(dom, leaves, he, hi, position, 1, "morton")
    with pytest.raises(RuntimeError, match="strictly coarser"):
        mesh_from_leaves(dom, leaves, p=1, balance=False)


def test_scalar_dirichlet_needs_no_node_coordinates(monkeypatch):
    mesh = build_mesh(Domain(SphereCarve([0.5, 0.5], 0.3)), 3, 5)

    def refuse(self):
        raise AssertionError("node coordinates built for a scalar g")

    monkeypatch.setattr(IncompleteMesh, "node_coords", refuse)
    for solver in ("matrix-free", "cg"):
        u = PoissonProblem(mesh, f=1.0, dirichlet=0.25).solve(solver=solver)
        assert np.all(u[mesh.dirichlet_mask] == 0.25)
