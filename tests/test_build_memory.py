"""Memory gates of the mesh build, of assembly and of the first
matrix-free solve, and the per-slot donor check that the
once-per-position donor search keeps.

The build gates are tracemalloc peaks on the 18 224-element carved
sphere (r = 0.3, base 4, boundary 6, p = 1), per element.  Per-slot
coordinate arrays in ``build_nodes`` read 3.6 kB against the current
0.98 kB.  The first solve (now about 0.91 kB peak, 0.47 kB held) may use
no more than the masked whole-mesh solve did.

An assembly may peak at no more than 3x the CSR it returns.  Forming
every element block and the whole inner product at once read 6.6x for
Poisson at p = 1 on that sphere, 3.7x at p = 2 on the 3 920-element
sphere (base 3, boundary 5) and 12.6x for transport's ``A``, the form
included; output-row chunks read 2.65x, 2.05x and 2.73x.

One Navier–Stokes assembly is gated on the 1 544-element 3-D sphere of
the drag example: building the dense old-state operator next to the
element blocks read 41.5 kB per element, applying it element by element
29.0 kB, and forming the blocks chunk by chunk reads 10.7 kB.
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
from repro.fem.navier_stokes import NavierStokesProblem
from repro.fem.poisson import PoissonProblem
from repro.fem.transport import SupgForm, element_velocity
from repro.geometry import SphereCarve
from repro.kernels import api as kernels

#: bytes per element at the tracemalloc peak
BUILD_NODES_BYTES_PER_ELEMENT = 1600
#: an assembly's peak over the bytes of the CSR it returns
ASSEMBLY_PEAK_OVER_MATRIX = 3.0
#: the first matrix-free solve, peak and held afterwards: what a solve
#: through the masked whole-mesh program took (building the free-node
#: program from that one read 1 327 / 1 072)
FIRST_SOLVE_PEAK_BYTES_PER_ELEMENT = 1194
FIRST_SOLVE_HELD_BYTES_PER_ELEMENT = 818
#: one Navier–Stokes ``_assemble`` with an old state, 3-D, p = 1
NS_ASSEMBLE_BYTES_PER_ELEMENT = 14_000


@pytest.fixture(scope="module")
def sphere():
    mesh = build_mesh(Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), 4, 6, p=1)
    assert mesh.n_elem == 18_224
    return mesh


def _traced_bytes(fn) -> tuple[int, int]:
    """tracemalloc peak of ``fn()`` and the bytes it leaves held, its
    result dropped."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        held, peak = tracemalloc.get_traced_memory()
        return peak - base, held - base
    finally:
        tracemalloc.stop()


def test_build_nodes_peak_per_element(sphere):
    peak, _ = _traced_bytes(lambda: build_nodes(sphere.domain, sphere.leaves, 1))
    assert peak <= BUILD_NODES_BYTES_PER_ELEMENT * sphere.n_elem, peak / sphere.n_elem


def _transport_lhs(mesh):
    """Transport's ``A`` as ``TransportProblem`` assembles it, before its
    Dirichlet rows: the element velocity, the form, the assembly."""
    ctx = operator_context(mesh)
    vel = np.stack([np.ones(mesh.n_nodes), np.linspace(-1.0, 1.0, mesh.n_nodes),
                    np.zeros(mesh.n_nodes)], axis=1)
    return lambda: kernels.assemble(ctx.gather, ctx.scatter, SupgForm(
        ctx.ref(), element_velocity(mesh, vel), 1e-3, ctx.h, 0.05).lhs_blocks)


@pytest.mark.parametrize("case", ["poisson-p1", "poisson-p2", "transport"])
def test_assembly_peak_over_its_matrix(sphere, case):
    """Assembly walks output-row chunks: no stage holds every element
    block, nor the whole inner product, at once."""
    if case == "poisson-p2":
        mesh = build_mesh(Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), 3, 5, p=2)
        assert mesh.n_elem == 3_920
    else:
        mesh = sphere
    operator_context(mesh).scatter  # a per-mesh artifact, built once
    build = _transport_lhs(mesh) if case == "transport" else lambda: assemble(mesh)
    A = build()
    matrix = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    del A
    peak, _ = _traced_bytes(build)
    assert peak <= ASSEMBLY_PEAK_OVER_MATRIX * matrix, peak / matrix


def test_first_matrix_free_solve_per_element(sphere):
    """The first solve on a mesh builds its operator context, plan and
    solve tables; the constrained program is compiled from the plan's
    tables, never through the whole-mesh program."""
    mesh = mesh_from_leaves(sphere.domain, sphere.leaves, p=1, balance=False)
    peak, held = _traced_bytes(
        lambda: PoissonProblem(mesh, f=1.0).solve(solver="matrix-free"))
    assert peak <= FIRST_SOLVE_PEAK_BYTES_PER_ELEMENT * mesh.n_elem, peak / mesh.n_elem
    assert held <= FIRST_SOLVE_HELD_BYTES_PER_ELEMENT * mesh.n_elem, held / mesh.n_elem
    assert operator_context(mesh).traversal._program is None


def test_ns_assemble_peak_per_element():
    """An implicit-Euler Navier–Stokes assembly forms the element blocks
    and the global matrix; the old state is applied, not assembled."""
    mesh = build_mesh(Domain(SphereCarve([3.0, 5.0, 5.0], 0.5), scale=10.0),
                      3, 6, p=1)
    assert mesh.n_elem == 1_544

    def bc(pts):
        mask = np.zeros((len(pts), 3), bool)
        vals = np.zeros((len(pts), 3))
        inlet = np.isclose(pts[:, 0], 0.0)
        mask[inlet], vals[inlet, 0] = True, 1.0
        mask[mesh.nodes.carved_node] = True
        return mask, vals

    outlet = np.isclose(mesh.node_coords()[:, 0], 10.0)
    ns = NavierStokesProblem(mesh, nu=0.01, velocity_bc=bc,
                             pressure_pin=outlet, dt=0.1)
    U, P = ns.initial_state()
    x_old = ns.pack(U, P)
    peak, _ = _traced_bytes(lambda: ns._assemble(U, x_old))
    assert peak <= NS_ASSEMBLE_BYTES_PER_ELEMENT * mesh.n_elem, peak / mesh.n_elem


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
    for solver in ("matrix-free", "auto"):
        u = PoissonProblem(mesh, f=1.0, dirichlet=0.25).solve(solver=solver)
        assert np.all(u[mesh.dirichlet_mask] == 0.25)
