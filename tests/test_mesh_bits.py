"""Same mesh, same bits: the node enumeration, the gather operator and
the assembled stiffness are pinned by digest on a grid of carves.

Each literal is the first 16 hex digits of the sha256 of an array's raw
bytes, recorded on the lexsort-of-coordinates node build and the CSC
assembly product these must equal.  A change that moves any of them
moves a solution somewhere; it has to say why.
"""

import hashlib

import numpy as np
import pytest

from repro import Domain, build_mesh
from repro.core.assembly import assemble
from repro.core.plan import mesh_fingerprint
from repro.geometry import SphereCarve


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: (dim, p, curve) -> (elements, field -> sha256 prefix); the r = 0.3
#: sphere at base 3 and boundary 6 (2-D) or 4 (3-D)
PINS = {
    (2, 1, "morton"): (500, {
        "coords": "18120b73cf673f8d", "elem_nodes": "d65bc28548cffe60",
        "indptr": "74d6ee972273c9c0", "indices": "8ccf961a442a8ce5",
        "data": "413d4f57fb883a7d", "carved_node": "a03a09166d544caf",
        "stiffness": "2f0262894052b5f1"}),
    (2, 1, "hilbert"): (500, {
        "coords": "18120b73cf673f8d", "elem_nodes": "9f16030e0e187f15",
        "indptr": "c50614e398d282f9", "indices": "33506d950be7ea82",
        "data": "dc61e10b436e2743", "carved_node": "a03a09166d544caf",
        "stiffness": "4ccd63521936f1bf"}),
    (2, 2, "morton"): (500, {
        "coords": "038c673f0756bbc4", "elem_nodes": "b7d011695dbff281",
        "indptr": "a38227ad79ae0245", "indices": "eb1930a1807dd741",
        "data": "c4445728fa18a3ca", "carved_node": "3287329fe85bcfcc",
        "stiffness": "37031534441c57ef"}),
    (2, 2, "hilbert"): (500, {
        "coords": "038c673f0756bbc4", "elem_nodes": "22ccbecc46c81c56",
        "indptr": "cd0b1da1090fbabb", "indices": "8a1d20e5c9a518e3",
        "data": "ba26a3dfee1dd0cc", "carved_node": "3287329fe85bcfcc",
        "stiffness": "e26e7a0417089046"}),
    (3, 1, "morton"): (1184, {
        "coords": "24833de13503b5f7", "elem_nodes": "bdb7cdbe5532e6fc",
        "indptr": "0b5f9937e6d6bc4e", "indices": "03532c871aac1b00",
        "data": "cd7008cc2334079b", "carved_node": "916afc505180f8c1",
        "stiffness": "96fb7e3f91bfc345"}),
    (3, 1, "hilbert"): (1184, {
        "coords": "24833de13503b5f7", "elem_nodes": "c19afa9f36cdf94a",
        "indptr": "601843f1ec497bd1", "indices": "8aff3d1714484b94",
        "data": "62420835f5c40ae8", "carved_node": "916afc505180f8c1",
        "stiffness": "7e1847a1343317bf"}),
    (3, 2, "morton"): (1184, {
        "coords": "bb861e9b243dc12f", "elem_nodes": "af15eb3754fcdcf3",
        "indptr": "99b1b145f1e0895d", "indices": "4a9877d2d5120b79",
        "data": "e075f14ce6cc8cf9", "carved_node": "2e4e2a28e86bf2e1",
        "stiffness": "6a8fff456405641b"}),
    (3, 2, "hilbert"): (1184, {
        "coords": "bb861e9b243dc12f", "elem_nodes": "59d0d3458e58f169",
        "indptr": "57d6548b75ffcc5d", "indices": "84110f4888176746",
        "data": "7366f925077ae232", "carved_node": "2e4e2a28e86bf2e1",
        "stiffness": "fc8627707394307e"}),
}


@pytest.mark.parametrize("dim,p,curve", list(PINS), ids=lambda v: str(v))
def test_grid_pins(dim, p, curve):
    n_elem, want = PINS[dim, p, curve]
    mesh = build_mesh(
        Domain(SphereCarve([0.5] * dim, 0.3)), 3, 6 if dim == 2 else 4,
        p=p, curve=curve,
    )
    nodes, A = mesh.nodes, assemble(mesh)
    g = nodes.gather
    got = {
        "coords": _sha(nodes.coords),
        "elem_nodes": _sha(nodes.elem_nodes),
        "indptr": _sha(g.indptr),
        "indices": _sha(g.indices),
        "data": _sha(g.data),
        "carved_node": _sha(nodes.carved_node),
        "stiffness": _sha(A.indptr, A.indices, A.data),
    }
    assert mesh.n_elem == n_elem
    assert {k: v[:16] for k, v in got.items()} == want


def test_same_mesh_same_bits():
    """The cold-path gate, full digests: the second build must not see
    the first's caches."""
    for _ in range(2):
        mesh = build_mesh(Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), 3, 4)
        assert mesh.n_elem == 1184
        assert mesh_fingerprint(mesh) == "c3632d8aec0d44d9d9d45d047a8f35aa6b49c59d"
        assert _sha(mesh.nodes.coords) == (
            "24833de13503b5f7ec3a6bd7bd575f0b9f61b696c649cb2606b7033a20596dd3")
        assert _sha(mesh.nodes.gather.data) == (
            "cd7008cc2334079b2a92fdb1b14ac3ca4c28c4db537ad4ee7622ddb72f9e7ba5")
