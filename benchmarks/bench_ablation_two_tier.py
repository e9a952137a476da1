"""Ablation — carving vs the two-tier (macro-element) alternative.

The paper's framing: incomplete octrees are "an alternative to using
two-tier meshes (HHG, p4est) ... not dependent on having top-level
hexahedral meshes".  This bench makes that concrete: where a lattice
hex decomposition exists (channels, L-shapes) the two approaches yield
*identical* meshes and conditioning — carving costs nothing — and the
moment the geometry curves (sphere, dragon, classroom) the two-tier
route requires unstructured hex meshing, which the comparator reports
as infeasible, while the carving pipeline proceeds from the same
In-Out predicate it always uses.
"""

import numpy as np
import pytest

from repro import Domain, assemble, build_mesh, build_uniform_mesh
from repro.baselines import TwoTierError, TwoTierMesh, boxes_for_predicate
from repro.fem.dirichlet import Dirichlet
from repro.geometry import BoxRetain, SphereCarve, TriMeshCarve, dragon_blob
from repro.solvers import condest_1norm

from _util import ResultTable


def _cond(A, fixed):
    return condest_1norm(Dirichlet(fixed).replace_rows(A).tocsc())


def run_two_tier():
    rows = []
    # box-decomposable: channel lengths
    for L in (4, 8):
        dom = Domain(
            BoxRetain([0, 0], [L, 1], domain=([0, 0], [L, L])), scale=float(L)
        )
        boxes = boxes_for_predicate(dom)
        tt = TwoTierMesh(boxes, level=3)
        oc_level = 3 + int(np.log2(L))
        oc = build_uniform_mesh(dom, oc_level, p=1)
        c_tt = _cond(tt.assemble_stiffness(), tt.boundary_mask())
        c_oc = _cond(assemble(oc), oc.dirichlet_mask)
        rows.append((f"channel {L}x1", len(boxes), tt.n_nodes, oc.n_nodes,
                     c_tt, c_oc))
    # curved geometries: two-tier infeasible, carving fine
    curved = {
        "sphere": Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0),
        "dragon-blob": Domain(
            TriMeshCarve(dragon_blob((0.5, 0.5, 0.5), 0.25, 2))
        ),
    }
    infeasible = []
    for name, dom in curved.items():
        try:
            boxes_for_predicate(dom)
            feasible = True
        except TwoTierError:
            feasible = False
        carved = build_mesh(dom, 2, 4, p=1)
        infeasible.append((name, feasible, carved.n_elem))
    return rows, infeasible


def test_ablation_two_tier(benchmark):
    rows, infeasible = benchmark.pedantic(run_two_tier, rounds=1, iterations=1)
    t = ResultTable(
        "ablation_two_tier",
        "Ablation: carving vs two-tier macro-element meshes",
    )
    t.row(f"{'case':>14} {'macros':>7} {'tt nodes':>9} {'oct nodes':>10} "
          f"{'cond tt':>9} {'cond oct':>9}")
    for name, nb, ntt, noc, ctt, coc in rows:
        t.row(f"{name:>14} {nb:>7} {ntt:>9} {noc:>10} {ctt:>9.2f} {coc:>9.2f}")
    for name, feasible, ne in infeasible:
        t.row(f"{name:>14}: two-tier hex decomposition "
              f"{'EXISTS' if feasible else 'infeasible'}; "
              f"carving meshes it with {ne} elements from the predicate alone")
    t.save()
    for name, nb, ntt, noc, ctt, coc in rows:
        assert ntt == noc, "two-tier and carved meshes must coincide"
        assert ctt == pytest.approx(coc, rel=1e-6)
    for name, feasible, ne in infeasible:
        assert not feasible and ne > 0
