"""E2 — Table 1: conditioning — stretched complete octree vs incomplete.

To fit an elongated channel with a traditional complete octree one
stretches the element coordinates, which wrecks the condition number of
the 2-D Laplace operator; carving the channel from a larger square
keeps every element isotropic and, because the excess DOFs are removed,
the conditioning *improves* with channel length.  Paper values (1089
DOFs at length 1): complete/stretched grows 403 → 10580 while the
incomplete octree falls 403 → 5 (lengths 1..16).

The stretched operator is assembled from the anisotropically mapped
elemental stiffness; the incomplete one comes from the standard carved
pipeline (channel of height 1 in a length×length square).
"""

import numpy as np

from repro import Domain, assemble, build_uniform_mesh
from repro.fem.basis import LagrangeBasis
from repro.fem.dirichlet import Dirichlet
from repro.fem.quadrature import tensor_rule
from repro.geometry import BoxRetain
from repro.solvers import condest_1norm

from _util import ResultTable

LEVEL = 5  # 32x32 complete grid -> 33x33 = 1089 DOFs, matching Table 1


def stretched_laplace_condition(stretch: float, level: int = LEVEL) -> tuple[int, float]:
    """Complete octree on the unit square, x-coordinates stretched."""
    n = 1 << level
    basis = LagrangeBasis(1, 2)
    qp, qw = tensor_rule(2, 2)
    G = basis.eval_grad(qp)  # (nq, npe, dim)
    hx, hy = stretch / n, 1.0 / n
    # mapped elemental stiffness: ∫ (Gx/hx)(Gx/hx) + (Gy/hy)(Gy/hy) |J|
    J = hx * hy
    K = J * (
        np.einsum("q,qi,qj->ij", qw, G[:, :, 0], G[:, :, 0]) / hx**2
        + np.einsum("q,qi,qj->ij", qw, G[:, :, 1], G[:, :, 1]) / hy**2
    )
    nn = n + 1
    ids = np.arange(nn * nn).reshape(nn, nn)
    rows, cols, vals = [], [], []
    loc = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])  # axis-0-fastest order
    for ey in range(n):
        for ex in range(n):
            gl = np.array([ids[ex + a, ey + b] for a, b in loc])
            rows.append(np.repeat(gl, 4))
            cols.append(np.tile(gl, 4))
            vals.append(K.ravel())
    import scipy.sparse as sp

    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nn * nn, nn * nn),
    )
    boundary = np.zeros((nn, nn), bool)
    boundary[0, :] = boundary[-1, :] = boundary[:, 0] = boundary[:, -1] = True
    return nn * nn, _condest(A, boundary.reshape(-1))


def _condest(A, fixed):
    """Matlab-condest-equivalent measurement: 1-norm condition estimate
    of the operator with Dirichlet rows zeroed to identity (PETSc
    MatZeroRows).  Reproduces the paper's Table-1 values to four
    significant digits at lengths 1-4 (402.6, 466.7, 510.1)."""
    return condest_1norm(Dirichlet(fixed).replace_rows(A).tocsc())


def incomplete_channel_condition(length: float, level: int = LEVEL):
    """Channel of height 1 carved from a length x length square."""
    dom = Domain(
        BoxRetain([0, 0], [length, 1.0], domain=([0, 0], [length, length])),
        scale=float(length),
    )
    mesh = build_uniform_mesh(dom, level, p=1)
    A = assemble(mesh, kind="stiffness")
    return mesh.n_nodes, _condest(A, mesh.dirichlet_mask)


def run_table1(lengths=(1, 2, 4, 8, 16)):
    rows = []
    for L in lengths:
        dofs_c, cond_c = stretched_laplace_condition(float(L))
        dofs_i, cond_i = incomplete_channel_condition(float(L))
        rows.append((L, dofs_c, cond_c, dofs_i, cond_i))
    return rows


def test_table1_conditioning(benchmark):
    rows = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    t = ResultTable(
        "table1_conditioning",
        "Table 1: condition number, stretched complete vs incomplete octree "
        "(2D Laplace, Dirichlet rows as identity)",
    )
    t.row(f"{'length':>7} | {'DOFs':>6} {'cond(complete)':>15} | "
          f"{'DOFs':>6} {'cond(incomplete)':>17}")
    for L, dc, cc, di, ci in rows:
        t.row(f"{L:>7} | {dc:>6} {cc:>15.1f} | {di:>6} {ci:>17.1f}")
    t.row("paper: complete 403->10580 rising; incomplete 403->5 falling")
    t.save()
    conds_c = [r[2] for r in rows]
    conds_i = [r[4] for r in rows]
    # the paper's qualitative claims
    assert conds_c[-1] > 2 * conds_c[0], "stretching must degrade conditioning"
    assert conds_i[-1] < conds_i[0] / 10, "carving must improve conditioning"
    dofs_i = [r[3] for r in rows]
    assert dofs_i[-1] < dofs_i[0], "carving must shed DOFs with aspect ratio"
