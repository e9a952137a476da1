"""Manufactured solutions: the L2 error converges at order p + 1.

u = Π sin(π xᵢ) on the uncarved unit cube, −Δu = d π² u and u = 0 on
the boundary, solved on uniform meshes and on meshes whose half x < 0.5
is one level finer — so every refinement step carries hanging nodes —
in 2-D and 3-D, at p = 1 and 2, through both solvers (which agree to
1e-9).  Measured orders sit at 1.998–2.043 (p = 1) and 2.974–3.002
(p = 2); the bar is p + 0.9.
"""

import numpy as np
import pytest

from repro import Domain, build_mesh, build_uniform_mesh
from repro.analysis.convergence import observed_rates
from repro.fem.poisson import PoissonProblem, l2_error

#: (dim, p) -> the base levels of the ladder
LEVELS = {(2, 1): (3, 4, 5), (2, 2): (2, 3, 4),
          (3, 1): (2, 3, 4), (3, 2): (2, 3)}


def _exact(x):
    return np.prod(np.sin(np.pi * x), axis=1)


def _mesh(dim, p, level, half_refined):
    dom = Domain(None, dim=dim)
    if not half_refined:
        return build_uniform_mesh(dom, level, p=p)

    def finer_left(frontier, labels):
        lo, _ = frontier.physical_bounds(dom.scale)
        return np.where(lo[:, 0] < 0.5, level + 1, level)

    return build_mesh(dom, level, level, p=p, extra_refine=finer_left)


@pytest.mark.parametrize("half_refined", [False, True],
                         ids=["uniform", "half-refined"])
@pytest.mark.parametrize("dim,p", list(LEVELS), ids=lambda v: str(v))
def test_l2_error_converges_at_order_p_plus_one(dim, p, half_refined):
    f = lambda x: dim * np.pi**2 * _exact(x)  # noqa: E731
    h, err = [], {"auto": [], "matrix-free": []}
    for level in LEVELS[dim, p]:
        mesh = _mesh(dim, p, level, half_refined)
        assert (mesh.nodes.n_hanging_slots > 0) == half_refined
        h.append(2.0**-level)
        u = {solver: PoissonProblem(mesh, f=f).solve(rtol=1e-12, solver=solver)
             for solver in err}
        assert np.abs(u["auto"] - u["matrix-free"]).max() < 1e-9
        for solver in err:
            err[solver].append(l2_error(mesh, u[solver], _exact))
    for solver, e in err.items():
        rates = observed_rates(np.array(h), np.array(e))
        assert (rates >= p + 0.9).all(), (solver, rates)
