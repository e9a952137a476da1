#!/usr/bin/env python3
"""Adaptive mesh refinement on the L-shaped domain.

The classic AFEM benchmark: the harmonic function u = r^{2/3} sin(2θ/3)
around a re-entrant corner has unbounded gradients at the corner, so a
uniform mesh converges at the crippled rate ||e|| ~ N^{-2/3} while the
estimator-driven adaptive loop recovers the optimal N^{-1} (in L2, p=1)
by grading the mesh into the singularity.

The carved box is grid-conforming (the voxelated boundary IS the true
boundary), so the comparison isolates the refinement strategy.

Run:  python examples/amr_lshape.py
"""

import numpy as np

from repro.amr import amr_solve
from repro.core import Domain, construct_adaptive
from repro.core.mesh import mesh_from_leaves
from repro.fem.poisson import PoissonProblem, l2_error
from repro.geometry import BoxCarve


def exact(pts: np.ndarray) -> np.ndarray:
    """r^{2/3} sin(2θ/3) about the re-entrant corner at (0.5, 0.5)."""
    x = pts[:, 0] - 0.5
    y = pts[:, 1] - 0.5
    r = np.hypot(x, y)
    theta = np.mod(np.arctan2(y, x) - np.pi / 2, 2 * np.pi)
    return np.where(r > 0, r ** (2.0 / 3.0), 0.0) * np.sin(2.0 * theta / 3.0)


def main() -> None:
    # [0,1]^2 minus the upper-right quadrant: re-entrant corner at the
    # center, interior angle 3π/2
    domain = Domain(BoxCarve([0.5, 0.5], [1.0, 1.0]), dim=2, scale=1.0)

    print("uniform refinement:")
    uni = []
    for level in (3, 4, 5, 6):
        mesh = mesh_from_leaves(
            domain, construct_adaptive(domain, level, level), p=1
        )
        u = PoissonProblem(mesh, f=0.0, dirichlet=exact).solve()
        err = l2_error(mesh, u, exact)
        uni.append((mesh.n_nodes, err))
        print(f"  level {level}: {mesh.n_nodes:>6} DOFs  L2 error {err:.3e}")

    print("adaptive refinement (Dörfler θ=0.5):")
    res = amr_solve(
        domain, f=0.0, dirichlet=exact, base_level=3, max_cycles=12,
        theta=0.5, exact=exact,
    )
    for rec in res.history:
        print(f"  cycle {rec['cycle']:>2}: {rec['n_dofs']:>6} DOFs  "
              f"L2 error {rec['error_l2']:.3e}")

    # convergence rates from the last few points of each curve
    def rate(points):
        (n0, e0), (n1, e1) = points[-3], points[-1]
        return np.log(e0 / e1) / np.log(n1 / n0)

    amr_pts = [(r["n_dofs"], r["error_l2"]) for r in res.history]
    print(f"uniform rate:  N^-{rate(uni):.2f}")
    print(f"adaptive rate: N^-{rate(amr_pts):.2f}  "
          f"(optimal for p=1 in 2-D: N^-1)")
    print(f"trajectory digest: {res.digest()}")


if __name__ == "__main__":
    main()
