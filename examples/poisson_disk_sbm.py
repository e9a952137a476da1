#!/usr/bin/env python3
"""Poisson on a carved disk: naive voxel BCs vs the Shifted Boundary
Method (the paper's §4.3 / Fig. 6 study).

The disk of radius 0.5 is *retained* (everything outside carved); the
voxelated boundary makes naive nodal Dirichlet data first-order
accurate, while SBM recovers second order.

Run:  python examples/poisson_disk_sbm.py
"""

import numpy as np

from repro import Domain, build_uniform_mesh
from repro.analysis import observed_rates
from repro.fem.poisson import PoissonProblem, l2_error, linf_error
from repro.geometry import SphereRetain

R = 0.5
CENTER = np.array([0.5, 0.5])


def exact(pts):
    r2 = ((pts - CENTER) ** 2).sum(axis=1)
    return 0.25 * (R * R - r2)


def main() -> None:
    domain = Domain(SphereRetain(CENTER, R))
    levels = [4, 5, 6, 7]
    for method in ("nodal", "sbm"):
        hs, e2s, einfs = [], [], []
        print(f"\n--- method = {method}")
        for lv in levels:
            mesh = build_uniform_mesh(domain, lv, p=1)
            u = PoissonProblem(mesh, f=1.0, dirichlet=0.0, method=method).solve()
            h = 2.0**-lv
            e2, einf = l2_error(mesh, u, exact), linf_error(mesh, u, exact)
            hs.append(h); e2s.append(e2); einfs.append(einf)
            print(f"  level {lv}: h={h:.4f}  L2={e2:.3e}  Linf={einf:.3e}")
        r2 = observed_rates(np.array(hs), np.array(e2s))
        ri = observed_rates(np.array(hs), np.array(einfs))
        print(f"  observed rates: L2 {np.round(r2, 2)}, Linf {np.round(ri, 2)}")
        print(f"  (paper: naive = first order, SBM = second order)")


if __name__ == "__main__":
    main()
