#!/usr/bin/env python3
"""Distributed incomplete-octree pipeline on the simulated MPI: the
elongated-channel workload of the paper's scaling study (§4.5.1),
end to end — distributed construction, partitioning, ghost analysis,
a verified distributed MATVEC, and the modelled strong-scaling curve.

Run:  python examples/channel_scaling.py
"""

import numpy as np

from repro import Domain, build_mesh
from repro.core.matvec import traversal_matvec
from repro.geometry import BoxRetain
from repro.parallel import (
    FRONTERA,
    SimComm,
    analyze_partition,
    distributed_matvec,
    model_matvec,
    partition_mesh,
    rank_statistics,
)


def main() -> None:
    # a 16x1x1 channel retained inside a 16^3 cube, refined at the walls
    domain = Domain(
        BoxRetain([0, 0, 0], [16, 1, 1], domain=([0, 0, 0], [16, 16, 16])),
        scale=16.0,
    )
    mesh = build_mesh(domain, base_level=6, boundary_level=8, p=1)
    print(mesh.summary())

    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    serial = traversal_matvec(mesh, u)

    print(f"\n{'ranks':>6} {'ghost/rank':>11} {'eta':>7} {'msgs':>5} "
          f"{'t_model':>10} {'efficiency':>10}")
    t1 = None
    for nranks in (1, 2, 4, 8, 16, 32, 64):
        splits = partition_mesh(mesh, nranks, load_tol=0.1)
        layout = analyze_partition(mesh, splits)
        comm = SimComm(nranks)
        dist = distributed_matvec(mesh, layout, u, comm)
        err = np.abs(dist - serial).max() / np.abs(serial).max()
        assert err <= (0.0 if nranks == 1 else 1e-14), f"distributed != serial ({err:.1e})"
        stats = rank_statistics(mesh, layout)
        phases = model_matvec(stats, p=mesh.p, dim=mesh.dim, machine=FRONTERA)
        t = phases.time
        t1 = t1 or t
        eff = t1 / (t * nranks)
        print(f"{nranks:>6} {stats.ghost_nodes.mean():>11.1f} "
              f"{layout.eta().mean():>7.3f} {stats.messages.max():>5} "
              f"{t * 1e3:>8.2f}ms {eff:>10.2f}")
    print("\n(distributed MATVEC verified against the serial compiled apply: "
          "bit-identical on 1 rank, to 1e-14 beyond; times from the "
          "calibrated machine model)")


if __name__ == "__main__":
    main()
