"""E15 — Table 6: classroom strong-scaling efficiency.

Two classroom meshes at different refinement levels, partitioned over a
doubling rank sweep; the modelled total solve time (Navier–Stokes
MATVEC-dominated) gives the efficiency column.  Paper: ≈0.90 efficiency
over a 16× rank increase for both meshes.
"""

from repro import build_mesh
from repro.geometry import ClassroomScene
from repro.parallel import FRONTERA, analyze_partition, model_matvec, partition_mesh, rank_statistics

from _util import ResultTable

NS_DOFS = 4


def run_table6():
    scene = ClassroomScene(n_rows=2, n_cols=3, with_monitors=True)
    dom = scene.domain()
    meshes = [build_mesh(dom, 4, 6, p=1), build_mesh(dom, 5, 7, p=1)]
    ranks = (4, 8, 16, 32, 64)
    out = []
    for mesh in meshes:
        times = []
        for nranks in ranks:
            splits = partition_mesh(mesh, nranks, load_tol=0.1)
            layout = analyze_partition(mesh, splits)
            stats = rank_statistics(mesh, layout)
            ph = model_matvec(stats, p=1, dim=3, machine=FRONTERA,
                              dofs_per_node=NS_DOFS)
            times.append(ph.time * 300)
        out.append((mesh.n_elem, ranks, times))
    return out


def test_table6_classroom_scaling(benchmark):
    out = benchmark.pedantic(run_table6, rounds=1, iterations=1)
    t = ResultTable(
        "table6_classroom_scaling",
        "Table 6: classroom strong scaling (modelled total solve time)",
    )
    effs_all = []
    for n_elem, ranks, times in out:
        t.row(f"-- mesh: {n_elem} elements")
        t.row(f"{'ranks':>6} {'time(s)':>9} {'efficiency':>11}")
        t0 = times[0] * ranks[0]
        effs = [t0 / (tt * r) for tt, r in zip(times, ranks)]
        for r, tt, e in zip(ranks, times, effs):
            t.row(f"{r:>6} {tt:>9.3f} {e:>11.2f}")
        effs_all.append(effs)
    t.row("paper: ~0.90 efficiency over a 16x rank increase")
    t.save()
    for effs in effs_all:
        assert effs[-1] > 0.55, "classroom strong scaling collapsed"
        assert all(e <= 1.05 for e in effs)
