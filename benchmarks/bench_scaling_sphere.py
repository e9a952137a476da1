"""E7/E8 — Figs. 9-10 + Table 3 (sphere): strong & weak MATVEC scaling.

A sphere of diameter 1 carved from a 10³ cube with 5 levels of octree
adaptivity near the surface (§4.5.2) — the domain of the Navier–Stokes
validation.  Same methodology as the channel bench.  Paper: strong 90%
(linear) / 96% (quadratic) over 32×; weak 74% / 83%.

``test_sphere_memory_ladder`` is the size ladder: how large a mesh one
process builds and solves, and at what peak memory per element.  Each
rung builds the carved sphere (r = 0.3) in a fresh interpreter and runs
one rtol 1e-2 matrix-free Poisson solve.  It has no ``benchmark``
fixture, so run it with ``-q -s``; ``-k "memory_ladder and (18k or
59k)"`` picks the rungs up to 10⁵ elements.
"""

import json
import subprocess
import sys

import pytest

from repro import Domain, build_mesh
from repro.geometry import SphereCarve
from repro.parallel import FRONTERA, analyze_partition, model_matvec, partition_mesh, rank_statistics

from bench_scaling_channel import _report_strong, scaling_run
from _util import ResultTable


def sphere_domain():
    return Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)


def test_sphere_strong_scaling(benchmark):
    dom = sphere_domain()
    meshes = benchmark.pedantic(
        lambda: {p: build_mesh(dom, 4, 8, p=p) for p in (1, 2)},
        rounds=1, iterations=1,
    )
    t = ResultTable(
        "fig9_sphere_strong",
        "Fig 9 + Table 3: sphere strong scaling (parallel cost)",
    )
    ranks = (1, 2, 4, 8, 16, 32)
    effs = {}
    for p, mesh in meshes.items():
        t.row(f"mesh: {mesh.n_elem} elements, {mesh.n_nodes} DOFs (p={p}), "
              f"levels {mesh.leaves.levels.min()}..{mesh.leaves.levels.max()}")
        rows = scaling_run(mesh, ranks, verify_ranks=(4,))
        effs[p] = _report_strong(t, rows, f"p={p}")
    t.row("paper: 90% (linear) / 96% (quadratic) efficiency over 32x")
    t.save()
    assert effs[1][-1] > 0.6
    assert effs[2][-1] > effs[1][-1] - 0.05
    assert meshes[1].leaves.levels.max() - meshes[1].leaves.levels.min() >= 4, \
        "the sphere case must have ~5 levels of adaptivity"


def test_sphere_weak_scaling(benchmark):
    dom = sphere_domain()
    grain = 1500  # paper: 10K elements/core, scaled down
    levels = [(3, 6), (4, 7), (4, 8)]

    def build_all():
        return [
            {p: build_mesh(dom, b, bl, p=p) for p in (1, 2)} for b, bl in levels
        ]

    series = benchmark.pedantic(build_all, rounds=1, iterations=1)
    t = ResultTable(
        "fig10_sphere_weak",
        "Fig 10 + Table 3: sphere weak scaling (fixed grain per rank)",
    )
    effs = {}
    for p in (1, 2):
        t.row(f"-- p={p}")
        t.row(f"{'ranks':>6} {'elements':>9} {'DOFs':>9} {'t_matvec':>10} {'eff':>6}")
        t0 = None
        eff = []
        for meshes in series:
            mesh = meshes[p]
            nranks = max(1, round(mesh.n_elem / grain))
            splits = partition_mesh(mesh, nranks, load_tol=0.1)
            layout = analyze_partition(mesh, splits)
            stats = rank_statistics(mesh, layout)
            ph = model_matvec(stats, p=p, dim=3, machine=FRONTERA)
            tt = ph.time
            t0 = t0 or tt
            eff.append(t0 / tt)
            t.row(f"{nranks:>6} {mesh.n_elem:>9} {mesh.n_nodes:>9} "
                  f"{tt * 1e3:>8.2f}ms {eff[-1]:>6.2f}")
        effs[p] = eff
    t.row("paper: weak efficiency 74% (linear) / 83% (quadratic) at 512x; "
          "quadratic better because eta ~ 1/(p+1)")
    t.save()
    assert effs[1][-1] > 0.45 and effs[2][-1] > 0.45
    assert effs[2][-1] >= effs[1][-1] - 0.08


#: (id, base level, boundary level, p, elements) of the size ladder
LADDER = (
    ("p1-18k", 4, 6, 1, 18_224),
    ("p1-59k", 4, 7, 1, 59_136),
    ("p1-232k", 4, 8, 1, 232_160),
    ("p1-437k", 6, 8, 1, 436_672),
    ("p1-1.1M", 6, 9, 1, 1_112_040),
    ("p2-18k", 4, 6, 2, 18_224),
    ("p2-59k", 4, 7, 2, 59_136),
    ("p2-232k", 4, 8, 2, 232_160),
)

#: peak bytes per element above the post-import RSS a p = 1 rung of at
#: least 10⁶ elements may use (build + one matrix-free solve)
LADDER_BYTES_PER_ELEMENT = 1300

#: one rung, run in a fresh interpreter so its peak RSS is its own;
#: prints one JSON row
_RUNG = """
import json, resource, sys, time
from repro import Domain, build_mesh, obs
from repro.fem.poisson import PoissonProblem
from repro.geometry import SphereCarve

def peak_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def find(span, name):
    if span.name == name:
        return span
    return next(filter(None, (find(c, name) for c in span.children)), None)

base, boundary, p = map(int, sys.argv[1:])
rss0 = peak_kib()
t0 = time.perf_counter()
mesh = build_mesh(Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), base, boundary, p=p)
t1 = time.perf_counter()
obs.enable()
with obs.span("ladder.solve") as sp:
    PoissonProblem(mesh, f=1.0).solve(solver="matrix-free", rtol=1e-2)
t2 = time.perf_counter()
peak = peak_kib()
print(json.dumps({
    "p": p, "elements": mesh.n_elem, "nodes": mesh.n_nodes,
    "build_s": t1 - t0, "solve_s": t2 - t1,
    "iterations": find(sp, "solver.cg").counters["iterations"],
    "post_import_mib": rss0 / 1024, "peak_rss_mib": peak / 1024,
    "bytes_per_element": (peak - rss0) * 1024 / mesh.n_elem,
}))
"""


def _ladder_table(row: dict) -> ResultTable:
    """The ladder table with ``row`` replacing its rung's earlier row:
    rungs run one test each, so a partial run keeps the other rows."""
    t = ResultTable(
        "sphere_memory_ladder",
        "Size ladder: carved sphere r = 0.3, build + one rtol 1e-2 "
        "matrix-free solve, one process per rung",
    )
    sidecar = t.results_dir / f"{t.name}.json"
    rows = json.loads(sidecar.read_text())["records"] if sidecar.exists() else []
    rows = [r for r in rows if (r["p"], r["elements"]) != (row["p"], row["elements"])]
    rows = sorted(rows + [row], key=lambda r: (r["p"], r["elements"]))
    t.row(f"{'p':>2} {'elements':>10} {'nodes':>10} {'build s':>8} "
          f"{'solve s':>8} {'its':>4} {'peak RSS MiB':>12} {'B/elem':>7}")
    for r in rows:
        t.row(f"{r['p']:>2} {r['elements']:>10} {r['nodes']:>10} "
              f"{r['build_s']:>8.2f} {r['solve_s']:>8.2f} {r['iterations']:>4} "
              f"{r['peak_rss_mib']:>12.1f} {r['bytes_per_element']:>7.0f}")
        t.record(**r)
    t.row("B/elem: peak RSS above the post-import RSS, per element")
    return t


@pytest.mark.parametrize(
    "base,boundary,p,elements", [r[1:] for r in LADDER], ids=[r[0] for r in LADDER]
)
def test_sphere_memory_ladder(base, boundary, p, elements):
    out = subprocess.run(
        [sys.executable, "-c", _RUNG, str(base), str(boundary), str(p)],
        capture_output=True, text=True, check=True,
    )
    row = json.loads(out.stdout.splitlines()[-1])
    _ladder_table(row).save()
    assert row["elements"] == elements
    if p == 1 and elements >= 10**6:
        assert row["bytes_per_element"] <= LADDER_BYTES_PER_ELEMENT, row
