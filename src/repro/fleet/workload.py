"""Seeded synthetic fleet workloads: zipf popularity, bursty arrivals.

A stand-in for millions-of-users traffic against the solver fleet,
entirely on the virtual clock:

* **Mesh popularity is zipf-distributed.**  A catalog of ``pool``
  distinct discretizations (carved disks of varying radius and depth,
  a channel) is ranked; request ``i`` draws its template with
  probability ∝ 1/(rank+1)^s.  A handful of meshes dominate —
  exactly the regime where consistent-hash routing hot-spots a shard
  and the two-tier cache and work stealing earn their keep.

* **Arrivals are a bursty Poisson process.**  Interarrival gaps are
  exponential draws on the virtual clock; a two-state modulation
  (quiet / burst) multiplies the rate by ``mean_gap / burst_gap``
  during bursts, which arrive with probability ``burst_prob`` per
  request and last ``burst_len`` requests.  Queue depths therefore
  spike — the work-stealing trigger — instead of trickling uniformly.

Everything is drawn from one ``numpy`` generator seeded by ``seed``:
the same ``(n, seed, …)`` always produces byte-identical arrivals
(asserted by the determinism tests), which is what lets the whole
fleet simulation — faults included — be certified by stream digests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..serve.api import SolveRequest

__all__ = ["Arrival", "mesh_catalog", "synthetic_workload"]


@dataclass(frozen=True)
class Arrival:
    """One request and the virtual tick it reaches the fleet."""

    tick: int
    request: SolveRequest


def mesh_catalog(pool: int = 6, *, base_level: int = 2,
                 boundary_level: int = 3) -> list[dict]:
    """``pool`` distinct request templates in popularity rank order.

    Rank 0 (the most popular mesh under zipf) is the paper's carved
    disk; later ranks vary the radius/centre (distinct operator-plan
    fingerprints), alternate the PDE kind, and include one channel
    transport workload.  All templates are shallow (small meshes) so
    fleet tests and benches stay fast.  The disk radius
    ``0.3 - 0.015 * rank`` reaches 0 at rank 20, so ``pool`` is capped
    at 20 templates.
    """
    if not 1 <= pool <= 20:
        raise ValueError(
            f"pool must be in 1..20, got {pool} "
            "(the rank-20 disk would have radius 0)"
        )
    channel = {"shape": "box", "lo": (0.0, 0.0), "hi": (4.0, 1.0),
               "domain_hi": (4.0, 4.0), "scale": 4.0}
    out: list[dict] = []
    for i in range(pool):
        if i % 5 == 3:
            out.append(dict(
                geometry=channel, pde="transport",
                velocity=(1.0, 0.0), kappa=0.05, dt=0.2,
                steps=1 + (i // 5) % 2,
                base_level=base_level, boundary_level=boundary_level,
            ))
            continue
        geom = {
            "shape": "sphere",
            "center": (0.5, 0.5),
            "radius": round(0.3 - 0.015 * i, 6),
        }
        out.append(dict(
            geometry=geom, pde="sbm" if i % 5 == 2 else "poisson",
            base_level=base_level, boundary_level=boundary_level,
        ))
    return out


def synthetic_workload(n: int = 80, seed: int = 0, *, pool: int = 6,
                       zipf_s: float = 1.1, mean_gap: int = 400,
                       burst_gap: int = 40, burst_len: int = 8,
                       burst_prob: float = 0.15, base_level: int = 2,
                       boundary_level: int = 3) -> list[Arrival]:
    """Generate ``n`` seeded arrivals (sorted by tick).

    ``mean_gap`` / ``burst_gap`` are mean interarrival gaps in virtual
    ticks for the quiet and burst states; ``zipf_s`` is the popularity
    exponent (larger → more skew toward the rank-0 mesh).
    """
    templates = mesh_catalog(pool, base_level=base_level,
                             boundary_level=boundary_level)
    weights = np.array([1.0 / (r + 1) ** zipf_s for r in range(pool)])
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    t = 0.0
    burst_left = 0
    arrivals: list[Arrival] = []
    for _ in range(n):
        if burst_left == 0 and rng.random() < burst_prob:
            burst_left = burst_len
        gap = burst_gap if burst_left > 0 else mean_gap
        burst_left = max(0, burst_left - 1)
        t += rng.exponential(gap)
        tmpl = templates[int(rng.choice(pool, p=weights))]
        req = SolveRequest(
            f=round(float(rng.uniform(0.5, 2.0)), 6),
            priority=int(rng.integers(0, 3)),
            **tmpl,
        )
        arrivals.append(Arrival(tick=int(round(t)), request=req))
    return arrivals
