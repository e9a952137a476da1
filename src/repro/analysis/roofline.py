"""Roofline analysis of the elemental MATVEC kernels (Fig. 12).

The paper generates its roofline with Intel Advisor on Frontera and
reports arithmetic intensities of ≈0.072 (linear) and ≈0.121
(quadratic) with achieved rates of ≈4 and ≈7 GFLOP/s at ≈60 GB/s.
Here the same quantities come from explicit counting:

* FLOPs — the tensorised elemental-apply complexity O(d (p+1)^(d+1))
  per element (the algorithm the paper implements) and, separately, the
  dense-kernel count our numpy implementation actually performs;
* bytes — the full per-element traversal traffic: local input/output
  vectors, their duplicated top-down/bottom-up copies, and coordinate /
  scale metadata;
* achieved FLOP/s — measured by timing our batched kernel.

AI grows with p because data grows as O((p+1)^d) while compute grows as
O(d (p+1)^(d+1)) — the paper's explanation, reproduced quantitatively.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from ..core.matvec import MapBasedMatVec, TraversalMatVec
from ..core.mesh import IncompleteMesh
from ..parallel.perfmodel import FRONTERA, MachineModel

__all__ = [
    "MeasuredKernel",
    "RooflinePoint",
    "analyze_kernel",
    "measured_kernel_points",
    "roofline_ceilings",
]


@dataclass
class RooflinePoint:
    """One kernel's position on the roofline."""

    label: str
    p: int
    arithmetic_intensity: float   # FLOP / byte (tensorised model)
    dense_ai: float               # FLOP / byte of our numpy kernel
    measured_gflops: float        # achieved rate of the map-based ablation
    model_gflops: float           # paper-calibrated machine-model rate
    bandwidth_bound_gflops: float  # AI × model bandwidth ceiling
    compiled_gflops: float        # achieved rate of the compiled operator
    map_executed_ai: float        # flops() / traffic_bytes(), map-based
    compiled_executed_ai: float   # flops() / traffic_bytes(), compiled


def _model_bytes_per_element(
    p: int, dim: int, dup: float = 1.35, levels: float = 8.0
) -> float:
    """Bytes moved per element by one traversal MATVEC.

    The top-down/bottom-up passes copy every elemental node value once
    per tree level on the path from the root (``levels`` ≈ the mean
    leaf depth), duplicated across sibling buckets by ``dup``; the leaf
    apply reads/writes the local vectors once more and touches the
    elemental scale + octant metadata (~4 doubles).
    """
    npe = (p + 1) ** dim
    return 8.0 * (2 * npe * dup * levels + npe + 4)


def tensorised_apply_flops(p: int, dim: int) -> float:
    """FLOPs of the sum-factorised elemental apply: O(d (p+1)^(d+1)).

    This is the algorithmic FLOP count the paper's AI figures use (the
    *time* model in perfmodel uses a larger calibrated count that also
    covers elemental-operator formation)."""
    return 2.0 * dim * (p + 1) ** (dim + 1)


def analyze_kernel(
    mesh: IncompleteMesh,
    machine: MachineModel = FRONTERA,
    repeats: int = 5,
) -> RooflinePoint:
    """Place the mesh's Poisson elemental kernel on the roofline."""
    p, dim = mesh.p, mesh.dim
    mv = MapBasedMatVec(mesh)
    compiled = TraversalMatVec(mesh)
    u = np.linspace(0.0, 1.0, mesh.n_nodes)
    seconds = {}
    for name, op in (("map", mv), ("compiled", compiled)):
        op(u)  # warm up
        t0 = time.perf_counter()
        for _ in range(repeats):
            op(u)
        seconds[name] = (time.perf_counter() - t0) / repeats
    dense_flops = mv.flops()
    tens_flops = tensorised_apply_flops(p, dim) * mesh.n_elem
    depth = float(mesh.leaves.levels.mean())
    bytes_model = _model_bytes_per_element(p, dim, levels=depth) * mesh.n_elem
    ai = tens_flops / bytes_model
    dense_ai = dense_flops / bytes_model
    return RooflinePoint(
        label=f"poisson-p{p}-{dim}d",
        p=p,
        arithmetic_intensity=float(ai),
        dense_ai=float(dense_ai),
        measured_gflops=dense_flops / seconds["map"],
        model_gflops=machine.kernel_rate(p),
        bandwidth_bound_gflops=float(ai * machine.mem_bw),
        compiled_gflops=compiled.flops() / seconds["compiled"],
        map_executed_ai=mv.flops() / mv.traffic_bytes(),
        compiled_executed_ai=compiled.flops() / compiled.traffic_bytes(),
    )


def roofline_ceilings(
    machine: MachineModel = FRONTERA, peak_gflops: float = 86.4e9
) -> dict:
    """The two roofline ceilings: memory slope and compute peak.

    ``peak_gflops`` defaults to one Cascade-Lake core's DP peak
    (2.7 GHz × 2 FMA × 16 DP lanes).
    """
    return {
        "memory_bw": machine.mem_bw,
        "peak_flops": peak_gflops,
        "ridge_ai": peak_gflops / machine.mem_bw,
    }


@dataclass
class MeasuredKernel:
    """One kernel × backend cell measured by the :mod:`repro.kernels`
    facade counters — the *achieved* side of predicted-vs-achieved."""

    kernel: str
    backend: str
    calls: int
    flops: float
    bytes: float
    seconds: float
    arithmetic_intensity: float    # flops / bytes (measured)
    achieved_gflops: float         # flops / seconds
    roofline_gflops: float         # min(peak, AI × mem_bw)
    fraction_of_peak: float        # achieved / roofline ceiling

    def to_doc(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def _parse_counter_key(key: str) -> tuple[str, dict]:
    """Split a rendered counter key ``name{k="v",...}`` into its base
    name and label dict (the inverse of the registry's ``_render``)."""
    if "{" not in key:
        return key, {}
    base, _, rest = key.partition("{")
    labels = {}
    for part in rest.rstrip("}").split(","):
        if "=" not in part:
            continue
        k, _, v = part.partition("=")
        labels[k.strip()] = v.strip().strip('"')
    return base, labels


def _counters_of(source) -> dict:
    """Flat counter dict from a live registry (None), an obs summary /
    run artifact document, or a JSON artifact path."""
    if source is None:
        from ..obs.counters import REGISTRY

        return dict(REGISTRY.snapshot().get("counters", {}))
    if isinstance(source, str):
        with open(source) as fh:
            source = json.load(fh)
    if isinstance(source, dict):
        metrics = source.get("metrics", source)
        return dict(metrics.get("counters", metrics))
    raise TypeError(f"cannot read kernel counters from {type(source)!r}")


def measured_kernel_points(
    source=None,
    machine: MachineModel = FRONTERA,
    peak_flops: float = 86.4e9,
) -> list[MeasuredKernel]:
    """Achieved roofline points from the kernel-facade counters.

    ``source`` may be None (the live metrics registry), an obs
    ``summary()`` / run-artifact document, or a path to a written
    artifact.  Every ``kernels.*{backend=,kernel=}`` counter family is
    grouped into one :class:`MeasuredKernel` per (kernel, backend) with
    measured AI, achieved GFLOP/s, the roofline ceiling at that AI, and
    the achieved fraction of that ceiling."""
    counters = _counters_of(source)
    cells: dict[tuple[str, str], dict] = {}
    for key, val in counters.items():
        base, labels = _parse_counter_key(key)
        if not base.startswith("kernels."):
            continue
        field = base.split(".", 1)[1]
        if field not in ("calls", "flops", "bytes", "seconds"):
            continue
        kb = (labels.get("kernel", "?"), labels.get("backend", "?"))
        cells.setdefault(kb, {})[field] = float(val)
    out = []
    for (kernel, backend), c in sorted(cells.items()):
        flops = c.get("flops", 0.0)
        nbytes = c.get("bytes", 0.0)
        secs = c.get("seconds", 0.0)
        ai = flops / nbytes if nbytes > 0 else 0.0
        achieved = flops / secs if secs > 0 else 0.0
        ceiling = min(peak_flops, ai * machine.mem_bw) if ai > 0 else peak_flops
        out.append(
            MeasuredKernel(
                kernel=kernel,
                backend=backend,
                calls=int(c.get("calls", 0)),
                flops=flops,
                bytes=nbytes,
                seconds=secs,
                arithmetic_intensity=ai,
                achieved_gflops=achieved,
                roofline_gflops=ceiling,
                fraction_of_peak=achieved / ceiling if ceiling > 0 else 0.0,
            )
        )
    return out
