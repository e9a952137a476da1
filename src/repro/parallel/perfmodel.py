"""Performance model: measured partitions → modelled wall-clock times.

The reproduction substitutes Frontera with an explicit machine model
(DESIGN.md).  Everything *structural* — per-rank element counts, ghost
node counts, message counts, leaf depths — is measured from the real
meshes and partitions built by this repo; only the conversion to
seconds uses the model below, calibrated to the paper's single-core
roofline measurements (≈4 GFLOP/s for linear, ≈7 GFLOP/s for quadratic
elemental kernels, ≈60 GB/s achieved bandwidth) and typical HPC
interconnect parameters.

The modelled MATVEC phases match the paper's breakdown: top-down
traversal, leaf MATVEC, bottom-up traversal, communication (ghost
exchange), and malloc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.mesh import IncompleteMesh
from .ghost import PartitionLayout

__all__ = ["MachineModel", "MatvecPhases", "rank_statistics", "model_matvec", "FRONTERA"]


@dataclass(frozen=True)
class MachineModel:
    """Frontera-like per-core and network parameters."""

    name: str = "frontera-clx-model"
    #: achieved elemental-kernel rate by element order (FLOP/s)
    gflops_linear: float = 4.0e9
    gflops_quadratic: float = 7.0e9
    #: achieved memory bandwidth per core (B/s)
    mem_bw: float = 60.0e9
    #: network message latency (s) and per-rank effective bandwidth (B/s)
    net_latency: float = 2.0e-6
    net_bw: float = 2.5e9
    #: buffer management overheads
    malloc_base: float = 2.0e-6
    malloc_per_node: float = 1.0e-9
    #: duplication factor of top-down node bucketing (nodes shared by
    #: several children are copied once per child)
    dup_factor: float = 1.35

    def kernel_rate(self, p: int) -> float:
        if p == 1:
            return self.gflops_linear
        if p == 2:
            return self.gflops_quadratic
        # interpolate in arithmetic-intensity terms for other orders
        return self.gflops_quadratic * (p / 2.0) ** 0.25

    def leaf_flops_per_element(self, p: int, dim: int) -> float:
        """Leaf-MATVEC work per element, including quadrature-based
        elemental operator formation: ≈ 20·d·(p+1)^(d+2) FLOPs.

        Calibrated to the paper's measured per-element times: 13.5M
        linear elements in 2.87 s × 224 cores per 100 MATVECs gives
        ≈ 480 ns/element at 4 GFLOP/s ⇒ ≈ 1.9 kFLOP (p=1, d=3); the
        (p+1)^(d+2) growth reproduces the observed 4.2× quadratic vs
        linear time ratio once the 7/4 GFLOP/s rate gap is applied.
        """
        return 20.0 * dim * (p + 1) ** (dim + 2)


FRONTERA = MachineModel()


@dataclass
class MatvecPhases:
    """Per-rank modelled phase times (seconds) of one MATVEC."""

    top_down: np.ndarray
    leaf: np.ndarray
    bottom_up: np.ndarray
    comm: np.ndarray
    malloc: np.ndarray

    def per_rank_total(self) -> np.ndarray:
        return self.top_down + self.leaf + self.bottom_up + self.comm + self.malloc

    @property
    def time(self) -> float:
        """Execution time of the MATVEC: the slowest rank."""
        return float(self.per_rank_total().max())

    def breakdown(self) -> dict[str, float]:
        """Phase times of the critical (slowest) rank."""
        r = int(np.argmax(self.per_rank_total()))
        return {
            "top_down": float(self.top_down[r]),
            "leaf": float(self.leaf[r]),
            "bottom_up": float(self.bottom_up[r]),
            "comm": float(self.comm[r]),
            "malloc": float(self.malloc[r]),
        }

    def parallel_cost(self) -> float:
        """Run time × number of ranks (the strong-scaling metric)."""
        return self.time * len(self.leaf)


@dataclass
class RankStats:
    """Measured per-rank workload statistics."""

    n_elem: np.ndarray
    n_ref_nodes: np.ndarray      # nodes referenced (owned-ref + ghosts)
    ghost_nodes: np.ndarray
    messages: np.ndarray
    mean_leaf_depth: np.ndarray


def rank_statistics(mesh: IncompleteMesh, layout: PartitionLayout) -> RankStats:
    splits = layout.splits
    nranks = layout.nranks
    n_elem = np.diff(splits).astype(np.int64)
    depth = np.zeros(nranks)
    lv = mesh.leaves.levels.astype(np.float64)
    for r in range(nranks):
        lo, hi = splits[r], splits[r + 1]
        depth[r] = lv[lo:hi].mean() if hi > lo else 0.0
    return RankStats(
        n_elem=n_elem,
        n_ref_nodes=layout.local_counts,
        ghost_nodes=layout.ghost_counts,
        messages=layout.message_counts(),
        mean_leaf_depth=depth,
    )


def model_matvec(
    stats: RankStats,
    p: int,
    dim: int,
    machine: MachineModel = FRONTERA,
    dofs_per_node: int = 1,
    active_elem: np.ndarray | None = None,
) -> MatvecPhases:
    """Model one MATVEC from measured rank statistics.

    ``active_elem`` overrides the per-rank element counts that do real
    FEM work (used for the complete-octree baseline, whose partitions
    contain inactive void elements that cost traversal but are load-
    imbalanced in the leaf phase).
    """
    work = stats.n_elem if active_elem is None else np.asarray(active_elem)
    flops = machine.leaf_flops_per_element(p, dim) * dofs_per_node**2
    leaf = work * flops / machine.kernel_rate(p)
    # traversal phases: every referenced node is copied down (and merged
    # up) once per tree level on average, with duplication
    td_bytes = (
        8.0
        * dofs_per_node
        * stats.n_ref_nodes
        * stats.mean_leaf_depth
        * machine.dup_factor
    )
    top_down = td_bytes / machine.mem_bw
    bottom_up = 1.15 * top_down  # accumulation also reads the child buffer
    # ghost exchange before and after the local traversals
    comm = 2.0 * (
        machine.net_latency * np.maximum(stats.messages, 1)
        + 8.0 * dofs_per_node * stats.ghost_nodes / machine.net_bw
    )
    nranks = len(work)
    comm = comm + machine.net_latency * np.log2(max(nranks, 2))
    malloc = (
        machine.malloc_base
        + machine.malloc_per_node * dofs_per_node * stats.n_ref_nodes
    )
    malloc = np.full(nranks, machine.malloc_base) + (
        machine.malloc_per_node * dofs_per_node * stats.n_ref_nodes
    )
    return MatvecPhases(
        top_down=top_down,
        leaf=leaf,
        bottom_up=bottom_up,
        comm=comm,
        malloc=malloc,
    )
