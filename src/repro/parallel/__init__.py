"""Simulated distributed-memory substrate (see DESIGN.md)."""

from .dist_matvec import distributed_matvec
from .ghost import ExchangePlan, PartitionLayout, analyze_partition, exchange_plan
from .partition import partition_mesh, partition_weights, shrink_splits
from .perfmodel import (
    FRONTERA,
    MachineModel,
    MatvecPhases,
    model_matvec,
    rank_statistics,
)
from .simmpi import SimComm, TrafficCounters

__all__ = [
    "SimComm",
    "TrafficCounters",
    "partition_weights",
    "shrink_splits",
    "partition_mesh",
    "PartitionLayout",
    "analyze_partition",
    "ExchangePlan",
    "exchange_plan",
    "distributed_matvec",
    "MachineModel",
    "FRONTERA",
    "MatvecPhases",
    "model_matvec",
    "rank_statistics",
]
