"""Simulated distributed-memory substrate (see DESIGN.md).

Mesh-dependent pieces are exported lazily (PEP 562) to avoid import
cycles with :mod:`repro.core`.
"""

from .partition import partition_weights, shrink_splits
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

_LAZY = {
    "partition_mesh": ("partition", "partition_mesh"),
    "PartitionLayout": ("ghost", "PartitionLayout"),
    "analyze_partition": ("ghost", "analyze_partition"),
    "ExchangePlan": ("ghost", "ExchangePlan"),
    "exchange_plan": ("ghost", "exchange_plan"),
    "distributed_matvec": ("dist_matvec", "distributed_matvec"),
    "MachineModel": ("perfmodel", "MachineModel"),
    "FRONTERA": ("perfmodel", "FRONTERA"),
    "MatvecPhases": ("perfmodel", "MatvecPhases"),
    "model_matvec": ("perfmodel", "model_matvec"),
    "rank_statistics": ("perfmodel", "rank_statistics"),
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        mod, attr = _LAZY[name]
        return getattr(importlib.import_module(f".{mod}", __name__), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
