"""Physical domain: a scaled cube plus a subdomain predicate.

The octree always spans the cube ``[0, scale]**dim``; the predicate
carves arbitrary regions from it (including everything outside an
anisotropic subrectangle — the channel cases).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.predicate import EverywhereRetained, SubdomainPredicate
from .octant import OctantSet, max_level

__all__ = ["Domain"]


@dataclass
class Domain:
    """A cube ``[0, scale]**dim`` with a carving predicate.

    Parameters
    ----------
    predicate:
        The subdomain specification F (see §3.1).  ``None`` means
        nothing is carved (a complete octree).
    dim:
        Spatial dimension; defaults to the predicate's.
    scale:
        Physical side length of the cube.
    """

    predicate: SubdomainPredicate | None = None
    dim: int = field(default=-1)
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.predicate is None:
            if self.dim == -1:
                raise ValueError("must give a predicate or an explicit dim")
            self.predicate = EverywhereRetained(self.dim)
        if self.dim == -1:
            self.dim = self.predicate.dim
        elif self.dim != self.predicate.dim:
            raise ValueError(
                f"dim {self.dim} != predicate dim {self.predicate.dim}"
            )
        self.scale = float(self.scale)
        # In-Out query accounting: the paper (§5) notes the classifier
        # calls (ray tracing for mesh geometry) dominate mesh-generation
        # cost for high surface-to-volume objects — these counters let
        # benches report exactly that
        self.cell_queries = 0
        self.point_queries = 0

    def reset_query_counters(self) -> None:
        self.cell_queries = 0
        self.point_queries = 0

    @property
    def h_unit(self) -> float:
        """Physical length of one anchor unit."""
        return self.scale / (1 << max_level(self.dim))

    def classify_octants(self, oset: OctantSet) -> np.ndarray:
        """Apply F to every octant; returns RegionLabel uint8 array."""
        lo, hi = oset.physical_bounds(self.scale)
        self.cell_queries += len(oset)
        return self.predicate.classify_cells(lo, hi)

    def carved_points(self, phys_pts: np.ndarray) -> np.ndarray:
        self.point_queries += len(phys_pts)
        return self.predicate.carved_points(phys_pts)

    def octant_centers(self, oset: OctantSet) -> np.ndarray:
        lo, hi = oset.physical_bounds(self.scale)
        return 0.5 * (lo + hi)
