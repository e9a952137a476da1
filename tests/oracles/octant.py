"""Closed-cell point containment of an octant set."""

from __future__ import annotations

import numpy as np

from repro.core.octant import OctantSet


def contains(oset: OctantSet, points: np.ndarray) -> np.ndarray:
    """Boolean ``(N, P)`` matrix: octant i contains (closed) point j.

    ``points`` are integer anchor-unit coordinates, ``(P, dim)``.
    Containment is in the *closed* cell (boundary points count), which is
    what nodal-ownership queries need.
    """
    lo, hi = oset.bounds()
    p = np.asarray(points, dtype=np.int64)
    return np.all((p[None] >= lo[:, None]) & (p[None] <= hi[:, None]), axis=2)
