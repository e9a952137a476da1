"""Analytic subdomain predicates: spheres, boxes, channels, CSG.

Each primitive implements the conservative-exact interval tests required
by :class:`~repro.geometry.predicate.SubdomainPredicate`.  For the
primitives below, the cell tests are *exact* (no over-marking of
boundary cells), which the mesh-size experiments rely on.

Naming convention: ``XxxCarve`` removes the region (C = the shape),
``XxxRetain`` keeps only the region (C = complement of the shape's
interior) — e.g. :class:`SphereCarve` cuts a ball out of the cube (the
flow-past-a-sphere case) while :class:`SphereRetain` keeps a disk/ball
domain (the Fig. 6 convergence case); :class:`BoxRetain` carves
everything outside a subrectangle (the channel cases).
"""

from __future__ import annotations

import numpy as np

from .predicate import RegionLabel, SubdomainPredicate

__all__ = [
    "SphereCarve",
    "SphereRetain",
    "BoxCarve",
    "BoxRetain",
    "CapsuleCarve",
    "CarveUnion",
]


def _labels(carved: np.ndarray, internal: np.ndarray) -> np.ndarray:
    out = np.full(len(carved), RegionLabel.RETAIN_BOUNDARY, np.uint8)
    out[internal] = RegionLabel.RETAIN_INTERNAL
    out[carved] = RegionLabel.CARVED
    return out


def _closest_in_cell(lo, hi, point):
    """Closest point of each cell [lo,hi] to ``point``; (N, dim)."""
    return np.clip(point[None, :], lo, hi)


def _farthest_in_cell(lo, hi, point):
    """Farthest corner of each cell from ``point``; (N, dim)."""
    return np.where(point[None, :] - lo > hi - point[None, :], lo, hi)


class SphereCarve(SubdomainPredicate):
    """C = closed ball of ``radius`` about ``center`` (object carved out)."""

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.dim = len(self.center)
        if not np.isfinite(self.center).all():
            raise ValueError(f"center must be finite, got {self.center}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    def classify_cells(self, lo, hi):
        near = _closest_in_cell(lo, hi, self.center)
        far = _farthest_in_cell(lo, hi, self.center)
        dnear = np.linalg.norm(near - self.center, axis=1)
        dfar = np.linalg.norm(far - self.center, axis=1)
        carved = dfar <= self.radius           # whole closed cell inside ball
        internal = dnear > self.radius         # closed cell misses closed ball
        return _labels(carved, internal)

    def carved_points(self, pts):
        d = np.linalg.norm(np.asarray(pts, float) - self.center, axis=1)
        return d <= self.radius

    def boundary_distance(self, pts):
        d = np.linalg.norm(np.asarray(pts, float) - self.center, axis=1)
        return self.radius - d

    def boundary_projection(self, pts):
        v = np.asarray(pts, float) - self.center
        n = np.linalg.norm(v, axis=1, keepdims=True)
        n = np.where(n == 0, 1.0, n)
        return self.center + v / n * self.radius


class SphereRetain(SubdomainPredicate):
    """C = complement of the open ball: only the disk/ball is retained."""

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.dim = len(self.center)

    def classify_cells(self, lo, hi):
        near = _closest_in_cell(lo, hi, self.center)
        far = _farthest_in_cell(lo, hi, self.center)
        dnear = np.linalg.norm(near - self.center, axis=1)
        dfar = np.linalg.norm(far - self.center, axis=1)
        carved = dnear >= self.radius          # closed cell misses open ball
        internal = dfar < self.radius          # closed cell inside open ball
        return _labels(carved, internal)

    def carved_points(self, pts):
        d = np.linalg.norm(np.asarray(pts, float) - self.center, axis=1)
        return d >= self.radius

    def boundary_distance(self, pts):
        d = np.linalg.norm(np.asarray(pts, float) - self.center, axis=1)
        return d - self.radius

    def boundary_projection(self, pts):
        v = np.asarray(pts, float) - self.center
        n = np.linalg.norm(v, axis=1, keepdims=True)
        n = np.where(n == 0, 1.0, n)
        return self.center + v / n * self.radius


class BoxCarve(SubdomainPredicate):
    """C = the closed axis-aligned box [blo, bhi] (solid obstacle)."""

    def __init__(self, blo, bhi):
        self.blo = np.asarray(blo, dtype=np.float64)
        self.bhi = np.asarray(bhi, dtype=np.float64)
        self.dim = len(self.blo)
        if np.any(self.bhi <= self.blo):
            raise ValueError("box must have positive extent on every axis")

    def classify_cells(self, lo, hi):
        # cell ⊆ closed box
        carved = np.all((lo >= self.blo) & (hi <= self.bhi), axis=1)
        # closed cell disjoint from closed box
        internal = np.any((hi < self.blo) | (lo > self.bhi), axis=1)
        return _labels(carved, internal)

    def carved_points(self, pts):
        p = np.asarray(pts, float)
        return np.all((p >= self.blo) & (p <= self.bhi), axis=1)

    def boundary_distance(self, pts):
        p = np.asarray(pts, float)
        q = np.clip(p, self.blo, self.bhi)
        outside = np.linalg.norm(p - q, axis=1)
        inside = np.minimum(p - self.blo, self.bhi - p).min(axis=1)
        return np.where(outside > 0, -outside, inside)

    def boundary_projection(self, pts):
        p = np.asarray(pts, float)
        q = np.clip(p, self.blo, self.bhi)
        out = q.copy()
        ins = np.all(p == q, axis=1)
        if np.any(ins):
            # snap interior points to the nearest face
            pi = p[ins]
            gaps = np.stack([pi - self.blo, self.bhi - pi], axis=2)  # (n,dim,2)
            flat = gaps.reshape(len(pi), -1)
            k = np.argmin(flat, axis=1)
            axis, side = k // 2, k % 2
            snapped = pi.copy()
            rows = np.arange(len(pi))
            snapped[rows, axis] = np.where(side == 0, self.blo[axis], self.bhi[axis])
            out[ins] = snapped
        return out


class BoxRetain(SubdomainPredicate):
    """C = Ω minus the open box: only the subrectangle is retained.

    This is the anisotropic-channel predicate: a ``16×1×1`` channel is a
    retained box inside a ``16³`` cube.  Faces of the retain box listed
    in ``open_axes_lo`` / ``open_axes_hi`` (or faces coinciding with the
    ``domain`` cube when given) are treated as *not* part of ∂C, so that
    channel inlets/outlets at the domain boundary are not marked carved.
    """

    def __init__(self, blo, bhi, domain: "tuple | None" = None):
        self.blo = np.asarray(blo, dtype=np.float64)
        self.bhi = np.asarray(bhi, dtype=np.float64)
        self.dim = len(self.blo)
        # effective comparison bounds: faces flush with the domain cube
        # extend to infinity (they are domain boundary, not ∂C)
        eff_lo = self.blo.copy()
        eff_hi = self.bhi.copy()
        if domain is not None:
            dlo, dhi = (np.asarray(b, float) for b in domain)
            eff_lo[self.blo <= dlo] = -np.inf
            eff_hi[self.bhi >= dhi] = np.inf
        self._eff_lo = eff_lo
        self._eff_hi = eff_hi

    def classify_cells(self, lo, hi):
        # closed cell inside the open effective box -> internal
        internal = np.all((lo > self._eff_lo) & (hi < self._eff_hi), axis=1)
        # closed cell disjoint from the open box -> carved
        carved = np.any((hi <= self._eff_lo) | (lo >= self._eff_hi), axis=1)
        return _labels(carved, internal)

    def carved_points(self, pts):
        p = np.asarray(pts, float)
        return np.any((p <= self._eff_lo) | (p >= self._eff_hi), axis=1)

    def boundary_distance(self, pts):
        # positive in C (outside the open box)
        p = np.asarray(pts, float)
        lo = np.where(np.isinf(self._eff_lo), -1e300, self._eff_lo)
        hi = np.where(np.isinf(self._eff_hi), 1e300, self._eff_hi)
        q = np.clip(p, lo, hi)
        outside = np.linalg.norm(p - q, axis=1)
        inside = np.minimum(p - lo, hi - p).min(axis=1)
        return np.where(outside > 0, outside, -inside)

    def boundary_projection(self, pts):
        box = BoxCarve(
            np.where(np.isinf(self._eff_lo), -1e300, self._eff_lo),
            np.where(np.isinf(self._eff_hi), 1e300, self._eff_hi),
        )
        return box.boundary_projection(pts)


class CapsuleCarve(SubdomainPredicate):
    """C = closed capsule (segment p0–p1 inflated by ``radius``).

    Used for mannequin limbs/torso in the classroom scene.
    """

    def __init__(self, p0, p1, radius: float):
        self.p0 = np.asarray(p0, dtype=np.float64)
        self.p1 = np.asarray(p1, dtype=np.float64)
        self.radius = float(radius)
        self.dim = len(self.p0)
        self._d = self.p1 - self.p0
        self._len2 = float(np.dot(self._d, self._d))

    def _seg_dist(self, pts):
        p = np.asarray(pts, float)
        if self._len2 == 0:
            return np.linalg.norm(p - self.p0, axis=1)
        t = np.clip((p - self.p0) @ self._d / self._len2, 0.0, 1.0)
        proj = self.p0 + t[:, None] * self._d
        return np.linalg.norm(p - proj, axis=1)

    def classify_cells(self, lo, hi):
        # conservative via cell circumsphere around the centre
        c = 0.5 * (lo + hi)
        rad = 0.5 * np.linalg.norm(hi - lo, axis=1)
        d = self._seg_dist(c)
        carved = d + rad <= self.radius
        internal = d - rad > self.radius
        return _labels(carved, internal)

    def carved_points(self, pts):
        return self._seg_dist(pts) <= self.radius

    def boundary_distance(self, pts):
        return self.radius - self._seg_dist(pts)


class CarveUnion(SubdomainPredicate):
    """C = union of the carved sets of several predicates.

    The natural combinator for scenes with multiple objects (classroom:
    tables ∪ monitors ∪ mannequins, plus a BoxRetain for the room).
    """

    def __init__(self, predicates):
        self.parts = list(predicates)
        if not self.parts:
            raise ValueError("CarveUnion needs at least one predicate")
        self.dim = self.parts[0].dim
        if any(p.dim != self.dim for p in self.parts):
            raise ValueError("all predicates must share a dimension")

    def classify_cells(self, lo, hi):
        carved = np.zeros(len(lo), bool)
        internal = np.ones(len(lo), bool)
        for p in self.parts:
            lab = p.classify_cells(lo, hi)
            carved |= lab == RegionLabel.CARVED
            internal &= lab == RegionLabel.RETAIN_INTERNAL
        return _labels(carved, internal)

    def carved_points(self, pts):
        out = np.zeros(len(pts), bool)
        for p in self.parts:
            out |= p.carved_points(pts)
        return out

    def boundary_distance(self, pts):
        # signed distance to the union: max of member signed distances
        return np.max([p.boundary_distance(pts) for p in self.parts], axis=0)

    def boundary_projection(self, pts):
        # project onto the member whose boundary is closest
        dists = np.stack([p.boundary_distance(pts) for p in self.parts])
        best = np.argmax(dists, axis=0)
        projs = np.stack([p.boundary_projection(pts) for p in self.parts])
        return projs[best, np.arange(len(pts))]
