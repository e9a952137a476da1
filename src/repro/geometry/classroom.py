"""The §5 classroom scene: complex furniture carved via CSG.

A room of footprint 4.83 × 3.34 and unit height (the paper's
non-dimensional domain) containing rows of desks, seated mannequins
(capsule torso + sphere head), optional monitors, and a standing
instructor.  Ceiling velocity inlets and pressure outlets drive the
ventilation flow (Re = 10⁵ on room height in the paper; the
reproduction solves laminar-scale surrogates, see DESIGN.md).

Everything is an In–Out test: the octree carver only ever queries the
CSG predicate, which is the paper's central interface claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predicate import SubdomainPredicate
from .primitives import BoxCarve, BoxRetain, CapsuleCarve, CarveUnion, SphereCarve

__all__ = ["ClassroomScene"]

ROOM_X, ROOM_Y, ROOM_Z = 4.83, 3.34, 1.0


@dataclass
class ClassroomScene:
    """Parametric classroom: geometry, BCs and source locations."""

    n_rows: int = 2
    n_cols: int = 3
    with_monitors: bool = True
    infected: int = 0  # mannequin index (row-major) who coughs

    desk_h: float = 0.32
    desk_size: tuple = (0.55, 0.35, 0.03)

    def __post_init__(self):
        self._layout()

    def _layout(self) -> None:
        xs = np.linspace(0.9, ROOM_X - 1.2, self.n_cols)
        ys = np.linspace(0.7, ROOM_Y - 0.7, self.n_rows)
        self.seats = [(x, y) for y in ys for x in xs]
        parts: list[SubdomainPredicate] = []
        dx, dy, dz = self.desk_size
        for x, y in self.seats:
            # desk top (a thin slab) with the sitter behind it (+x side)
            parts.append(
                BoxCarve(
                    [x - dx / 2, y - dy / 2, self.desk_h],
                    [x + dx / 2, y + dy / 2, self.desk_h + dz],
                )
            )
            if self.with_monitors:
                # thick enough to be carved (not just intercepted) at
                # the achievable boundary refinement of the examples
                parts.append(
                    BoxCarve(
                        [x - 0.16, y - dy / 2, self.desk_h + dz],
                        [x + 0.16, y - dy / 2 + 0.10, self.desk_h + dz + 0.30],
                    )
                )
            # seated mannequin: torso capsule + head sphere
            px, py = x, y + dy / 2 + 0.12
            parts.append(CapsuleCarve([px, py, 0.12], [px, py, 0.42], 0.09))
            parts.append(SphereCarve([px, py, 0.50], 0.07))
        # standing instructor near the front wall
        ix, iy = ROOM_X - 0.5, ROOM_Y / 2
        parts.append(CapsuleCarve([ix, iy, 0.05], [ix, iy, 0.62], 0.10))
        parts.append(SphereCarve([ix, iy, 0.72], 0.08))
        self.instructor = (ix, iy)
        room = BoxRetain(
            [0, 0, 0],
            [ROOM_X, ROOM_Y, ROOM_Z],
            domain=([0, 0, 0], [ROOM_X, ROOM_X, ROOM_X]),
        )
        self.room = room
        self.predicate = CarveUnion([room] + parts)
        self.objects = CarveUnion(parts)  # without the room shell
        # ceiling ventilation: inlets along the centreline, outlets near
        # the side walls (x, y, radius)
        self.inlets = [
            (ROOM_X * fx, ROOM_Y / 2, 0.22) for fx in (0.25, 0.5, 0.75)
        ]
        self.outlets = [
            (ROOM_X * fx, fy, 0.20)
            for fx in (0.2, 0.8)
            for fy in (0.35, ROOM_Y - 0.35)
        ]

    def domain(self):
        from ..core.domain import Domain  # deferred: avoids import cycle

        return Domain(self.predicate, scale=ROOM_X)

    # -- boundary conditions ---------------------------------------------

    def _in_patch(self, pts: np.ndarray, patches) -> np.ndarray:
        hit = np.zeros(len(pts), bool)
        for (cx, cy, r) in patches:
            hit |= (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 <= r * r
        return hit

    def velocity_bc(self, mesh, inlet_speed: float = 1.0):
        """Strong velocity data: ceiling inlets blow downwards, all
        solid surfaces (walls, floor, furniture, mannequins) no-slip;
        ceiling outlet patches are left free (pressure outlets)."""
        pts = mesh.node_coords()
        n = len(pts)
        mask = np.zeros((n, 3), bool)
        vals = np.zeros((n, 3))
        # the ceiling plane z = ROOM_Z is generally not grid-aligned, so
        # the ceiling surface of the retained mesh is the voxelated layer
        # of carved nodes at z >= ROOM_Z
        top = mesh.nodes.carved_node & (pts[:, 2] >= ROOM_Z - 1e-9)
        inlet = top & self._in_patch(pts, self.inlets)
        outlet = top & self._in_patch(pts, self.outlets)
        solid = mesh.nodes.carved_node | mesh.nodes.domain_boundary
        mask[solid] = True
        vals[solid] = 0.0
        mask[inlet] = True
        vals[inlet] = [0.0, 0.0, -inlet_speed]
        # outlets: natural BC on velocity, pressure pinned
        mask[outlet] = False
        return mask, vals, outlet

    def cough_source(self, sigma: float = 0.12, rate: float = 1.0):
        """Gaussian viral-load source at the infected person's head."""
        x0, y0 = self.seats[self.infected]
        dy = self.desk_size[1]
        c = np.array([x0, y0 + dy / 2 + 0.12, 0.55])

        def source(pts):
            d2 = ((pts - c) ** 2).sum(axis=1)
            return rate * np.exp(-d2 / (2 * sigma**2))

        return source

    def breathing_zones(self) -> list[np.ndarray]:
        """Sampling spheres (centre, radius) around every head — the
        exposure metric locations."""
        dy = self.desk_size[1]
        return [
            np.array([x, y + dy / 2 + 0.12, 0.50, 0.18]) for (x, y) in self.seats
        ]
