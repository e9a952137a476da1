"""The `IncompleteMesh` facade: construction → balance → nodes in one call.

This is the main public entry point of the library::

    from repro import build_mesh, Domain
    from repro.geometry import SphereCarve

    domain = Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)
    mesh = build_mesh(domain, base_level=3, boundary_level=6, p=1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.predicate import RegionLabel
from ..obs import set_gauge, span
from .balance import balance_2to1, is_balanced
from .construct import construct_adaptive, construct_uniform
from .domain import Domain
from .nodes import MeshNodes, build_nodes
from .octant import OctantSet
from .sfc import get_curve

__all__ = ["IncompleteMesh", "build_mesh", "build_uniform_mesh", "mesh_from_leaves"]


@dataclass
class IncompleteMesh:
    """An adaptively refined, 2:1-balanced incomplete-octree FEM grid."""

    domain: Domain
    leaves: OctantSet
    labels: np.ndarray  # RegionLabel per leaf
    nodes: MeshNodes
    p: int
    curve: str = "morton"

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_elem(self) -> int:
        return len(self.leaves)

    @property
    def n_nodes(self) -> int:
        return self.nodes.n_glob

    @property
    def npe(self) -> int:
        return self.nodes.npe

    @property
    def boundary_elements(self) -> np.ndarray:
        """Indices of elements intercepted by the subdomain boundary."""
        return np.flatnonzero(self.labels == RegionLabel.RETAIN_BOUNDARY)

    def element_sizes(self) -> np.ndarray:
        """Physical side length of every (isotropic) element."""
        return self.leaves.sizes.astype(np.float64) * self.domain.h_unit

    def element_centers(self) -> np.ndarray:
        return self.domain.octant_centers(self.leaves)

    def node_coords(self) -> np.ndarray:
        """Physical coordinates of the global nodes."""
        return self.nodes.physical_coords()

    @property
    def dirichlet_mask(self) -> np.ndarray:
        """Nodes where Dirichlet data is imposed by default: the carved
        (subdomain-boundary) nodes plus the root-cube boundary nodes
        that are retained."""
        return self.nodes.carved_node | self.nodes.domain_boundary

    def summary(self) -> str:
        lv = self.leaves.levels
        return (
            f"IncompleteMesh(dim={self.dim}, p={self.p}, "
            f"elements={self.n_elem}, nodes={self.n_nodes}, "
            f"levels={int(lv.min())}..{int(lv.max())}, "
            f"hanging_slots={self.nodes.n_hanging_slots}, "
            f"boundary_elems={len(self.boundary_elements)})"
        )


def mesh_from_leaves(
    domain: Domain,
    leaves: OctantSet,
    p: int = 1,
    curve: str = "morton",
    balance: bool = True,
    check: bool = False,
) -> IncompleteMesh:
    """Wrap an existing leaf set (balancing it first unless told not to).

    Raises :class:`repro.core.nodes.EmptyMeshError` when no leaf is left.
    """
    if balance:
        leaves = balance_2to1(domain, leaves, curve)
    if check and not is_balanced(leaves, curve):
        raise RuntimeError("leaf set is not 2:1 balanced")
    labels = domain.classify_octants(leaves)
    nodes = build_nodes(domain, leaves, p, curve)
    name = get_curve(curve).name
    mesh = IncompleteMesh(domain, leaves, labels, nodes, p, name)
    set_gauge("mesh.n_elem", mesh.n_elem)
    set_gauge("mesh.n_nodes", mesh.n_nodes)
    return mesh


def build_mesh(
    domain: Domain,
    base_level: int,
    boundary_level: int | None = None,
    p: int = 1,
    curve: str = "morton",
    extra_refine=None,
    balance: bool = True,
) -> IncompleteMesh:
    """Construct a boundary-adapted mesh for ``domain``.

    Retained regions refine to ``base_level``; octants intercepting the
    carved boundary refine to ``boundary_level`` (default: base).
    """
    if boundary_level is None:
        boundary_level = base_level
    with span("build_mesh") as sp:
        leaves = construct_adaptive(
            domain, base_level, boundary_level, curve, extra_refine=extra_refine
        )
        mesh = mesh_from_leaves(domain, leaves, p, curve, balance=balance)
        sp.add("elements", mesh.n_elem)
        sp.add("nodes", mesh.n_nodes)
    return mesh


def build_uniform_mesh(
    domain: Domain, level: int, p: int = 1, curve: str = "morton"
) -> IncompleteMesh:
    """Uniform-level mesh covering the subdomain (Algorithm 1)."""
    leaves = construct_uniform(domain, level, curve)
    return mesh_from_leaves(domain, leaves, p, curve, balance=False)
