"""Core incomplete-octree algorithms (the paper's primary contribution)."""

from .adapt import AdaptMap, coarsen_leaves, leaf_correspondence, refine_leaves
from .balance import balance_2to1, is_balanced
from .construct import construct_adaptive, construct_constrained, construct_uniform
from .distributed import dist_tree_sort, distributed_construct_constrained
from .domain import Domain
from .faces import extract_boundary_faces
from .mesh import IncompleteMesh, build_mesh, build_uniform_mesh
from .nodes import EmptyMeshError, MeshNodes, build_nodes
from .octant import OctantSet, max_level
from .plan import (
    OperatorContext,
    TraversalPlan,
    mesh_fingerprint,
    operator_context,
)
from .sfc import HilbertOrder, MortonOrder, get_curve
from .treesort import linearize, tree_sort

__all__ = [
    "OctantSet",
    "max_level",
    "MortonOrder",
    "HilbertOrder",
    "get_curve",
    "tree_sort",
    "linearize",
    "construct_uniform",
    "construct_constrained",
    "construct_adaptive",
    "balance_2to1",
    "is_balanced",
    "Domain",
    "build_nodes",
    "EmptyMeshError",
    "MeshNodes",
    "IncompleteMesh",
    "build_mesh",
    "build_uniform_mesh",
    "extract_boundary_faces",
    "OperatorContext",
    "TraversalPlan",
    "operator_context",
    "mesh_fingerprint",
    "AdaptMap",
    "refine_leaves",
    "coarsen_leaves",
    "leaf_correspondence",
    "dist_tree_sort",
    "distributed_construct_constrained",
]
