"""repro: Scalable adaptive PDE solvers in arbitrary domains.

Reproduction of the SC'21 incomplete-octree framework: adaptive
tree-based mesh generation that *carves* arbitrary void regions from a
cubic domain, with traversal-based matrix-free finite-element
computation, 2:1 balancing, hanging-node handling via cancellation
nodes, simulated-MPI scaling studies, and the paper's full evaluation
harness (see DESIGN.md / EXPERIMENTS.md).

Quickstart::

    import numpy as np
    from repro import Domain, build_mesh
    from repro.geometry import SphereCarve
    from repro.fem.poisson import PoissonProblem

    domain = Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)
    mesh = build_mesh(domain, base_level=3, boundary_level=6, p=1)
    u = PoissonProblem(mesh, f=1.0, dirichlet=0.0).solve()
"""

from .core.assembly import assemble
from .core.domain import Domain
from .core.matvec import MapBasedMatVec, traversal_matvec
from .core.mesh import IncompleteMesh, build_mesh, build_uniform_mesh, mesh_from_leaves
from .core.octant import OctantSet, max_level

__version__ = "1.0.0"

__all__ = [
    "Domain",
    "IncompleteMesh",
    "build_mesh",
    "build_uniform_mesh",
    "mesh_from_leaves",
    "OctantSet",
    "max_level",
    "MapBasedMatVec",
    "traversal_matvec",
    "assemble",
]
