"""``update_mesh``: the name of a retired incremental mesh update.

The AMR loop rebuilds every refined mesh through
:func:`repro.core.mesh.mesh_from_leaves`; nothing in the package calls
this module.  It stays importable because the e2e benchmark's span
shims resolve ``repro.core.plan_delta:update_mesh`` by name
(``benchmarks/e2e/spans.py``).
"""

from __future__ import annotations

from .mesh import IncompleteMesh, mesh_from_leaves
from .octant import OctantSet

__all__ = ["update_mesh"]


def update_mesh(old_mesh: IncompleteMesh, new_leaves: OctantSet) -> IncompleteMesh:
    """The mesh of the SFC-sorted, 2:1-balanced ``new_leaves`` on
    ``old_mesh``'s domain, order and curve: a full rebuild."""
    return mesh_from_leaves(
        old_mesh.domain, new_leaves, p=old_mesh.p, curve=old_mesh.curve,
        balance=False,
    )
