"""Subdomain abstraction (§3.1) and geometric predicates."""

from .classroom import ClassroomScene
from .predicate import EverywhereRetained, RegionLabel, SubdomainPredicate
from .primitives import (
    BoxCarve,
    BoxRetain,
    CapsuleCarve,
    CarveUnion,
    SphereCarve,
    SphereRetain,
)
from .trimesh import TriMesh, TriMeshCarve, dragon_blob, icosphere

__all__ = [
    "RegionLabel",
    "SubdomainPredicate",
    "EverywhereRetained",
    "SphereCarve",
    "SphereRetain",
    "BoxCarve",
    "BoxRetain",
    "CapsuleCarve",
    "CarveUnion",
    "TriMesh",
    "TriMeshCarve",
    "icosphere",
    "dragon_blob",
    "ClassroomScene",
]
