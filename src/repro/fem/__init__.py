"""Finite-element substrate: bases, elemental kernels, PDE problems.

The package re-exports only the mesh-independent pieces it imports
here.  The problem classes import the core mesh machinery, which itself
uses :mod:`repro.fem.basis`, so they are imported from the module that
defines them: ``from repro.fem.poisson import PoissonProblem``.
"""

from .basis import LagrangeBasis
from .elemental import ReferenceElement, reference_element
from .quadrature import gauss_legendre_1d, tensor_rule

__all__ = [
    "LagrangeBasis",
    "ReferenceElement",
    "reference_element",
    "gauss_legendre_1d",
    "tensor_rule",
]
