"""Linear solver substrate (the PETSc-equivalent layer)."""

from .condest import condest_1norm
from .krylov import KrylovResult, cg
from .multigrid import MultigridPoisson, prolongation
from .precond import BlockJacobi, JacobiPreconditioner, jacobi

__all__ = [
    "cg",
    "KrylovResult",
    "jacobi",
    "JacobiPreconditioner",
    "BlockJacobi",
    "MultigridPoisson",
    "prolongation",
    "condest_1norm",
]
