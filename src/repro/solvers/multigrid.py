"""Geometric multigrid on incomplete-octree hierarchies.

The paper's lineage (Dendro, [51]) is a multigrid code, and §3.6
motivates fast assembly by preconditioner construction; this module
supplies the natural octree preconditioner: a V-cycle over a hierarchy
of carved meshes.

The hierarchy uses *Galerkin* coarse operators A_c = Pᵀ A_f P, with the
prolongation P built geometrically: row i of P is the coarse FE field
evaluated at fine node i (:func:`repro.core.interpolate.evaluation_matrix`
— the containing coarse leaf's shape functions composed with the coarse
hanging-node interpolation), so conformity is preserved across levels.
Galerkin coarsening makes the cycle robust even though carved
hierarchies are not perfectly nested (the voxelated boundary moves with
the level).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..core.interpolate import evaluation_matrix
from ..core.mesh import IncompleteMesh
from ..fem.dirichlet import Dirichlet

__all__ = ["prolongation", "MultigridPoisson"]


def prolongation(
    fine: IncompleteMesh, coarse: IncompleteMesh
) -> sp.csr_matrix:
    """Sparse P mapping coarse DOF vectors to fine DOF vectors: the
    coarse FE field evaluated at the fine nodes."""
    if fine.dim != coarse.dim or fine.p != coarse.p:
        raise ValueError("meshes must share dimension and order")
    pts = fine.node_coords()
    P, found = evaluation_matrix(coarse, pts, strict=False)
    if found.all():
        return P
    # voxelated boundaries recede with coarsening: a fine boundary node
    # can fall outside the coarse mesh — clamp it into the box of the
    # nearest retained coarse leaf (injection fallback)
    from scipy.spatial import cKDTree

    lost = ~found
    _, nearest = cKDTree(coarse.element_centers()).query(pts[lost])
    lo, hi = coarse.leaves.physical_bounds(coarse.domain.scale)
    pts[lost] = np.clip(pts[lost], lo[nearest], hi[nearest])
    return evaluation_matrix(coarse, pts)[0]


@dataclass(eq=False)
class _Level:
    A: sp.csr_matrix
    P: sp.csr_matrix | None  # to the next-coarser level
    dinv: np.ndarray


class MultigridPoisson:
    """V-cycle preconditioner/solver for carved-mesh Poisson operators.

    ``meshes`` are ordered fine → coarse; the fine operator is the
    BC-eliminated stiffness matrix (Dirichlet rows/columns identity),
    coarse operators are Galerkin products, the smoother is damped
    Jacobi, and the coarsest level is solved directly.
    """

    def __init__(
        self,
        meshes: list[IncompleteMesh],
        A_fine: sp.spmatrix,
        fixed: np.ndarray,
        nsmooth: int = 2,
        omega: float = 0.67,
        smoother: str = "jacobi",
    ):
        if len(meshes) < 2:
            raise ValueError("need at least two mesh levels")
        if smoother not in ("jacobi", "chebyshev"):
            raise ValueError("smoother must be 'jacobi' or 'chebyshev'")
        self.nsmooth = nsmooth
        self.omega = omega
        self.smoother = smoother
        self.levels: list[_Level] = []
        A = A_fine.tocsr()
        fixed_f = np.asarray(fixed, bool)
        for k in range(len(meshes) - 1):
            P = prolongation(meshes[k], meshes[k + 1])
            # keep boundary conditions out of the correction space:
            # zero P rows at fixed fine nodes
            P = (Dirichlet(fixed_f).keep @ P).tocsr()
            d = A.diagonal()
            self.levels.append(_Level(A, P, 1.0 / np.where(d != 0, d, 1.0)))
            A = (P.T @ A @ P).tocsr()
            # regularise coarse null rows (nodes outside the fine span)
            d = A.diagonal()
            null = d == 0
            if null.any():
                A = A + sp.diags(null.astype(float))
            fixed_f = np.zeros(A.shape[0], bool)
        self._coarse_lu = spla.splu(A.tocsc())
        d = A.diagonal()
        self.levels.append(_Level(A, None, 1.0 / np.where(d != 0, d, 1.0)))
        if self.smoother == "chebyshev":
            self._lmax = [self._estimate_lmax(lvl) for lvl in self.levels]

    def _estimate_lmax(self, lvl: _Level, iters: int = 12) -> float:
        """Power iteration on D⁻¹A for the Chebyshev interval."""
        rng = np.random.default_rng(0)
        v = rng.standard_normal(lvl.A.shape[0])
        lam = 1.0
        for _ in range(iters):
            w = lvl.dinv * (lvl.A @ v)
            lam = float(np.linalg.norm(w))
            if lam == 0.0:
                return 1.0
            v = w / lam
        return 1.1 * lam  # safety margin

    def _smooth(self, lvl: _Level, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.smoother == "chebyshev":
            k = self.levels.index(lvl)
            return self._smooth_chebyshev(lvl, x, b, self._lmax[k])
        for _ in range(self.nsmooth):
            x = x + self.omega * lvl.dinv * (b - lvl.A @ x)
        return x

    def _smooth_chebyshev(
        self, lvl: _Level, x: np.ndarray, b: np.ndarray, lmax: float
    ) -> np.ndarray:
        """Chebyshev polynomial smoothing on [lmax/4, lmax] (Adams et
        al. style), preconditioned by the diagonal."""
        lmin = lmax / 4.0
        theta = 0.5 * (lmax + lmin)
        delta = 0.5 * (lmax - lmin)
        sigma = theta / delta
        rho = 1.0 / sigma
        r = lvl.dinv * (b - lvl.A @ x)
        d = r / theta
        for _ in range(self.nsmooth):
            x = x + d
            r = lvl.dinv * (b - lvl.A @ x)
            rho_new = 1.0 / (2.0 * sigma - rho)
            d = rho_new * rho * d + 2.0 * rho_new / delta * r
            rho = rho_new
        return x

    def _vcycle(self, k: int, b: np.ndarray) -> np.ndarray:
        lvl = self.levels[k]
        if lvl.P is None:
            return self._coarse_lu.solve(b)
        x = self._smooth(lvl, np.zeros_like(b), b)
        r = b - lvl.A @ x
        xc = self._vcycle(k + 1, lvl.P.T @ r)
        x = x + lvl.P @ xc
        return self._smooth(lvl, x, b)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle: the preconditioner interface for Krylov."""
        return self._vcycle(0, r)

    def solve(
        self, b: np.ndarray, rtol: float = 1e-8, max_cycles: int = 60
    ) -> tuple[np.ndarray, int, float]:
        """Stand-alone V-cycle iteration to tolerance."""
        x = np.zeros_like(b)
        bnorm = float(np.linalg.norm(b)) or 1.0
        A = self.levels[0].A
        for it in range(1, max_cycles + 1):
            x = x + self._vcycle(0, b - A @ x)
            res = float(np.linalg.norm(b - A @ x)) / bnorm
            if res < rtol:
                return x, it, res
        return x, max_cycles, res
