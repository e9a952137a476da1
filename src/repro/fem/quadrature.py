"""Tensor-product Gauss–Legendre quadrature on the reference cube [0,1]^d."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre_1d", "tensor_rule"]


@lru_cache(maxsize=None)
def gauss_legendre_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n``-point Gauss–Legendre points/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=None)
def tensor_rule(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule: points ``(n**dim, dim)`` and weights ``(n**dim,)``."""
    x1, w1 = gauss_legendre_1d(n)
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
    w = np.ones(len(pts))
    for g in wgrids:
        w *= g.ravel()
    return _frozen(pts, w)


def _frozen(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cached rules are shared process-wide: make them read-only."""
    for t in tables:
        t.flags.writeable = False
    return tables
