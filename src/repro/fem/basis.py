"""Tensor-product Lagrange bases on the reference cube [0, 1]^dim.

Local nodes are laid out lexicographically with axis 0 fastest:
``local = i_0 + (p+1)*i_1 + (p+1)^2*i_2``, matching the node-generation
order in :mod:`repro.core.nodes`.  All evaluations are vectorised over
query points.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["LagrangeBasis", "local_node_offsets"]


@lru_cache(maxsize=None)
def _lagrange_1d_coeffs(p: int) -> np.ndarray:
    """Polynomial coefficients (p+1, p+1) of the 1-D Lagrange basis on
    equispaced nodes x_j = j/p (node 0 at 0, node p at 1).

    Row j holds the monomial coefficients (ascending powers) of L_j.
    """
    xs = np.linspace(0.0, 1.0, p + 1)
    coeffs = np.zeros((p + 1, p + 1))
    for j in range(p + 1):
        c = np.poly1d([1.0])
        for k in range(p + 1):
            if k != j:
                c *= np.poly1d([1.0, -xs[k]]) / (xs[j] - xs[k])
        coeffs[j, : len(c.coeffs)] = c.coeffs[::-1]
    coeffs.flags.writeable = False  # the cache shares one table per p
    return coeffs


@lru_cache(maxsize=None)
def local_node_offsets(p: int, dim: int) -> np.ndarray:
    """Integer node multi-indices ``(npe, dim)`` with axis 0 fastest."""
    axes = [np.arange(p + 1)] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    # axis 0 fastest: stack then reorder so index = sum i_k (p+1)^k
    out = np.stack([g.ravel(order="F") for g in grids], axis=1)
    out.flags.writeable = False  # the cache shares one table per (p, dim)
    return out


class LagrangeBasis:
    """Order-``p`` tensor Lagrange basis in ``dim`` dimensions."""

    def __init__(self, p: int, dim: int):
        if p < 1:
            raise ValueError("order p must be >= 1")
        self.p = p
        self.dim = dim
        self.npe = (p + 1) ** dim
        self._c = _lagrange_1d_coeffs(p)
        self.offsets = local_node_offsets(p, dim)

    def eval_1d(self, x: np.ndarray) -> np.ndarray:
        """1-D basis values, shape ``(len(x), p+1)``."""
        x = np.atleast_1d(np.asarray(x, float))
        powers = x[:, None] ** np.arange(self.p + 1)[None, :]
        return powers @ self._c.T

    def eval_1d_deriv(self, x: np.ndarray) -> np.ndarray:
        """1-D basis derivatives, shape ``(len(x), p+1)``."""
        x = np.atleast_1d(np.asarray(x, float))
        k = np.arange(1, self.p + 1)
        dpow = k[None, :] * x[:, None] ** (k - 1)[None, :]
        return dpow @ self._c[:, 1:].T

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Basis values at reference points ``(n, dim)`` → ``(n, npe)``."""
        pts = np.atleast_2d(np.asarray(pts, float))
        vals1d = [self.eval_1d(pts[:, ax]) for ax in range(self.dim)]
        out = np.ones((len(pts), self.npe))
        for ax in range(self.dim):
            out *= vals1d[ax][:, self.offsets[:, ax]]
        return out

    def eval_grad(self, pts: np.ndarray) -> np.ndarray:
        """Reference gradients at points: ``(n, npe, dim)``."""
        pts = np.atleast_2d(np.asarray(pts, float))
        vals1d = [self.eval_1d(pts[:, ax]) for ax in range(self.dim)]
        ders1d = [self.eval_1d_deriv(pts[:, ax]) for ax in range(self.dim)]
        out = np.ones((len(pts), self.npe, self.dim))
        for g_ax in range(self.dim):
            for ax in range(self.dim):
                f = ders1d[ax] if ax == g_ax else vals1d[ax]
                out[:, :, g_ax] *= f[:, self.offsets[:, ax]]
        return out
