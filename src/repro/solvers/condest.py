"""Condition-number estimation (Matlab ``condest`` substitute).

A Hager-style 1-norm estimator combined with a sparse LU gives the
condest quantity Matlab reports (κ₁ = ‖A‖₁·‖A⁻¹‖₁), the number Table 1
compares.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["condest_1norm"]


def condest_1norm(A: sp.spmatrix) -> float:
    """κ₁ estimate: ‖A‖₁ exactly, ‖A⁻¹‖₁ by Hager/Higham iteration."""
    A = A.tocsc()
    n = A.shape[0]
    norm_a = float(np.abs(A).sum(axis=0).max())
    lu = spla.splu(A)
    x = np.full(n, 1.0 / n)
    gamma_prev = 0.0
    for _ in range(10):
        y = lu.solve(x)
        gamma = float(np.abs(y).sum())
        xi = np.sign(y)
        z = lu.solve(xi, trans="T")
        j = int(np.argmax(np.abs(z)))
        if gamma <= gamma_prev or np.abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(n)
        x[j] = 1.0
        gamma_prev = gamma
    return norm_a * gamma

