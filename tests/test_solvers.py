"""Tests for the solver substrate (Krylov, preconditioners, condition
estimation)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import BlockJacobi, cg, condest_1norm, jacobi


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def test_cg_dense_spd():
    A = _spd(40)
    b = np.arange(40.0)
    res = cg(A, b, rtol=1e-10)
    assert res.converged
    assert np.allclose(A @ res.x, b, atol=1e-6)


def test_cg_with_jacobi_preconditioner():
    A = sp.diags([np.full(99, -1.0), np.full(100, 4.0), np.full(99, -1.0)],
                 [-1, 0, 1]).tocsr()
    b = np.ones(100)
    M = jacobi(A)
    res = cg(A, b, M=M, rtol=1e-12)
    assert res.converged
    assert np.allclose(A @ res.x, b, atol=1e-8)


def test_cg_matrix_free_operator():
    A = _spd(30, 1)
    res = cg(lambda v: A @ v, np.ones(30), rtol=1e-10)
    assert res.converged and res.matvecs > 0


def test_cg_x0_start():
    A = _spd(20, 2)
    b = np.ones(20)
    x_star = np.linalg.solve(A, b)
    res = cg(A, b, x0=x_star)
    assert res.iterations <= 1
    assert cg(A, b, x0=x_star.tolist()).x.tobytes() == res.x.tobytes()


def test_block_jacobi_solves_block_diagonal_exactly():
    blocks = [np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([[4.0]])]
    A = sp.block_diag(blocks).tocsr()
    M = BlockJacobi(A, splits=[0, 2, 3])
    r = np.array([1.0, 2.0, 3.0])
    assert np.allclose(A @ M(r), r)


def test_block_jacobi_accelerates_cg():
    A = sp.diags([np.full(299, -1.0), np.full(300, 2.01), np.full(299, -1.0)],
                 [-1, 0, 1]).tocsr()
    b = np.ones(300)
    plain = cg(A, b, rtol=1e-8, maxiter=5000)
    precond = cg(A, b, M=BlockJacobi(A, nblocks=4), rtol=1e-8, maxiter=5000)
    assert precond.converged
    assert precond.iterations < plain.iterations


def test_condest_1norm_diagonal():
    A = sp.diags([1.0, 2.0, 4.0, 8.0]).tocsc()
    # kappa_1 of a diagonal matrix = max/min
    assert condest_1norm(A) == pytest.approx(8.0, rel=1e-6)


def test_condest_tracks_dense_order_of_magnitude():
    A = sp.csc_matrix(_spd(60, 7))
    est = condest_1norm(A)
    exact = np.linalg.cond(A.toarray(), 1)
    assert exact / 10 < est <= exact * (1 + 1e-9)  # a lower bound on κ₁


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(5, 40))
def test_cg_property_random_spd(seed, n):
    rng = np.random.default_rng(seed)
    A = _spd(n, seed)
    b = rng.standard_normal(n)
    res = cg(A, b, rtol=1e-10, maxiter=10 * n)
    assert res.converged
    assert np.linalg.norm(A @ res.x - b) <= 1e-6 * max(np.linalg.norm(b), 1)


def test_cg_refuses_a_block_of_right_hand_sides():
    A = _spd(10)
    with pytest.raises(ValueError, match=r"shape \(10, 2\)"):
        cg(A, np.ones((10, 2)))


def test_cg_iterates_keep_their_bits():
    """The in-place direction update changes no bit: the solution equals
    the textbook recurrence written out with fresh arrays."""
    A = sp.csr_matrix(_spd(60, 3))
    b = np.random.default_rng(4).standard_normal(60)
    d = A.diagonal()
    res = cg(A, b, M=lambda r: r / d, rtol=1e-12)
    assert res.converged and res.iterations > 3

    x = np.zeros(60)
    r = b - A @ x
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    for _ in range(res.iterations):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r += -alpha * Ap
        z = r / d
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    assert res.x.tobytes() == x.tobytes()


def test_maxiter_zero_is_a_zero_budget_not_the_default():
    """``maxiter=0`` used to read as "unset" and run 10·n iterations."""
    A = sp.csr_matrix(_spd(30, 5))
    b = np.random.default_rng(6).standard_normal(30)
    x0 = np.linspace(-1.0, 1.0, 30)
    for start in (None, x0, x0.tolist()):  # any array-like x0
        res = cg(A, b, x0=start, rtol=1e-10, maxiter=0)
        assert res.iterations == 0 and res.matvecs == 1
        assert res.reason == "maxiter" and not res.converged
        want = np.zeros_like(b) if start is None else x0
        assert res.x.tobytes() == want.tobytes()
    # a start that already meets the tolerance needs no budget
    exact = cg(A, b, rtol=1e-13).x
    res = cg(A, b, x0=exact, rtol=1e-6, maxiter=0)
    assert res.iterations == 0 and res.reason == "converged"
    # None still means 10·n
    assert cg(A, b, rtol=1e-10, maxiter=None).converged
