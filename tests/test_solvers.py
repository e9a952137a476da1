"""Tests for the solver substrate (Krylov, preconditioners, Newton,
condition estimation)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import (
    BlockJacobi,
    bicgstab,
    cg,
    cond_dense,
    cond_spd_extremes,
    condest_1norm,
    jacobi,
    newton_ls,
)


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


def test_bicgstab_nonsymmetric():
    rng = np.random.default_rng(3)
    A = sp.random(80, 80, density=0.1, random_state=3).tocsr() + 10 * sp.eye(80)
    b = rng.standard_normal(80)
    res = bicgstab(A, b, rtol=1e-10, maxiter=500)
    assert res.converged
    assert np.linalg.norm(A @ res.x - b) < 1e-6


def test_bicgstab_with_preconditioner():
    A = sp.diags([np.full(199, -1.2), np.full(200, 3.0), np.full(199, -0.8)],
                 [-1, 0, 1]).tocsr()
    b = np.ones(200)
    res = bicgstab(A, b, M=jacobi(A), rtol=1e-10)
    assert res.converged


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


def test_newton_scalar_like_system():
    def residual(x):
        return np.array([x[0] ** 3 - 8.0, x[1] ** 2 - 4.0])

    def solve_jac(x, rhs):
        J = np.diag([3 * x[0] ** 2, 2 * x[1]])
        return np.linalg.solve(J, rhs)

    res = newton_ls(residual, solve_jac, np.array([3.0, 3.0]), rtol=1e-12)
    assert res.converged
    assert np.allclose(res.x, [2.0, 2.0], atol=1e-6)


def test_newton_needs_backtracking():
    # steep residual where a full step overshoots
    def residual(x):
        return np.array([np.arctan(5 * x[0])])

    def solve_jac(x, rhs):
        return rhs / (5 / (1 + 25 * x[0] ** 2))

    res = newton_ls(residual, solve_jac, np.array([1.2]), rtol=1e-10,
                    max_iter=100)
    assert res.converged
    assert abs(res.x[0]) < 1e-8


def test_cond_dense_identity():
    assert cond_dense(np.eye(5)) == pytest.approx(1.0)


def test_condest_1norm_diagonal():
    A = sp.diags([1.0, 2.0, 4.0, 8.0]).tocsc()
    # kappa_1 of a diagonal matrix = max/min
    assert condest_1norm(A) == pytest.approx(8.0, rel=1e-6)


def test_condest_tracks_dense_order_of_magnitude():
    rng = np.random.default_rng(5)
    A = sp.csc_matrix(_spd(60, 7))
    est = condest_1norm(A)
    exact = cond_dense(A.toarray())
    assert exact / 10 < est < exact * 60  # 1-norm vs 2-norm bounded slack


def test_cond_spd_extremes_small_matrix():
    A = sp.csc_matrix(np.diag([1.0, 10.0, 100.0]))
    assert cond_spd_extremes(A) == pytest.approx(100.0, rel=1e-4)


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


@pytest.mark.parametrize("solver", ["cg", "bicgstab"])
def test_maxiter_zero_is_a_zero_budget_not_the_default(solver):
    """``maxiter=0`` used to read as "unset" and run 10·n iterations."""
    A = sp.csr_matrix(_spd(30, 5))
    b = np.random.default_rng(6).standard_normal(30)
    x0 = np.linspace(-1.0, 1.0, 30)
    solve = bicgstab if solver == "bicgstab" else cg
    for start in (None, x0, x0.tolist()):  # any array-like x0
        res = solve(A, b, x0=start, rtol=1e-10, maxiter=0)
        assert res.iterations == 0 and res.matvecs == 1
        assert res.reason == "maxiter" and not res.converged
        want = np.zeros_like(b) if start is None else x0
        assert res.x.tobytes() == want.tobytes()
    # a start that already meets the tolerance needs no budget
    exact = solve(A, b, rtol=1e-13).x
    res = solve(A, b, x0=exact, rtol=1e-6, maxiter=0)
    assert res.iterations == 0 and res.reason == "converged"
    # None still means 10·n
    assert solve(A, b, rtol=1e-10, maxiter=None).converged
