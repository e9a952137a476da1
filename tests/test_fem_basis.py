"""Tests for bases, quadrature and elemental reference matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.basis import LagrangeBasis, local_node_offsets
from repro.fem.elemental import reference_element
from repro.fem.quadrature import gauss_legendre_1d, tensor_rule


def test_gauss_legendre_exactness():
    # n points integrate degree 2n-1 exactly on [0,1]
    for n in (1, 2, 3, 4):
        x, w = gauss_legendre_1d(n)
        for deg in range(2 * n):
            exact = 1.0 / (deg + 1)
            assert np.dot(w, x**deg) == pytest.approx(exact, rel=1e-12)


def test_tensor_rule_weights():
    pts, w = tensor_rule(3, 3)
    assert pts.shape == (27, 3)
    assert w.sum() == pytest.approx(1.0)


def test_local_node_offsets_ordering():
    off = local_node_offsets(2, 2)
    # axis 0 fastest: index = i0 + 3*i1
    assert list(off[0]) == [0, 0]
    assert list(off[1]) == [1, 0]
    assert list(off[3]) == [0, 1]


@pytest.mark.parametrize("p,dim", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
def test_basis_kronecker_delta(p, dim):
    b = LagrangeBasis(p, dim)
    nodes = b.offsets / b.p
    vals = b.eval(nodes)
    assert np.allclose(vals, np.eye(b.npe), atol=1e-12)


@pytest.mark.parametrize("p,dim", [(1, 2), (2, 3)])
def test_basis_partition_of_unity(p, dim):
    b = LagrangeBasis(p, dim)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, (20, dim))
    assert np.allclose(b.eval(pts).sum(axis=1), 1.0)
    assert np.allclose(b.eval_grad(pts).sum(axis=1), 0.0, atol=1e-10)


def test_basis_gradient_finite_difference():
    b = LagrangeBasis(2, 2)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.1, 0.9, (5, 2))
    g = b.eval_grad(pts)
    eps = 1e-6
    for ax in range(2):
        pp = pts.copy()
        pp[:, ax] += eps
        fd = (b.eval(pp) - b.eval(pts)) / eps
        assert np.allclose(fd, g[:, :, ax], atol=1e-4)


def test_basis_order_validation():
    with pytest.raises(ValueError):
        LagrangeBasis(0, 2)


def test_reference_stiffness_known_p1_2d():
    """The classic bilinear-quad stiffness matrix."""
    ref = reference_element(1, 2)
    K = ref.K_ref
    assert np.allclose(K, K.T)
    assert np.allclose(K.sum(axis=1), 0.0, atol=1e-14)
    assert K[0, 0] == pytest.approx(2.0 / 3.0)
    assert K[0, 3] == pytest.approx(-1.0 / 3.0)  # opposite corner


def test_reference_mass_total():
    for p, dim in [(1, 2), (2, 2), (1, 3)]:
        ref = reference_element(p, dim)
        assert ref.M_ref.sum() == pytest.approx(1.0)  # ∫1 over unit cube


def test_advection_blocks_antisymmetric_plus_boundary():
    """∫ φ_i ∂_k φ_j + ∫ ∂_k φ_i φ_j = boundary term (divergence)."""
    ref = reference_element(1, 2)
    for k in range(2):
        S = ref.C_ref[k] + ref.C_ref[k].T
        # row sums of S equal the boundary integral of φ_i n_k
        assert np.allclose(S.sum(), 0.0, atol=1e-12)


def test_d_ref_contracts_to_stiffness():
    ref = reference_element(2, 2)
    K = sum(ref.D_ref[k, k] for k in range(2))
    assert np.allclose(K, ref.K_ref, atol=1e-12)


def test_apply_stiffness_matches_blocks():
    ref = reference_element(1, 3)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((5, ref.npe))
    h = rng.uniform(0.1, 1.0, 5)
    out = ref.apply_stiffness(u, h)
    blocks = ref.stiffness_blocks(h)
    expect = np.einsum("eij,ej->ei", blocks, u)
    assert np.allclose(out, expect)


def test_apply_mass_and_advection_consistency():
    ref = reference_element(1, 2)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((4, ref.npe))
    h = np.full(4, 0.5)
    m = ref.apply_mass(u, h)
    expect = np.einsum("eij,ej->ei", ref.mass_blocks(h), u)
    assert np.allclose(m, expect)


def test_flop_and_byte_counters_positive():
    ref = reference_element(2, 3)
    assert ref.matvec_flops_per_element() == 2 * 27 * 27 + 27


@settings(max_examples=20)
@given(p=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_basis_interpolates_polynomials_exactly(p, seed):
    """Order-p basis reproduces degree-p 1D monomials in each axis."""
    b = LagrangeBasis(p, 2)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, (10, 2))
    nodes = b.offsets / b.p
    for deg in range(p + 1):
        coeffs = nodes[:, 0] ** deg
        vals = b.eval(pts) @ coeffs
        assert np.allclose(vals, pts[:, 0] ** deg, atol=1e-10)


def test_cached_tables_are_read_only():
    """Every lru-cached table is shared process-wide: an in-place write
    would reach every later build and apply, so it must raise."""
    from repro.core.nodes import cancellation_offsets
    from repro.fem.basis import _lagrange_1d_coeffs

    ref = reference_element(2, 3)
    tables = {
        "local_node_offsets": local_node_offsets(2, 3),
        "_lagrange_1d_coeffs": _lagrange_1d_coeffs(2),
        "cancellation_offsets": cancellation_offsets(2, 3),
        "gauss_legendre_1d": gauss_legendre_1d(3)[1],
        "tensor_rule": tensor_rule(3, 3)[0],
        **{f"ref.{k}": getattr(ref, k)
           for k in ("N", "G", "K_ref", "M_ref", "C_ref", "D_ref")},
    }
    for name, table in tables.items():
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] += 1
            pytest.fail(f"{name} is writeable")
