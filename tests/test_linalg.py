import numpy as np
import pytest
from numpy.testing import assert_allclose

from entmix.linalg import _kron2, _marginals
from entmix.simulate import joint_probabilities
from entmix.states import psi_a, validate

I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def test_tensor_identity():
    assert_allclose(_kron2(I2, I2), np.eye(4))


def test_tensor_basis_projector():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |01><01|
    assert_allclose(_kron2(p0, p1), expected)


def test_tensor_diagonal_product():
    a = 0.6
    d = np.diag([a**2, 1 - a**2]).astype(complex)
    assert_allclose(np.diag(_kron2(d, d)).real, [0.1296, 0.2304, 0.2304, 0.4096], atol=1e-15)


def test_tensor_bilinear_and_trace_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        c = random_hermitian(rng, 2)
        assert_allclose(_kron2(a + c, b), _kron2(a, b) + _kron2(c, b), atol=1e-12)
        assert_allclose(
            np.trace(_kron2(a, b)), np.trace(a) * np.trace(b), atol=1e-12
        )


def test_marginals_product_basis_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    tr_b, tr_a = _marginals(rho)
    assert_allclose(tr_b, np.diag([1.0, 0.0]))
    assert_allclose(tr_a, np.diag([1.0, 0.0]))


def test_marginals_schmidt_state():
    a = 0.3
    for m in _marginals(psi_a(a)):
        assert_allclose(m, np.diag([a**2, 1 - a**2]), atol=1e-15)


def test_marginals_maximally_mixed():
    for m in _marginals(np.eye(4) / 4):
        assert_allclose(m, np.eye(2) / 2)


def test_marginals_of_tensor():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        tr_b, tr_a = _marginals(_kron2(a, b))
        assert_allclose(tr_b, a * np.trace(b), atol=1e-12)
        assert_allclose(tr_a, b * np.trace(a), atol=1e-12)


def _joint_xz(rho):
    return joint_probabilities(rho, "xz")


def test_matrix_rejects_non_finite():
    m = np.eye(4, dtype=complex) / 4
    m[2, 2] = np.nan
    for check in (validate, _joint_xz):
        with pytest.raises(ValueError, match="finite"):
            check(m)


def test_matrix_rejects_wrong_shape():
    # the 4x4 route takes two-qubit matrices only: no single-qubit or batched input
    for shape in ((2, 2), (3, 3), (4, 3), (1, 4, 4)):
        m = np.zeros(shape, dtype=complex)
        for check in (validate, _joint_xz):
            with pytest.raises(ValueError, match="4x4"):
                check(m)

