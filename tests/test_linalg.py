import numpy as np
import pytest
from numpy.testing import assert_allclose

from entmix.linalg import (
    EigenDecomposition,
    RECON_TOL,
    eig_hermitian,
    mat_sqrt_psd,
    partial_trace,
    tensor,
)
from entmix.mixing import apply_map
from entmix.states import pauli, psi_a

I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def test_tensor_identity():
    assert_allclose(tensor(I2, I2), np.eye(4))


def test_tensor_basis_projector():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |01><01|
    assert_allclose(tensor(p0, p1), expected)


def test_tensor_diagonal_product():
    a = 0.6
    d = np.diag([a**2, 1 - a**2]).astype(complex)
    assert_allclose(np.diag(tensor(d, d)).real, [0.1296, 0.2304, 0.2304, 0.4096], atol=1e-15)


def test_tensor_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        tensor(np.eye(4), I2)
    with pytest.raises(ValueError):
        tensor(I2, np.eye(3))


def test_tensor_bilinear_and_trace_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        c = random_hermitian(rng, 2)
        assert_allclose(tensor(a + c, b), tensor(a, b) + tensor(c, b), atol=1e-12)
        assert_allclose(
            np.trace(tensor(a, b)), np.trace(a) * np.trace(b), atol=1e-12
        )


def test_partial_trace_product_basis_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    assert_allclose(partial_trace(rho, "A"), np.diag([1.0, 0.0]))
    assert_allclose(partial_trace(rho, "B"), np.diag([1.0, 0.0]))


def test_partial_trace_schmidt_marginal():
    a = 0.3
    assert_allclose(partial_trace(psi_a(a), "A"), np.diag([a**2, 1 - a**2]), atol=1e-15)


def test_partial_trace_maximally_mixed():
    assert_allclose(partial_trace(np.eye(4) / 4, "B"), np.eye(2) / 2)


def test_partial_trace_of_tensor():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert_allclose(partial_trace(tensor(a, b), "A"), a * np.trace(b), atol=1e-12)
        assert_allclose(partial_trace(tensor(a, b), "B"), b * np.trace(a), atol=1e-12)


def test_partial_trace_rejects_bad_tag():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, "C")


def test_eig_diagonal():
    dec = eig_hermitian(np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex))
    assert_allclose(dec.eigenvalues, [0.5, 0.3, 0.15, 0.05])


def test_eig_pauli_x():
    dec = eig_hermitian(pauli("x"))
    assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)


def test_eig_trace_and_determinant_identities():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = random_hermitian(rng)
        dec = eig_hermitian(m)
        assert abs(dec.eigenvalues.sum() - np.trace(m).real) <= 1e-10 * max(
            1.0, abs(np.trace(m).real)
        )
        det = np.linalg.det(m).real
        assert abs(np.prod(dec.eigenvalues) - det) <= 1e-10 * max(1.0, abs(det))


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = random_hermitian(rng)
        m /= max(1.0, np.max(np.abs(m)))  # unit-scale entries
        dec = eig_hermitian(m)
        assert np.max(np.abs(dec.reconstruct() - m)) <= RECON_TOL
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_eig_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = random_hermitian(rng)
        u = eig_hermitian(random_hermitian(rng)).eigenvectors  # a random unitary
        w1 = eig_hermitian(m).eigenvalues
        w2 = eig_hermitian(u @ m @ u.conj().T).eigenvalues
        assert_allclose(w1, w2, atol=1e-9)


def test_eig_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(m)


def test_matrix_rejects_non_finite():
    m = np.eye(4, dtype=complex)
    m[2, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        eig_hermitian(m)


def test_sqrt_identity():
    assert_allclose(mat_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)


def test_sqrt_diagonal():
    assert_allclose(
        mat_sqrt_psd(np.diag([4.0, 1.0, 0.0, 0.25])), np.diag([2.0, 1.0, 0.0, 0.5]), atol=1e-12
    )


def test_sqrt_squares_back_to_mapped_state():
    rho = apply_map(psi_a(0.6), 0.5)
    root = mat_sqrt_psd(rho)
    assert np.max(np.abs(root @ root - rho)) <= 1e-9


def test_sqrt_rejects_material_negativity():
    with pytest.raises(ValueError, match="PSD"):
        mat_sqrt_psd(np.diag([1.0, 1.0, 1.0, -1e-6]))


def test_eigendecomposition_is_plain_data():
    dec = eig_hermitian(np.eye(4))
    assert isinstance(dec, EigenDecomposition)
    assert dec.eigenvalues.shape == (4,)
    assert dec.eigenvectors.shape == (4, 4)
