"""Dense complex linear algebra for the 2x2 / 4x4 matrices used everywhere else.

Basis ordering is fixed once and for all: two-qubit matrices are indexed by
|00>, |01>, |10>, |11> (row-major, first qubit = side A), single-qubit
matrices by |0>, |1>.  Every closed form in the other modules assumes this
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Shared tolerance constants.
HERM_TOL = 1e-9     # max |m - m^dag| accepted as Hermitian
RECON_TOL = 1e-10   # eigendecomposition reconstruction residual
PSD_TOL = 1e-8      # eigenvalues below -PSD_TOL are a genuine PSD violation


def as_matrix(m, dims=(2, 4)) -> np.ndarray:
    """Coerce to a square complex array of an allowed dimension, all entries finite."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in dims:
        raise ValueError(f"expected dimension in {dims}, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _kron2(a, b) -> np.ndarray:
    # np.kron of two 2x2 arrays: the same products, without its generic reshaping
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit (2x2) matrices, A side first."""
    return _kron2(as_matrix(a, dims=(2,)), as_matrix(b, dims=(2,)))


def partial_trace(m, keep: str) -> np.ndarray:
    """Reduce a two-qubit matrix to the marginal of subsystem ``keep`` ('A' or 'B')."""
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return _marginals(as_matrix(m, dims=(4,)))[keep == "B"]


def _marginals(a):
    # (Tr_B a, Tr_A a): two terms per entry, one for each value of the traced index
    t = a.reshape(2, 2, 2, 2)
    return t[:, 0, :, 0] + t[:, 1, :, 1], t[0, :, 0, :] + t[1, :, 1, :]


@dataclass(frozen=True)
class EigenDecomposition:
    """Hermitian eigendecomposition, eigenvalues descending, eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _hermitian(m) -> np.ndarray:
    a = as_matrix(m)
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {dev:.3e}")
    return a


def eig_hermitian(m) -> EigenDecomposition:
    """Full spectrum of a Hermitian matrix, sorted descending.

    Raises ValueError if the input fails the Hermiticity check and
    numpy.linalg.LinAlgError if the eigensolver does not converge.
    """
    w, v = np.linalg.eigh(_hermitian(m))
    return EigenDecomposition(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def mat_sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in [-PSD_TOL, 0) are treated as round-off and clamped to zero;
    anything more negative raises ValueError.
    """
    return _sqrt_psd(_hermitian(m))


def _sqrt_psd(a) -> np.ndarray:
    # mat_sqrt_psd on a matrix already known to be Hermitian
    w, v = np.linalg.eigh(a)
    w, v = w[::-1], v[:, ::-1]
    if w[-1] < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue = {w[-1]:.3e}")
    s = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    return (s + s.conj().T) / 2
