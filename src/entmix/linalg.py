"""Tolerances, input coercion and tensor-product kernels for the two-qubit (4x4) route.

The route's one eigendecomposition per state is states.validate's, which
entanglement.wootters_spectrum reuses.  Basis ordering is fixed once and for
all: two-qubit matrices are indexed by |00>, |01>, |10>, |11> (row-major, first
qubit = side A), single-qubit matrices by |0>, |1>.  Every closed form in the
other modules assumes this ordering.
"""

from __future__ import annotations

import numpy as np

# Shared tolerance constants.
HERM_TOL = 1e-9     # max |m - m^dag| accepted as Hermitian
PSD_TOL = 1e-8      # eigenvalues below -PSD_TOL are a genuine PSD violation


def as_matrix(m) -> np.ndarray:
    """Coerce to a 4x4 complex array, all entries finite."""
    a = np.asarray(m, dtype=np.complex128)
    if a.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _kron2(a, b) -> np.ndarray:
    # np.kron of two 2x2 arrays: the same products, without its generic reshaping
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _marginals(a):
    # (Tr_B a, Tr_A a): two terms per entry, one for each value of the traced index
    t = a.reshape(2, 2, 2, 2)
    return t[:, 0, :, 0] + t[:, 1, :, 1], t[0, :, 0, :] + t[1, :, 1, :]

