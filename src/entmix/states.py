"""Input checks, and constructors and validation for the two-qubit states of the delivery model.

_real and _integer return the number they checked as a builtin float or int, and every caller
stores or computes on that: a numpy scalar of any width gives the result of the builtin number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# validate's tolerances
HERM_TOL = 1e-9     # max |m - m^dag| accepted as Hermitian
PSD_TOL = 1e-8      # eigenvalues below -PSD_TOL are a genuine PSD violation

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# the pair counts n with a float(n): from 2**1024 - 2**970 on, float(n) rounds up and overflows
_N_RANGE = (2, 2**1024 - 2**970 - 1, "2**1024 - 2**970 - 1")


def _real(name, x, lo, hi, ends="[]"):
    # x as a float if a finite real from lo to hi, in the closed "[]" or the open "()" interval;
    # math.isfinite raises TypeError on None, a str or a complex, OverflowError past the floats
    try:
        if math.isfinite(x) and (lo <= x <= hi if ends == "[]" else lo < x < hi):
            return float(x)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name} must be in {ends[0]}{lo}, {hi}{ends[1]}, got {x!r}")


def _integer(name, x, lo, hi, hi_text=None):
    # x as an int if an int or a numpy integer, not a bool, in [lo, hi]
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not lo <= x <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi_text or hi}], got {x!r}")
    return int(x)


@dataclass(frozen=True, init=False)
class PrepParams:
    """Preparation amplitude ``a`` and delivery success probability ``s``.

    ``a`` parametrizes the prepared pure state a|00> + sqrt(1-a^2)|11>;
    ``s`` is the probability that a customer pair receives its intended,
    still-correlated qubits.  Both live in [0, 1], and are stored as builtin floats.
    """

    a: float
    s: float

    def __init__(self, a, s):   # frozen: the fields are set here only
        self.__dict__.update(a=_real("a", a, 0, 1), s=_real("s", s, 0, 1))


class StateValidationError(ValueError):
    """A candidate density matrix violated one or more state invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{name}: {magnitude:.3e}" for name, magnitude in self.violations)
        super().__init__(f"invalid density matrix ({detail})")


def psi_a(a: float) -> np.ndarray:
    """Projector onto the pure state a|00> + sqrt(1-a^2)|11>."""
    a = _real("a", a, 0, 1)
    b = math.sqrt(1.0 - a * a)
    m = np.zeros((4, 4), dtype=np.complex128)   # np.outer of the ket, without its overhead
    m[0, 0], m[0, 3], m[3, 0], m[3, 3] = a * a, a * b, a * b, b * b
    return m


def bell_state() -> np.ndarray:
    """Projector onto (|00> + |11>)/sqrt(2), the a = 1/sqrt(2) case."""
    return psi_a(1.0 / np.sqrt(2.0))


def barrett_state() -> np.ndarray:
    """(5/12) Bell projector + (7/12) I/4.

    A full-rank Werner state admitting a local hidden-variable model for all
    non-sequential POVMs; diagonal (17, 7, 7, 17)/48 with corner coherences 5/24.
    """
    return (5.0 / 12.0) * bell_state() + (7.0 / 12.0) * np.eye(4, dtype=np.complex128) / 4.0


def pauli(axis: str) -> np.ndarray:
    """Standard Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except (KeyError, TypeError):   # TypeError: an unhashable axis
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


def validate(rho) -> np.ndarray:
    """Coerce rho to a 4x4 complex128 array, check the density-matrix invariants and return it.

    A shape other than 4x4 raises ValueError.  Requires finite entries, then
    Hermiticity within HERM_TOL, unit trace within 1e-9 and all eigenvalues
    >= -PSD_TOL.  A non-finite entry raises ValueError; otherwise
    StateValidationError names every failed check together with the violation
    magnitude.  The verdict is a pure function of the coerced complex128
    content, so the last content that passed is kept and the same bytes seen again
    return at once, finiteness included; a failure is never kept.  Kept with it is
    the eigendecomposition (w, v) of the Hermitian part that the PSD check took,
    ascending and read-only: _check(m.tobytes()) returns it at once.
    """
    m = np.asarray(rho, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    _check(m.tobytes())
    return m


@functools.lru_cache(maxsize=1)
def _check(content: bytes) -> tuple[np.ndarray, np.ndarray]:
    # validate's checks on the bytes of a coerced 4x4, finiteness first; when all of them
    # pass, returns the eigh (w, v) of its Hermitian part, read-only, since the cache hands
    # out the same arrays
    m = np.frombuffer(content, dtype=np.complex128).reshape(4, 4)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    mh = m.conj().T
    violations = []
    herm_dev = float(abs(m - mh).max())
    if herm_dev > HERM_TOL:
        violations.append(("hermiticity", herm_dev))
    trace_dev = abs(complex(m.trace()) - 1.0)
    if trace_dev > 1e-9:
        violations.append(("trace", trace_dev))
    if not violations:
        w, v = np.linalg.eigh((m + mh) / 2)
        if w[0] < -PSD_TOL:
            violations.append(("psd", float(w[0])))
    if violations:
        raise StateValidationError(violations)
    w.flags.writeable = v.flags.writeable = False
    return w, v
