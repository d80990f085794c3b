"""The delivery mixing map and its closed-form action on the prepared states.

A state rho delivered with per-pair success probability s is described by the
nonlinear map

    rho  ->  s * rho + (1 - s) * Tr_B[rho] (x) Tr_A[rho],

i.e. with probability 1 - s the two customers hold uncorrelated qubits drawn
from the marginals of the intended state.  The map is a state-to-state
function, not a linear channel, so no Kraus form exists or is attempted.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _kron2, _marginals
from .states import PrepParams, _real, psi_a, validate


def apply_map(rho, s: float) -> np.ndarray:
    """Mix a two-qubit state with the product of its own marginals, weight 1 - s."""
    return _mix(validate(rho), _real("s", s, 0, 1))


def _mix(m, s):
    # apply_map on a validated state and a checked s
    return s * m + (1.0 - s) * _kron2(*_marginals(m))


def xstate_fields(a, s):
    """Closed form of the x state apply_map(psi_a(a), s): diagonal d1..d4, corner t; broadcasts."""
    a2 = a * a
    b2 = 1.0 - a2
    d1 = s * a2 + (1.0 - s) * a2 * a2
    d2 = (1.0 - s) * a2 * b2
    d4 = s * b2 + (1.0 - s) * b2 * b2
    # a builtin float stays one; math.sqrt raises ValueError where b2 < 0 (|a| > 1)
    t = s * a * (np.sqrt(b2) if isinstance(b2, np.ndarray) else math.sqrt(b2))
    return d1, d2, d2, d4, t


def fidelity(p: PrepParams) -> float:
    """Overlap of the mapped state with the prepared pure state.

    Equals 1 - 3 a^2 (1 - s) (1 - a^2); worst at a = 1/sqrt(2), so maximally
    entangled preparations degrade fastest.
    """
    a2 = p.a * p.a
    return 1.0 - 3.0 * a2 * (1.0 - p.s) * (1.0 - a2)


def mapped_state(p: PrepParams) -> np.ndarray:
    """Full 4x4 mapped state for preparation ``p`` (general-path evaluation)."""
    return _mix(psi_a(p.a), p.s)   # p holds checked a and s, psi_a a valid state
