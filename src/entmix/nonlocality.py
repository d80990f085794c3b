"""CHSH violation via the two-largest-eigenvalue criterion, and a local
hidden-variable witness built from a Werner-state decomposition.

Boundary conventions, fixed so that region maps reproduce bit-for-bit:
violation is strict (M > 1); witness feasibility is non-strict in the
candidate diagonal entries (>= 0 up to 1e-12 round-off) and strict in the
mixing weight (0 < c < 1, with |c - 1| <= 1e-12 flagged as degenerate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import _bisect, _concurrence_of_fields, ef_from_concurrence
from .linalg import _kron2, _marginals
from .mixing import xstate_fields
from .states import PrepParams, _integer, _real, pauli, psi_a, validate

_AXES = ("x", "y", "z")

# Tr[m (sigma_i x sigma_j)] = _W[3i + j] . (real view of m), where _W is +-1 at four
# places, one per row of m: at _PAULI_PAIRS[i, j] in the real view of m, with signs
# _PAULI_SIGNS[i, j].  _pair_sums adds them in pairs, as np.trace adds a diagonal.
_P = np.array([np.kron(pauli(i), pauli(j)).T for i in _AXES for j in _AXES])
_W = np.stack((_P.real, -_P.imag), axis=-1).reshape(9, 32)
_PAULI_PAIRS = np.nonzero(_W)[1].reshape(3, 3, 4)
_PAULI_SIGNS = _W[_W != 0].reshape(3, 3, 4)

# Diagonal of the Werner state (5/12) Bell + (7/12) I/4 used by the witness.
WITNESS_DIAG = (17.0 / 48.0, 7.0 / 48.0, 7.0 / 48.0, 17.0 / 48.0)
WITNESS_CORNER = 5.0 / 24.0

# the most interior points of a grid axis: the float64s numpy can hold, less the 2 ends
_MAX_GRID_POINTS = np.iinfo(np.intp).max // 8 - 2

SEP_TOL = 1e-12          # round-off slack on the non-negativity constraints
DEGENERATE_TOL = 1e-12   # |c - 1| below this is flagged boundary-degenerate


def correlation_matrix(rho) -> np.ndarray:
    """3x3 matrix of Pauli-pair expectations T[i, j] = Tr[rho (sigma_i x sigma_j)]."""
    return _pair_sums(_gather(validate(rho)))


def _gather(m):
    # the signed real entries of m at _PAULI_PAIRS: T[i, j]'s four terms
    return m.ravel().view(np.float64)[_PAULI_PAIRS] * _PAULI_SIGNS


def _pair_sums(x):
    # T from its gathered terms, added in the pairs np.trace uses
    return (x[..., 0] + x[..., 1]) + (x[..., 2] + x[..., 3])


def _top_two(t):
    # the sum of the two largest eigenvalues of T^T T
    w = np.linalg.eigvalsh(t.T @ t)
    return w[-1] + w[-2]


def horodecki_m(rho) -> float:
    """Sum of the two largest eigenvalues of T^T T.

    The maximal CHSH value of the state is 2 sqrt(M); the inequality can be
    violated iff M > 1.
    """
    return float(_top_two(correlation_matrix(rho)))


def chsh_value(rho) -> float:
    """Largest CHSH expectation reachable with optimal measurement settings."""
    return 2.0 * math.sqrt(horodecki_m(rho))


def _horodecki_m_xstate(d1, d2, d3, d4, t):
    # T = diag(2t, -2t, d1 - d2 - d3 + d4) for the x state; floats or ndarrays
    tzz = d1 - d2 - d3 + d4
    x = 4.0 * t * t
    return x + np.maximum(x, tzz * tzz)


def chsh_boundary(a: float) -> float:
    """Success probability above which the mapped prepared state violates CHSH.

    Closed form in u = a^2 (1 - a^2): s* = (4u - 1 + sqrt(3 - 4u)) / (1 + 4u);
    equals 1/sqrt(2) at a = 1/sqrt(2) and rises towards sqrt(3) - 1 as a -> 0.
    """
    a = _real("a", a, 0, 1, "()")
    u = a * a * (1.0 - a * a)
    return ((4.0 * u - 1.0) + math.sqrt(3.0 - 4.0 * u)) / (1.0 + 4.0 * u)


def chsh_boundary_bisect(a: float) -> float:
    """CHSH boundary bisected on the full matrix criterion to a 1e-12 bracket (cross-check).

    T is linear in the state and the map's product term does not depend on s, so each
    step mixes T's 36 signed real entries of rho and of that term, gathered once, exactly
    as _mix(rho, s) rounds them (the +-1 signs are exact).  Both are real X states, so
    every off-diagonal term is zero; the gather is checked for that once, and a nonzero
    term raises RuntimeError naming a.  Each off-diagonal T entry is then +-0 at every s,
    T^T T is diagonal with entries T_ii^2 in any order of summation, and eigvalsh of a
    diagonal matrix returns its entries exactly.  So a step forms the three T_ii in floats,
    in _pair_sums's pairing, and M is the sum of the two largest squares, bit for bit.
    """
    a = _real("a", a, 0, 1, "()")
    rho = psi_a(a)   # a is checked above, and psi_a builds a valid state
    x1, x0 = map(_gather, (rho, _kron2(*_marginals(rho))))
    off = ~np.eye(3, dtype=bool)
    if x1[off].any() or x0[off].any():
        raise RuntimeError(f"T of psi_a(a) or of its product term is not diagonal at a = {a!r}")
    terms = [tuple(zip(p, q)) for p, q in zip(np.diagonal(x1).T.tolist(),
                                              np.diagonal(x0).T.tolist())]

    def above(s):
        r = 1.0 - s
        xx, yy, zz = (((s * p0 + r * q0) + (s * p1 + r * q1))
                      + ((s * p2 + r * q2) + (s * p3 + r * q3))
                      for (p0, q0), (p1, q1), (p2, q2), (p3, q3) in terms)
        _, m1, m2 = sorted((xx * xx, yy * yy, zz * zz))
        return m2 + m1 > 1.0

    return _bisect(above)


@dataclass(frozen=True)
class LhvtWitness:
    """Outcome of decomposing a mapped state as c * (Werner witness) + (1-c) * diagonal.

    When the decomposition succeeds the state inherits a local hidden-variable
    model for all non-sequential POVMs.  ``violated_constraints`` lists which
    of the requirements failed: 'c_range' for the mixing weight, 'd{i}_nonneg'
    for a negative candidate diagonal entry.
    """

    c: float
    sep_diag: tuple[float, float, float, float]
    feasible: bool
    violated_constraints: tuple[str, ...]
    boundary_degenerate: bool = False


def _witness(d, t):
    # c matching the corner coherence t, the remainders (d_i - c b_i) / (1 - c) of the four
    # diagonal fields d, NaN (no warning) where |1 - c| <= DEGENERATE_TOL, and c's range check.
    # The remainders come one by one: all four arrays of a fig3 block at once cost the flag 1.5x
    c = t / WITNESS_CORNER
    one_minus_c = 1.0 - c
    degenerate = abs(one_minus_c) <= DEGENERATE_TOL
    denominator = (np.where(degenerate, np.nan, one_minus_c) if isinstance(c, np.ndarray)
                   else math.nan if degenerate else one_minus_c)   # builtin floats stay floats
    remainders = ((di - c * b) / denominator for di, b in zip(d, WITNESS_DIAG))
    return c, remainders, (c > 0.0) & (one_minus_c > DEGENERATE_TOL)


def lhvt_decompose(p: PrepParams) -> LhvtWitness:
    """Match the corner coherence to fix c, then check the leftover diagonal.

    The mapped state has a single coherence t; the witness state's is 5/24, so
    c = (24/5) t is the only weight that leaves a diagonal remainder.  The
    remainder (d - c b) / (1 - c) must be entrywise non-negative.
    """
    *d, t = map(float, xstate_fields(p.a, p.s))
    c, remainders, c_ok = _witness(d, t)
    sep = tuple(remainders)
    violated = [] if c_ok else ["c_range"]
    violated += [f"d{i + 1}_nonneg" for i, v in enumerate(sep) if v < -SEP_TOL]
    return LhvtWitness(
        c=c,
        sep_diag=sep,
        feasible=not violated,
        violated_constraints=tuple(violated),
        boundary_degenerate=abs(c - 1.0) <= DEGENERATE_TOL,
    )


def _lhvt_of_fields(d1, d2, d3, d4, t, entangled):
    # lhvt_decompose(...).feasible on entangled cells; ndarrays, or builtin floats and bool
    _, remainders, c_ok = _witness((d1, d2, d3, d4), t)
    lhvt = entangled & c_ok
    for r in remainders:
        lhvt &= r >= -SEP_TOL
    return lhvt


def lhvt_region(p: PrepParams) -> bool:
    """True where the witness decomposition exists and entanglement survives."""
    d1, d2, d3, d4, t = xstate_fields(p.a, p.s)
    # False on a separable cell, before the witness is built; bool() for numpy-scalar fields
    return bool(_concurrence_of_fields(d2, d3, t) > 0.0
                and _lhvt_of_fields(d1, d2, d3, d4, t, True))


@dataclass(frozen=True)
class RegionMap:
    """Per-cell classification of the (a, s) parameter plane.

    Arrays are indexed [i_a, j_s] against the two coordinate vectors.
    """

    a: np.ndarray
    s: np.ndarray
    ef: np.ndarray
    entangled: np.ndarray
    chsh: np.ndarray
    lhvt: np.ndarray


def _grid_axes(a_points: int, s_points: int):
    # the a and s coordinates of the uniform interior grid, after checking both sizes; an
    # axis that finds no memory is named too
    sizes = {"a_points": a_points, "s_points": s_points}
    for name, points in sizes.items():
        _integer(name, points, 2, _MAX_GRID_POINTS)
    axes = []
    for name, points in sizes.items():
        try:
            axes.append(np.linspace(0.0, 1.0, points + 2)[1:-1])
        except MemoryError:
            raise ValueError(f"{name} must be small enough that its axis fits in memory, "
                             f"got {points!r}") from None
    return axes


def _classify(a_col, s_row):
    # (ef, entangled, chsh, lhvt) of each cell of a_col x s_row, broadcast elementwise, so a
    # block of rows classifies bit for bit as the same rows of the whole grid
    d1, d2, d3, d4, t = xstate_fields(a_col, s_row)
    c_raw = _concurrence_of_fields(d2, d3, t)
    entangled = c_raw > 0.0
    ef = ef_from_concurrence(np.clip(c_raw, 0.0, None))
    chsh = _horodecki_m_xstate(d1, d2, d3, d4, t) > 1.0
    return ef, entangled, chsh, _lhvt_of_fields(d1, d2, d3, d4, t, entangled)


def region_scan(a_points: int, s_points: int) -> RegionMap:
    """Classify a uniform interior grid of the (a, s) unit square.

    Each flag uses the same closed forms, and the same boundary conventions,
    as the scalar functions: entangled as concurrence_xstate > 0, chsh as
    M > 1, lhvt as lhvt_region.
    """
    a_vals, s_vals = _grid_axes(a_points, s_points)
    ef, entangled, chsh, lhvt = _classify(a_vals[:, None], s_vals[None, :])
    return RegionMap(a=a_vals, s=s_vals, ef=ef, entangled=entangled, chsh=chsh, lhvt=lhvt)
