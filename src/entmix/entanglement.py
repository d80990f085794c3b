"""Concurrence, entanglement of formation, survival thresholds and the optimal
preparation problem for states delivered through the mixing map.

Two routes to the concurrence are kept deliberately separate: the general
spin-flip construction working on an arbitrary 4x4 state, and the one-line
closed form valid for the mapped prepared states.  Tests hold them against
each other over the whole parameter plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import xstate_fields
from .states import _N_RANGE, PrepParams, _check, _integer, _real, validate

# (sigma_y x sigma_y) x is x's rows reversed, times these signs
_YY_ROW_SIGNS = np.array((-1.0, 1.0, 1.0, -1.0))[:, None]

BISECT_TOL = 1e-12   # the bisections stop once their bracket is this narrow
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class OptimalPrep:
    """Best preparation amplitude for a given success probability.

    ``a_star`` is None for the degenerate s = 0 case, where no preparation
    yields any entanglement and the argmax is undefined.
    """

    s: float
    a_star: float | None
    c_max: float
    ef_max: float


def wootters_spectrum(rho) -> tuple[float, float, float, float]:
    """Spectrum l1 >= l2 >= l3 >= l4 of sqrt(rho . rho~), as the singular values of tau.

    With rho = X X^dag, X = v sqrt(w) from the eigendecomposition validate keeps,
    tau = X^T (sigma_y x sigma_y) X is symmetric and tau tau^dag has the spectrum
    of rho rho~ (Wootters, PRL 80, 2245 (1998)).  Singular values carry no square
    root of round-off, so zero l's stay at the 1e-16 level on rank-deficient states.
    """
    w, v = _check(validate(rho).tobytes())   # validate's remembered decomposition
    x = v * np.sqrt(np.maximum(w, 0.0))
    return tuple(np.linalg.svd(x.T @ (_YY_ROW_SIGNS * x[::-1]), compute_uv=False).tolist())


def concurrence_general(rho) -> float:
    """Concurrence of an arbitrary two-qubit state: max(0, l1 - l2 - l3 - l4).

    The l's are the singular values of Wootters' tau (see wootters_spectrum).
    """
    l1, l2, l3, l4 = wootters_spectrum(rho)
    return max(0.0, l1 - l2 - l3 - l4)


def concurrence_raw(a, s):
    """Unclamped closed-form concurrence of the mapped prepared state; floats or ndarrays.

    Negative values mean the state is separable; they are kept unclamped here
    because root finders and optimizers need the sign.
    """
    d1, d2, d3, d4, t = xstate_fields(a, s)
    return _concurrence_of_fields(d2, d3, t)


def _concurrence_of_fields(d2, d3, t):
    # unclamped X-state concurrence 2 (t - sqrt(d2 d3)) for t >= 0; floats or ndarrays
    p = d2 * d3
    return 2.0 * (t - (np.sqrt(p) if isinstance(p, np.ndarray) else math.sqrt(p)))


def concurrence_xstate(p: PrepParams) -> float:
    """Closed-form concurrence of the mapped prepared state, clamped at zero."""
    return max(0.0, float(concurrence_raw(p.a, p.s)))


def survival_threshold(a: float) -> float:
    """Smallest success probability above which the mapped state stays entangled.

    With w = a sqrt(1 - a^2), the concurrence is positive iff s > w / (1 + w).
    Undefined at a = 0 or 1 where the prepared state is never entangled.
    """
    a = _real("a", a, 0, 1, "()")
    w = a * math.sqrt(1.0 - a * a)
    return w / (1.0 + w)


def _bisect(above):
    # the midpoint of the bracket in [0, 1] where above(s) turns true, once hi - lo <= BISECT_TOL
    lo, hi, mid = 0.0, 1.0, 0.5
    while hi - lo > BISECT_TOL:
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return mid


def survival_threshold_bisect(a: float) -> float:
    """Threshold bisected on the unclamped concurrence to a 1e-12 bracket (BISECT_TOL)."""
    a = _real("a", a, 0, 1, "()")
    return _bisect(lambda s: concurrence_raw(a, s) > 0.0)


def ef_from_concurrence(c):
    """Entanglement of formation (bits) from concurrence, a float or an ndarray; no validation.

    E_F is the binary entropy of x = (1 + sqrt(1 - c^2)) / 2.  The smaller
    eigenvalue 1 - x is formed directly as c^2 / (2 (1 + sqrt(1 - c^2))) and
    log2(x) as log1p(-(1 - x)) / ln 2, so nothing cancels as c -> 0 and the
    result keeps full relative precision down to the smallest concurrences
    (where E_F ~ (c^2 / 4) [log2(4 / c^2) + 1 / ln 2]).  E_F(0) is +0.0; a NaN c gives NaN.

    A float stays a float: math.sqrt and max replace np.sqrt and np.maximum, which
    round alike.  The two logarithms stay numpy's, made floats, since math.log1p and
    math.log differ from numpy's vectorised loops in the last bit on some inputs, and a
    scalar E_F must have the bits of the same cell of an array call (fig2, fig3).
    """
    # y log y -> 0 at y = 0, read as 0 log 1; adding +0.0 turns the -0.0 there into +0.0
    if isinstance(c, np.ndarray):
        y = c * c / (2.0 * (1.0 + np.sqrt(np.maximum(1.0 - c * c, 0.0))))
        log1p, log = np.log1p(-y), np.log(y + (y == 0.0))
    else:
        y = c * c / (2.0 * (1.0 + math.sqrt(max(1.0 - c * c, 0.0))))
        log1p, log = float(np.log1p(-y)), float(np.log(y + (y == 0.0)))
    return -((1.0 - y) * log1p + y * log) / _LN2 + 0.0


def entanglement_of_formation(c: float) -> float:
    """Entanglement of formation in bits for a two-qubit concurrence c in [0, 1]."""
    if not math.isfinite(c) or c < -1e-12 or c > 1.0 + 1e-12:
        raise ValueError(f"concurrence must be in [0, 1], got {c}")
    return ef_from_concurrence(min(max(float(c), 0.0), 1.0))


def _a_from_w(w: float) -> float:
    # inverse of w = a sqrt(1-a^2) on a in [0, 1/sqrt(2)], cancellation-free
    w = min(max(w, 0.0), 0.5)
    disc = max(1.0 - 4.0 * w * w, 0.0)
    return math.sqrt(2.0 * w * w / (1.0 + math.sqrt(disc)))


def max_concurrence(s):
    """Largest delivered concurrence over all preparations; ``s`` a float or an ndarray.

    Over w = a sqrt(1 - a^2) in [0, 1/2] the concurrence 2(s w - (1 - s) w^2)
    peaks at w* = s / (2 (1 - s)) below s = 1/2, giving s^2 / (2 (1 - s)),
    and at the edge w* = 1/2 from s = 1/2 on, giving (3 s - 1) / 2.
    """
    array = isinstance(s, np.ndarray)
    # the cap keeps the unused branch from dividing by zero at s = 1
    peak = s * s / (2.0 * (1.0 - (np.minimum(s, 0.5) if array else min(s, 0.5))))
    edge = (3.0 * s - 1.0) / 2.0
    return np.where(s < 0.5, peak, edge) if array else (peak if s < 0.5 else edge)


def optimize_prep(s: float) -> OptimalPrep:
    """Best preparation amplitude for success probability s, in closed form.

    The optimum w* of max_concurrence is inverted on the symmetric half
    a in [0, 1/sqrt(2)] of the domain: a* = a(w*) with
    a^2 = 2 w*^2 / (1 + sqrt(1 - 4 w*^2)).  It tends to s/2 as s -> 0, from
    above by a relative s / (1 - s), and equals 1/sqrt(2) from s = 1/2 on.
    """
    s = _real("s", s, 0, 1)
    if s == 0.0:
        return OptimalPrep(s=0.0, a_star=None, c_max=0.0, ef_max=0.0)
    a_star = _a_from_w(s / (2.0 * (1.0 - s)) if s < 0.5 else 0.5)
    c_max = max_concurrence(s)
    return OptimalPrep(s=s, a_star=a_star, c_max=c_max, ef_max=entanglement_of_formation(c_max))


def ef_max_asymptotic(s):
    """Small-s closed form for the best achievable entanglement of formation; broadcasts.

    (s^4 / 4) [log2(1/s) + 1 + 1/(4 ln 2)]; a leading-order expression, only
    meaningful for s well below 1/2.  It is the leading small-C term of E_F at
    C0 = s^2 / 2, while the optimum sits at C* = C0 / (1 - s).  Since E_F is
    increasing and E_F(C) / C^2 decreasing in C, the ratio to the exact
    optimum obeys (1 - s)^2 <= asymptote / optimum <= 1, up to a relative
    O(C*^2 log(1/C*)) correction; the gap to 1 is about 2 s.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s) & (s > 0.0) & (s <= 1.0)):
        raise ValueError(f"success probability s must be in (0, 1], got {s}")
    return s**4 / 4.0 * (np.log2(1.0 / s) + 1.0 + 1.0 / (4.0 * math.log(2.0)))


def eisert_lower_bound(n: int) -> float:
    """Total E_F of n pairs delivered at s = 1/n from the optimal preparation.

    Not a lower bound on distillable entanglement: E_D <= E_F for every state
    (Bennett et al., PRA 54, 3824 (1996)), and at s = 1/n <= 1/2 the coherent
    information is negative for every a.  The paper's abstract does not say
    which bound it means by this number.
    """
    _integer("n", n, *_N_RANGE)
    return float(n) * optimize_prep(1.0 / float(n)).ef_max
