"""Independent reference for the benchmark's output checks.

Nothing here imports entmix.  The closed forms are derived afresh from the
mixing map applied to a|00> + b|11>, b = sqrt(1 - a^2), w = a b:

    d1 = s a^2 + (1-s) a^4     d2 = d3 = (1-s) w^2     d4 = s b^2 + (1-s) b^4
    t  = s w                   (the one coherence, between |00> and |11>)

    concurrence    C = 2 (s w - (1-s) w^2)            > 0  iff  s > w / (1 + w)
    CHSH           T = diag(2t, -2t, 1 - 4 w^2 (1-s)),  M = 4t^2 + max(4t^2, T_zz^2)
    optimum        w* = min(s / (2 (1-s)), 1/2),  c*(s) = 2 (s w* - (1-s) w*^2)

The general 4x4 route (the state built from its partial traces, Wootters'
eigenvalues of rho (Y x Y) rho* (Y x Y), the Pauli correlation matrix) is
coded here as well; it supplies the Born-rule outcome probabilities and is
held against the closed forms by the benchmark's tests.  E_F and the
thresholds are evaluated in 40-digit decimal arithmetic from the exact
binary values of the inputs.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

import numpy as np

DEC = Context(prec=40)
EPS = float(np.finfo(float).eps)

# Werner state (5/12) Bell + (7/12) I/4 that certifies a local model.
WERNER_DIAG = (17.0 / 48.0, 7.0 / 48.0, 7.0 / 48.0, 17.0 / 48.0)
WERNER_CORNER = 5.0 / 24.0

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# (+1, -1) eigenvectors of x, y, z as columns.
_EIGVECS = (
    np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2.0),
    np.eye(2, dtype=complex),
)


# ---- closed forms, float64, broadcasting -------------------------------------

def xstate(a, s):
    """(d1, d2, d4, t) of the mapped state; d3 = d2."""
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    a2 = a * a
    b2 = 1.0 - a2
    w = a * np.sqrt(b2)
    return s * a2 + (1 - s) * a2 * a2, (1 - s) * w * w, s * b2 + (1 - s) * b2 * b2, s * w


def concurrence(a, s):
    """Unclamped closed-form concurrence 2 (s w - (1-s) w^2)."""
    a = np.asarray(a, dtype=float)
    w = a * np.sqrt(1.0 - a * a)
    return 2.0 * (s * w - (1.0 - s) * w * w)


def chsh_m(a, s):
    """Horodecki M of the mapped state from its diagonal correlation matrix."""
    a = np.asarray(a, dtype=float)
    w2 = a * a * (1.0 - a * a)
    x = 4.0 * s * s * w2
    tzz = 1.0 - 4.0 * w2 * (1.0 - s)
    return x + np.maximum(x, tzz * tzz)


def witness_terms(a, s):
    """Werner weight c = t / (5/24) and the numerators d_i - c b_i.

    The state is c W + (1 - c) D with D diagonal, so it admits the local
    model iff 0 < c < 1 and every numerator (hence every entry of D) is
    non-negative.
    """
    d1, d2, d4, t = xstate(a, s)
    c = t / WERNER_CORNER
    return c, [d - c * b for d, b in zip((d1, d2, d2, d4), WERNER_DIAG)]


def c_star_float(s):
    """c*(s) in float64, within 4 ulp."""
    s = np.asarray(s, dtype=float)
    return np.where(s < 0.5, s * s / (2.0 * (1.0 - s)), (3.0 * s - 1.0) / 2.0)


def _a_from_w(w):
    w = np.clip(w, 0.0, 0.5)
    return np.sqrt(2.0 * w * w / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * w * w, 0.0))))


def a_star(s):
    """Amplitude of the optimum: a^2 = 2 w*^2 / (1 + sqrt(1 - 4 w*^2))."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        return _a_from_w(np.minimum(s / (2.0 * (1.0 - s)), 0.5))


def a_star_tolerance(s):
    """How far a maximizer of float values of f(w) = 2 (s w - (1-s) w^2) may put a*.

    Values within k ulp of the top, k = 16, cannot be told apart.  With g
    the slope of f at w* (0 inside (0, 1/2), 2 (2s - 1) at the edge w = 1/2)
    and curvature 4 (1-s), f(w*) - f(w* - d) = g d + 2 (1-s) d^2 reaches
    k eps c* at d = 2 k eps c* / (g + sqrt(g^2 + 8 (1-s) k eps c*)).  Near
    s = 1/2, where da/dw grows without bound, that d moves a* by far more
    than 1e-6 a*; the tolerance is 1e-6 a* plus the move.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        w = np.minimum(s / (2.0 * (1.0 - s)), 0.5)
    slack = 16 * EPS * c_star_float(s)
    g = np.maximum(2.0 * (2.0 * s - 1.0), 0.0)
    d = 2.0 * slack / (g + np.sqrt(g * g + 8.0 * (1.0 - s) * slack))
    a = _a_from_w(w)
    move = np.maximum(np.abs(_a_from_w(w - d) - a), np.abs(_a_from_w(w + d) - a))
    return 1e-6 * a + move


def wootters_lambdas(a, s):
    """Closed-form Wootters lambdas: sqrt(d1 d4) +- t and sqrt(d2 d3) twice."""
    d1, d2, d4, t = xstate(a, s)
    r = np.sqrt(d1 * d4)
    return r + t, np.abs(r - t), d2, d2


def general_concurrence_tol(a, s) -> np.ndarray:
    """Error bound for a concurrence computed from a 4x4 eigen-decomposition.

    Eigenvalues of the Wootters product carry an absolute error of order
    dw = 1e-14 (about 45 ulp for a matrix of norm <= 1); its square root
    then errs by at most min(sqrt(dw), dw / lambda).  The bound sums that
    over the four lambdas.
    """
    dw = 1e-14
    tol = np.full(np.broadcast(a, s).shape, 1e-14)
    for lam in wootters_lambdas(a, s):
        with np.errstate(divide="ignore"):
            tol = tol + np.minimum(math.sqrt(dw), dw / lam)
    return tol


# ---- general 4x4 route --------------------------------------------------------

def mapped_state(a: float, s: float) -> np.ndarray:
    """s |psi><psi| + (1-s) Tr_B (x) Tr_A, built from the ket."""
    ket = np.array([a, 0.0, 0.0, math.sqrt(1.0 - a * a)], dtype=complex)
    rho = np.outer(ket, ket.conj())
    t = rho.reshape(2, 2, 2, 2)
    rho_a = np.trace(t, axis1=1, axis2=3)
    rho_b = np.trace(t, axis1=0, axis2=2)
    return s * rho + (1.0 - s) * np.kron(rho_a, rho_b)


def wootters_concurrence(rho: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4), l the square roots of the eigenvalues of rho rho~."""
    yy = np.kron(_PAULI[1], _PAULI[1])
    ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
    lam = np.sort(np.sqrt(np.abs(ev.real)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def correlation_m(rho: np.ndarray) -> float:
    """Sum of the two largest eigenvalues of T^T T, T_ij = Tr rho (sigma_i x sigma_j)."""
    t = np.array([[np.trace(rho @ np.kron(p, q)).real for q in _PAULI] for p in _PAULI])
    w = np.linalg.eigvalsh(t.T @ t)
    return float(w[-1] + w[-2])


def born_probabilities(a: float, s: float) -> np.ndarray:
    """(9, 4) outcome probabilities, settings xx..zz, outcomes ++, +-, -+, --."""
    rho = mapped_state(a, s)
    out = np.empty((9, 4))
    for k in range(9):
        va, vb = _EIGVECS[k // 3], _EIGVECS[k % 3]
        for o in range(4):
            ket = np.kron(va[:, o // 2], vb[:, o % 2])
            out[k, o] = (ket.conj() @ rho @ ket).real
    return out


# ---- 40-digit evaluations -----------------------------------------------------

def _dec(x) -> Decimal:
    return Decimal(float(x))


def ef(c) -> Decimal:
    """Entanglement of formation (bits) of concurrence c, to 40 digits.

    With y = (1 - sqrt(1 - c^2)) / 2 = c^2 / (2 (1 + sqrt(1 - c^2))),
    E_F = -(y ln y + (1 - y) ln(1 - y)) / ln 2.
    """
    with localcontext(DEC):
        c = c if isinstance(c, Decimal) else _dec(c)
        if c <= 0:
            return Decimal(0)
        y = c * c / (2 * (1 + (1 - c * c).sqrt()))
        return -(y * y.ln() + (1 - y) * (1 - y).ln()) / Decimal(2).ln()


def concurrence_dec(a, s) -> Decimal:
    with localcontext(DEC):
        a, s = _dec(a), _dec(s)
        w = a * (1 - a * a).sqrt()
        return 2 * (s * w - (1 - s) * w * w)


def c_star(s) -> Decimal:
    """Largest delivered concurrence at s: s^2 / (2 (1-s)) below s = 1/2, (3s - 1) / 2 above."""
    with localcontext(DEC):
        s = _dec(s)
        if s * 2 < 1:
            return s * s / (2 * (1 - s))
        return (3 * s - 1) / 2


def survival_threshold(a) -> Decimal:
    """s above which the mapped state is entangled: w / (1 + w)."""
    with localcontext(DEC):
        a = _dec(a)
        w = a * (1 - a * a).sqrt()
        return w / (1 + w)


def chsh_threshold(a) -> Decimal:
    """s above which M > 1.

    On the branch T_zz^2 >= 4 t^2, M = 1 reads (1 + k) s^2 + 2 (1 - k) s + k - 2 = 0
    with k = 4 w^2, whose root in [0, 1] is (k - 1 + sqrt(3 - k)) / (1 + k).
    The branch holds at that root for every a in (0, 1); it is checked.
    """
    with localcontext(DEC):
        a = _dec(a)
        k = 4 * a * a * (1 - a * a)
        s = (k - 1 + (3 - k).sqrt()) / (1 + k)
        tzz = 1 - k * (1 - s)
        if tzz * tzz < k * s * s:
            raise ArithmeticError(f"CHSH branch assumption fails at a = {a}")
        return s


def chsh_slope(a: float, s: float) -> float:
    """dM/ds on the T_zz branch: 8 s w^2 + 8 w^2 T_zz."""
    w2 = a * a * (1.0 - a * a)
    return 8.0 * s * w2 + 8.0 * w2 * (1.0 - 4.0 * w2 * (1.0 - s))


def ef_slope(c: float) -> float:
    """dE_F/dC = (C / (2 sqrt(1 - C^2))) log2(x / (1 - x)), x = (1 + sqrt(1 - C^2)) / 2."""
    if c <= 0.0:
        return 0.0
    r = math.sqrt(max(1.0 - c * c, 0.0))
    if r < 1e-8:
        return c / math.log(2.0)
    x = (1.0 + r) / 2.0
    y = c * c / (2.0 * (1.0 + r))
    return c / (2.0 * r) * math.log2(x / y)


def ef_tolerance(c: float, c_err: float, ef_ref: float) -> float:
    """Allowed |EF_printed - EF_ref| for a concurrence known to within c_err.

    Propagates c_err through dE_F/dC, adds 16 ulp for the E_F evaluation
    itself and half a unit in the 12th significant digit of the print.
    """
    return ef_slope(c) * c_err + 16 * EPS * ef_ref + 5e-12 * ef_ref + 1e-300
