"""Seeded Monte Carlo oracle for the bulk-delivery scenario.

Each trial ships one prepared pair to a focal customer pair.  Under the
``bernoulli`` model the pair arrives intact with probability s; under the
``permutation`` model the A-side shipments of n customer pairs are permuted
uniformly at random and the focal pair is intact iff its own index is a fixed
point (probability exactly 1/n: the first step of a Fisher-Yates shuffle
settles position 0 with one uniform draw).  Intact trials are measured on the
prepared pure state; broken trials draw the two sides independently from the
state's marginals.  Reported frequencies are held against the probabilities
the mixing map predicts.

Trials are independent and identically distributed, so only the outcome
counts matter, and they are sampled directly: the number of intact trials is
binomial, and the outcomes of the intact and of the broken trials are
multinomial given that number.  Time and memory do not depend on ``trials``
or on n.

Randomness comes from numpy's counter-based Philox generator; setting k of
the nine Pauli-pair settings uses the substream ``Philox(key=seed).jumped(k)``,
so runs are bit-reproducible and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import _concurrence_of_fields
from .mixing import apply_map
from .states import _N_RANGE, _integer, _real, psi_a, validate

RNG_ALGORITHM = "numpy-philox4x64, per-setting jumped substreams"
SETTINGS = tuple(x + y for x in "xyz" for y in "xyz")
OUTCOME_LABELS = ("++", "+-", "-+", "--")
SIGMA_THRESHOLD = 4.0  # per-cell acceptance in binomial standard errors

# Eigenvector columns (+1 first) of each Pauli operator.
_EIGVECS = {
    "x": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0),
    "y": np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / np.sqrt(2.0),
    "z": np.array([[1, 0], [0, 1]], dtype=np.complex128),
}


@dataclass(frozen=True)
class DeliveryModel:
    """Generative model of the delivery process.

    kind 'bernoulli' needs a per-pair success probability ``s``; kind
    'permutation' needs the number of customer pairs ``n`` (>= 2), which
    induces an effective success probability of 1/n.  The field the kind does
    not use must stay None.
    """

    kind: str
    s: float | None = None
    n: int | None = None

    def __post_init__(self):   # frozen: s or n is stored here as its check returns it
        if self.kind == "bernoulli":
            self.__dict__["s"] = _real("s", self.s, 0, 1)
        elif self.kind == "permutation":
            self.__dict__["n"] = _integer("n", self.n, *_N_RANGE)
        else:
            raise ValueError(f"model kind must be 'bernoulli' or 'permutation', got {self.kind!r}")
        unused = "n" if self.kind == "bernoulli" else "s"
        if getattr(self, unused) is not None:
            raise ValueError(f"model kind {self.kind!r} takes no {unused}, "
                             f"got {getattr(self, unused)!r}")

    @property
    def effective_s(self) -> float:
        if self.kind == "bernoulli":
            return self.s
        return permutation_effective_s(self.n)


def permutation_effective_s(n: int) -> float:
    """Fixed-point probability of a uniform permutation of n shipments: exactly 1/n."""
    return 1.0 / _integer("n", n, *_N_RANGE)


@dataclass(frozen=True, eq=False)
class SimReport:
    """Observed vs predicted outcome statistics for all nine Pauli-pair settings.

    ``freq``, ``pred`` and ``sigma`` are (9, 4) arrays over (setting, outcome);
    sigma is |freq - pred| in binomial standard errors (0 where a deterministic
    prediction is met, inf where it is missed, which a JSON document writes as null).
    """

    model: str
    effective_s: float
    a: float
    trials: int
    seed: int
    rng_algorithm: str
    basis_settings: tuple[str, ...]
    outcome_labels: tuple[str, ...]
    freq: np.ndarray
    pred: np.ndarray
    sigma: np.ndarray
    max_sigma: float

    def to_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}


def joint_probabilities(rho, setting: str) -> np.ndarray:
    """Outcome probabilities (++, +-, -+, --) of a setting of SETTINGS on a valid state."""
    if setting not in SETTINGS:
        raise ValueError(f"setting must be one of {SETTINGS}, got {setting!r}")
    m = validate(rho)
    # row 2i + j is the product of A's eigenvector i and B's eigenvector j
    kets = np.kron(_EIGVECS[setting[0]], _EIGVECS[setting[1]]).T.copy()
    return np.array([max(float(np.vdot(ket, m @ ket).real), 0.0) for ket in kets])


def simulate_pair_state(model: DeliveryModel, a: float, trials: int, seed: int) -> SimReport:
    """Run the delivery simulation and compare against the mixing-map prediction.

    Every setting gets its own ``trials`` deliveries on an independent
    substream of ``seed``, drawn as three counts: the intact deliveries
    ``k ~ Binomial(trials, s_eff)``, their outcomes ``~ Multinomial(k, p)``
    under the prepared pure state's joint distribution ``p``, and the
    outcomes of the ``trials - k`` broken deliveries
    ``~ Multinomial(trials - k, pa (x) pb)`` under the product of its
    marginals.  Since every trial is intact independently with probability
    ``s_eff`` and then measured independently, these counts have exactly the
    distribution of playing out each trial in turn.

    Parameters
    ----------
    model : DeliveryModel
    a : float
        Preparation amplitude of the shipped pure state.
    trials : int
        Deliveries per measurement setting, 1 <= trials <= 2**63 - 1.
    seed : int
        Philox key; runs with equal arguments are bit-identical.
    """
    a = _real("a", a, 0, 1)
    trials = _integer("trials", trials, 1, np.iinfo(np.int64).max)   # the most samplers take
    seed = _integer("seed", seed, 0, 2**128 - 1, "2**128 - 1")

    rho_pure = psi_a(a)
    # the marginal of either side is diag(a^2, 1 - a^2): (+, -) probabilities
    # (a^2, 1 - a^2) along z, and exactly (1/2, 1/2) along x and y
    a2 = a * a
    marginal = {"x": (0.5, 0.5), "y": (0.5, 0.5), "z": (a2, 1.0 - a2)}
    s_eff = model.effective_s
    rho_pred = apply_map(rho_pure, s_eff)

    # all of one state's rows before the other's: validate checks each state once
    pred = np.array([joint_probabilities(rho_pred, setting) for setting in SETTINGS])
    freq = np.empty((9, 4))
    for k, setting in enumerate(SETTINGS):
        p_joint = joint_probabilities(rho_pure, setting)
        pa, pb = marginal[setting[0]], marginal[setting[1]]

        rng = np.random.Generator(np.random.Philox(key=seed).jumped(k))
        intact = rng.binomial(trials, s_eff)
        counts = rng.multinomial(intact, p_joint)
        counts += rng.multinomial(trials - intact, np.kron(pa, pb))
        freq[k] = counts / trials

    se = np.sqrt(pred * (1.0 - pred) / trials)
    sigma = np.divide(abs(freq - pred), se, out=np.where(freq == pred, 0.0, np.inf), where=se > 0.0)
    return SimReport(
        model=model.kind,
        effective_s=s_eff,
        a=a,
        trials=trials,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        basis_settings=SETTINGS,
        outcome_labels=OUTCOME_LABELS,
        freq=freq,
        pred=pred,
        sigma=sigma,
        max_sigma=float(np.max(sigma)),
    )


def estimate_concurrence(report: SimReport) -> tuple[float, float]:
    """Reconstruct the concurrence of the delivered state from the frequencies.

    The zz frequencies estimate the diagonal; the xx and yy correlators
    estimate the corner coherence.  Returns (estimate, standard error), the
    error combining the binomial uncertainties of the ingredients.  The
    estimate is unclamped: a significantly negative value is evidence the
    delivered state is separable, and its positive part estimates the
    delivered concurrence.
    """
    n = report.trials
    idx = {s: i for i, s in enumerate(report.basis_settings)}
    sign = np.array([1.0, -1.0, -1.0, 1.0])
    d = report.freq[idx["zz"]]
    exx = float(report.freq[idx["xx"]] @ sign)
    eyy = float(report.freq[idx["yy"]] @ sign)
    t_est = (exx - eyy) / 4.0
    d2, d3 = max(d[1], 0.0), max(d[2], 0.0)
    c_est = _concurrence_of_fields(d2, d3, t_est)

    var_t = ((1.0 - exx**2) + (1.0 - eyy**2)) / (16.0 * n)
    if d2 > 0.0 and d3 > 0.0:
        var_geo = (d3 / d2) * d[1] * (1 - d[1]) / (4 * n) + (d2 / d3) * d[2] * (1 - d[2]) / (4 * n)
    else:
        var_geo = (d[1] * (1 - d[1]) + d[2] * (1 - d[2])) / (4 * n)
    se = 2.0 * np.sqrt(var_t + var_geo)
    return float(c_est), float(se)
