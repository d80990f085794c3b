import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entmix import states
from entmix.entanglement import concurrence_raw, concurrence_xstate
from entmix.simulate import (
    DeliveryModel,
    estimate_concurrence,
    joint_probabilities,
    permutation_effective_s,
    simulate_pair_state,
)
from entmix.states import PrepParams, bell_state


def test_permutation_effective_s():
    assert permutation_effective_s(2) == 0.5
    assert abs(permutation_effective_s(3) - 1 / 3) < 1e-15
    assert permutation_effective_s(10**6) == 1e-6


def test_permutation_effective_s_validation():
    for n in (1, 0, -2):
        with pytest.raises(ValueError):
            permutation_effective_s(n)
    with pytest.raises(ValueError):
        permutation_effective_s(2.0)


def test_permutation_fixed_point_frequency_is_one_over_n():
    # checks the 1/n the simulator samples with, on full uniform permutations
    n, chunk, chunks = 256, 8192, 16
    rng = np.random.default_rng(2024)
    rows = np.broadcast_to(np.arange(n, dtype=np.int16), (chunk, n))
    fixed = sum(int(np.count_nonzero(rng.permuted(rows, axis=1)[:, 0] == 0))
                for _ in range(chunks))
    trials = chunk * chunks
    p = permutation_effective_s(n)
    assert abs(fixed / trials - p) <= 4 * np.sqrt(p * (1 - p) / trials)


def test_delivery_model_validation():
    DeliveryModel("bernoulli", s=0.5)
    DeliveryModel("permutation", n=4)
    with pytest.raises(ValueError):
        DeliveryModel("bernoulli")
    with pytest.raises(ValueError):
        DeliveryModel("bernoulli", s=1.5)
    with pytest.raises(ValueError):
        DeliveryModel("permutation", n=1)
    with pytest.raises(ValueError):
        DeliveryModel("postal", s=0.5)
    # the field the kind does not use is refused, not stored unchecked
    with pytest.raises(ValueError, match=r"^model kind 'bernoulli' takes no n, got 'x'$"):
        DeliveryModel("bernoulli", s=0.5, n="x")
    with pytest.raises(ValueError, match=r"^model kind 'permutation' takes no s, got 7\.0$"):
        DeliveryModel("permutation", n=4, s=7.0)


def test_effective_s():
    assert DeliveryModel("bernoulli", s=0.3).effective_s == 0.3
    assert DeliveryModel("permutation", n=4).effective_s == 0.25


def test_joint_probabilities_bell_zz():
    assert_allclose(joint_probabilities(bell_state(), "zz"), [0.5, 0, 0, 0.5], atol=1e-14)


def test_joint_probabilities_sum_to_one():
    rng = np.random.default_rng(40)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    for setting in ("xx", "xy", "yz", "zz"):
        assert abs(joint_probabilities(rho, setting).sum() - 1.0) < 1e-12


@pytest.mark.parametrize("setting", ["xyz", "qz", "x", "", "ZZ"])
def test_joint_probabilities_rejects_unknown_settings(setting):
    # a setting is two axes, each one of x, y, z; a longer string is not read by its prefix
    with pytest.raises(ValueError, match=f"setting must be one of .*, got {setting!r}"):
        joint_probabilities(bell_state(), setting)


def test_simulation_checks_each_state_once():
    # apply_map checks the pure state; then the nine rows of the mapped state, and the
    # nine of the pure state, each check their state once and find it remembered 8 times
    states._check.cache_clear()
    simulate_pair_state(DeliveryModel("bernoulli", s=0.4), a=0.6, trials=100, seed=1)
    info = states._check.cache_info()
    assert (info.misses, info.hits) == (3, 16), info


_REF_EIGVECS = {
    "x": np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
    "y": np.array([[1, 1], [1j, -1j]]) / np.sqrt(2.0),
    "z": np.eye(2),
}


def _reference_counts(s_eff, a, trials, seed):
    # the three documented draws per setting on its own Philox substream: intact
    # deliveries, their Born-rule outcomes on the pure state, and the broken
    # deliveries' outcomes under the product of the exact marginals diag(a^2, 1 - a^2)
    psi = np.array([a, 0.0, 0.0, np.sqrt(1.0 - a * a)])
    marginal = {"x": [0.5, 0.5], "y": [0.5, 0.5], "z": [a * a, 1.0 - a * a]}
    counts = np.empty((9, 4), dtype=np.int64)
    for k, (x, y) in enumerate(itertools.product("xyz", repeat=2)):
        p_joint = [abs(np.vdot(np.kron(_REF_EIGVECS[x][:, i], _REF_EIGVECS[y][:, j]), psi)) ** 2
                   for i in range(2) for j in range(2)]
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(k))
        intact = rng.binomial(trials, s_eff)
        counts[k] = rng.multinomial(intact, p_joint)
        counts[k] += rng.multinomial(trials - intact, np.kron(marginal[x], marginal[y]))
    return counts


@pytest.mark.parametrize("model, a, trials, seed", [
    (DeliveryModel("bernoulli", s=0.4), 0.3, 1000, 7),
    (DeliveryModel("bernoulli", s=0.05), 0.8, 10**6, 11),
    (DeliveryModel("permutation", n=4), 0.6, 10**6, 3),
    (DeliveryModel("permutation", n=9), 0.45, 12345, 2024),
], ids=["bernoulli-s0.4", "bernoulli-s0.05", "permutation-n4", "permutation-n9"])
def test_counts_equal_reference_draws(model, a, trials, seed):
    report = simulate_pair_state(model, a=a, trials=trials, seed=seed)
    expected = _reference_counts(model.effective_s, a, trials, seed)
    assert np.array_equal(report.freq, expected / trials)


def test_simulate_argument_validation():
    model = DeliveryModel("bernoulli", s=0.5)
    with pytest.raises(ValueError):
        simulate_pair_state(model, a=0.5, trials=0, seed=1)
    with pytest.raises(ValueError):
        simulate_pair_state(model, a=0.5, trials=10, seed=1.5)
    with pytest.raises(ValueError):
        simulate_pair_state(model, a=1.5, trials=10, seed=1)
    with pytest.raises(ValueError, match="trials"):
        simulate_pair_state(model, a=0.5, trials=2**63, seed=1)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128 - 1\]"):
            simulate_pair_state(model, a=0.5, trials=10, seed=seed)
    simulate_pair_state(model, a=0.5, trials=10, seed=2**128 - 1)


def test_memory_does_not_grow_with_trials_or_n():
    def peak(model, trials):
        tracemalloc.start()
        try:
            simulate_pair_state(model, a=0.6, trials=trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bernoulli = DeliveryModel("bernoulli", s=0.3)
    simulate_pair_state(bernoulli, a=0.6, trials=10, seed=3)  # warm-up: first-call caches
    base = peak(bernoulli, 10)
    assert peak(bernoulli, 1_000_000) <= 1.5 * base
    assert peak(DeliveryModel("permutation", n=1000), 2000) <= 1.5 * base


def test_same_seed_is_bit_reproducible():
    model = DeliveryModel("permutation", n=4)
    r1 = simulate_pair_state(model, a=0.6, trials=20_000, seed=123)
    r2 = simulate_pair_state(model, a=0.6, trials=20_000, seed=123)
    assert np.array_equal(r1.freq, r2.freq)
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


def test_different_seeds_differ():
    model = DeliveryModel("bernoulli", s=0.5)
    r1 = simulate_pair_state(model, a=0.6, trials=20_000, seed=1)
    r2 = simulate_pair_state(model, a=0.6, trials=20_000, seed=2)
    assert not np.array_equal(r1.freq, r2.freq)


def test_frequencies_sum_to_one_per_setting():
    r = simulate_pair_state(DeliveryModel("bernoulli", s=0.7), a=0.3, trials=5_000, seed=5)
    assert_allclose(r.freq.sum(axis=1), np.ones(9), atol=1e-12)


def test_report_metadata():
    r = simulate_pair_state(DeliveryModel("permutation", n=3), a=0.5, trials=100, seed=9)
    assert r.effective_s == 1 / 3
    assert "philox" in r.rng_algorithm
    assert r.basis_settings == tuple(x + y for x in "xyz" for y in "xyz")
    assert r.freq.shape == (9, 4)


def test_unmixed_bell_statistics():
    r = simulate_pair_state(
        DeliveryModel("bernoulli", s=1.0), a=1 / np.sqrt(2), trials=100_000, seed=7
    )
    zz = r.freq[r.basis_settings.index("zz")]
    assert zz[1] == 0.0 and zz[2] == 0.0  # outcomes 01/10 never occur
    assert abs(zz[0] - 0.5) < 0.01 and abs(zz[3] - 0.5) < 0.01
    assert r.max_sigma <= 4.0


def test_broken_trials_are_uncorrelated_across_sides():
    # with s = 0 every trial is broken; outcome signs on the two sides must
    # be independent within statistical error
    trials = 200_000
    r = simulate_pair_state(DeliveryModel("bernoulli", s=0.0), a=0.3, trials=trials, seed=21)
    sa = np.array([1.0, 1.0, -1.0, -1.0])
    sb = np.array([1.0, -1.0, 1.0, -1.0])
    for k in range(9):
        f = r.freq[k]
        cov = float(f @ (sa * sb)) - float(f @ sa) * float(f @ sb)
        se = np.sqrt((1 - float(f @ sa) ** 2) * (1 - float(f @ sb) ** 2) / trials)
        assert abs(cov) <= 4 * max(se, 1e-12)


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_zero_variance_cells_have_sigma_zero(a):
    # at a = 0 and a = 1 the delivered state is a product state: every z outcome is certain,
    # and a certain prediction met is sigma 0, with no division by its zero standard error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = simulate_pair_state(DeliveryModel("bernoulli", s=0.3), a=a, trials=1000, seed=3)
    certain = (r.pred == 0.0) | (r.pred == 1.0)
    assert certain.sum() == 12   # all of zz, and half of each of xz, yz, zx and zy
    assert np.all(r.sigma[certain] == 0.0) and r.max_sigma < 4.0


def test_permutation_model_matches_prediction():
    r = simulate_pair_state(DeliveryModel("permutation", n=4), a=0.6, trials=200_000, seed=7)
    assert r.effective_s == 0.25
    assert r.max_sigma <= 4.0


def test_bernoulli_model_matches_prediction():
    r = simulate_pair_state(DeliveryModel("bernoulli", s=0.3), a=0.1, trials=200_000, seed=7)
    assert r.max_sigma <= 4.0


def test_concurrence_estimate_converges():
    # entangled configuration: the reconstruction matches the closed form
    r = simulate_pair_state(DeliveryModel("bernoulli", s=0.5), a=0.6, trials=1_000_000, seed=17)
    est, se = estimate_concurrence(r)
    true_c = concurrence_xstate(PrepParams(0.6, 0.5))
    assert abs(est - true_c) <= 3 * se
    # separable configuration: the unclamped estimate tracks the raw value,
    # so its positive part converges to the (zero) delivered concurrence
    r2 = simulate_pair_state(DeliveryModel("permutation", n=4), a=0.6, trials=1_000_000, seed=17)
    est2, se2 = estimate_concurrence(r2)
    assert abs(est2 - concurrence_raw(0.6, 0.25)) <= 3 * se2
    assert max(0.0, est2) == concurrence_xstate(PrepParams(0.6, 0.25))


def test_concurrence_estimate_of_a_pure_state_has_the_correlator_error_only():
    # at s = 1 no zz outcome +- or -+ occurs, so the diagonal adds no error and the standard
    # error is the xx and yy correlators' alone
    n = 100_000
    r = simulate_pair_state(DeliveryModel("bernoulli", s=1.0), a=0.6, trials=n, seed=3)
    zz = r.freq[r.basis_settings.index("zz")]
    assert zz[1] == 0.0 and zz[2] == 0.0
    est, se = estimate_concurrence(r)
    assert abs(est - 2 * 0.6 * np.sqrt(1 - 0.6**2)) <= 4 * se
    sign = np.array([1.0, -1.0, -1.0, 1.0])
    exx, eyy = (float(r.freq[r.basis_settings.index(s)] @ sign) for s in ("xx", "yy"))
    assert se == pytest.approx(2 * np.sqrt(((1 - exx**2) + (1 - eyy**2)) / (16 * n)), rel=1e-12)
