import dataclasses
import math

import numpy as np
import pytest

from entmix.entanglement import (
    OptimalPrep,
    concurrence_general,
    concurrence_raw,
    concurrence_xstate,
    ef_from_concurrence,
    ef_max_asymptotic,
    eisert_lower_bound,
    entanglement_of_formation,
    max_concurrence,
    optimize_prep,
    survival_threshold,
    survival_threshold_bisect,
    wootters_spectrum,
)
from entmix.mixing import apply_map, mapped_state, xstate_fields
from entmix.states import PrepParams, bell_state, psi_a

INV_SQRT2 = 1 / np.sqrt(2)


def entropy_oracle(c):
    # independent re-derivation of E_F: binary entropy of (1 + sqrt(1-c^2))/2
    x = (1 + math.sqrt(1 - c * c)) / 2
    if x <= 0 or x >= 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def test_concurrence_bell_is_one():
    # pure-state input: the three zero singular values of tau stay at round-off level
    assert abs(concurrence_general(bell_state()) - 1.0) <= 1e-14


def test_concurrence_product_states_are_zero():
    rng = np.random.default_rng(20)
    for _ in range(10):
        ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sa = ga @ ga.conj().T
        sb = gb @ gb.conj().T
        rho = np.kron(sa / np.trace(sa).real, sb / np.trace(sb).real)
        assert concurrence_general(rho) <= 1e-8


def test_concurrence_mapped_state_derived_value():
    p = PrepParams(0.6, 0.5)
    assert abs(concurrence_xstate(p) - 0.2496) < 1e-12
    assert abs(concurrence_general(mapped_state(p)) - 0.2496) < 1e-9


def test_concurrence_closed_form_vs_general_grid():
    # coarse version of the full-plane equivalence (acceptance runs 100x100)
    for a in np.linspace(0, 1, 26)[1:-1]:
        for s in np.linspace(0, 1, 26)[1:-1]:
            general = concurrence_general(apply_map(psi_a(a), s))
            closed = concurrence_xstate(PrepParams(a, s))
            assert abs(general - closed) <= 1e-14


def test_wootters_spectrum_of_pure_state():
    # for the pure prepared state the spectrum is (2 a sqrt(1-a^2), 0, 0, 0)
    for a in (0.3, 0.6, INV_SQRT2):
        lam = wootters_spectrum(psi_a(a))
        assert abs(lam[0] - 2 * a * math.sqrt(1 - a * a)) < 1e-10
        assert all(x <= 1e-15 for x in lam[1:])
        assert sorted(lam, reverse=True) == list(lam)


def test_survival_threshold_bell():
    assert abs(survival_threshold(INV_SQRT2) - 1 / 3) <= 1e-12


def test_survival_threshold_derived_value():
    assert abs(survival_threshold(0.6) - 0.48 / 1.48) <= 1e-12
    assert abs(survival_threshold_bisect(0.6) - 0.48 / 1.48) <= 1e-9


def test_survival_threshold_small_a_asymptote():
    for a in (1e-3, 1e-4, 1e-5):
        assert abs(survival_threshold(a) / a - 1.0) <= 2 * a


def test_survival_threshold_undefined_at_endpoints():
    for a in (0.0, 1.0):
        with pytest.raises(ValueError):
            survival_threshold(a)
        with pytest.raises(ValueError):
            survival_threshold_bisect(a)


def test_survival_threshold_bisect_agrees_with_analytic():
    for a in np.linspace(0.05, 0.95, 19):
        assert abs(survival_threshold(a) - survival_threshold_bisect(a)) <= 1e-9


def _reference_survival_threshold_bisect(a, tol=1e-12):
    # reference: the plain bisection loop
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if concurrence_raw(a, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_survival_threshold_bisect_is_bit_identical_to_reference():
    edges = [1e-6, 0.02, INV_SQRT2, 0.98, 1 - 1e-6]
    for a in np.random.default_rng(2020).uniform(1e-6, 1 - 1e-6, 2000).tolist() + edges:
        assert survival_threshold_bisect(a) == _reference_survival_threshold_bisect(a), a


def test_concurrence_positive_iff_above_threshold():
    for a in (0.1, 0.3, 0.6, INV_SQRT2, 0.9):
        s_star = survival_threshold(a)
        assert concurrence_xstate(PrepParams(a, s_star + 1e-6)) > 0
        assert concurrence_xstate(PrepParams(a, s_star - 1e-6)) == 0.0
        assert concurrence_raw(a, s_star - 1e-6) < 0


def test_entanglement_always_distributable():
    for s in (1e-3, 1e-2, 1e-1, 0.5, 0.9, 0.37, 0.62):
        a = min(s / 2, INV_SQRT2)
        assert concurrence_xstate(PrepParams(a, s)) > 0


def test_ef_endpoints():
    assert entanglement_of_formation(0.0) == 0.0
    assert abs(entanglement_of_formation(1.0) - 1.0) < 1e-15


def test_ef_derived_value():
    c = 0.2496
    assert abs(entanglement_of_formation(c) - 0.1173) < 1e-4
    assert abs(entanglement_of_formation(c) - entropy_oracle(c)) < 1e-14


def test_ef_small_concurrence_series():
    # leading small-c series of E_F; the naive 1 - (1 + sqrt(1-c^2))/2 cancels
    # to zero here, so this pins the cancellation-free evaluation
    c = 1e-9
    series = c * c / 4 * (math.log2(4 / (c * c)) + 1 / math.log(2))
    assert abs(entanglement_of_formation(c) / series - 1) <= 1e-12


def test_ef_matches_high_precision_reference():
    # textbook binary entropy at 60 digits: the cancellation in 1 - x costs
    # at most 24 of them over this range
    mpmath = pytest.importorskip("mpmath")
    cs = np.concatenate([np.geomspace(1e-12, 1.0, 400), 1.0 - np.geomspace(1e-15, 1e-2, 40)])
    with mpmath.workdps(60):
        for c in cs:
            x = (1 + mpmath.sqrt(1 - mpmath.mpf(float(c)) ** 2)) / 2
            ref = float(-(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)))
            assert abs(entanglement_of_formation(float(c)) / ref - 1.0) <= 1e-14, c


def test_ef_monotone():
    grid = np.linspace(1e-6, 1.0, 2000)
    vals = [entanglement_of_formation(c) for c in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_float_calls_match_array_calls_bit_for_bit():
    # the kernels do float arithmetic on floats and array arithmetic on arrays;
    # each float call must equal its element of the array call to the last bit
    rng = np.random.default_rng(20261018)
    a, s, c = rng.uniform(size=(3, 2000))
    a = np.append(a, [0.6, 0.6, 0.6, 0.0, 1.0])
    s = np.append(s, [0.0, 0.5, 1.0, 0.5, 0.5])
    c = np.append(c, [0.0, 1.0])
    names = ("d1", "d2", "d3", "d4", "t", "concurrence_raw", "max_concurrence")
    per_float = [xstate_fields(x, y) + (concurrence_raw(x, y), max_concurrence(y))
                 for x, y in zip(a.tolist(), s.tolist())]
    per_array = xstate_fields(a, s) + (concurrence_raw(a, s), max_concurrence(s))
    for name, got, want in zip(names, zip(*per_float), per_array):
        assert np.array_equal(_bits(got), _bits(want)), name
    ef_floats = [ef_from_concurrence(x) for x in c.tolist()]
    assert np.array_equal(_bits(ef_floats), _bits(ef_from_concurrence(c)))
    # E_F(0) is +0.0, so it prints as 0, not -0; a NaN concurrence gives NaN
    assert ef_from_concurrence(0.0) == 0.0 and not np.signbit(ef_from_concurrence(0.0))
    assert not np.signbit(ef_from_concurrence(np.zeros(3))).any()
    assert np.isnan(ef_from_concurrence(math.nan))
    assert np.isnan(ef_from_concurrence(np.array([math.nan]))).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float_ef_matches_array_ef_bit_for_bit_log_uniform():
    # float calls take numpy's log1p and log as the array call does; math.log1p differs from
    # numpy's vectorised loop in the last bit on some of these (18 of the 100,000 with
    # numpy 2.4 on an AVX-512 x86-64 machine), math.log on one
    rng = np.random.default_rng(20261020)
    c = np.exp(rng.uniform(math.log(5e-324), 0.0, 100_000))
    c = np.append(c, [5e-324, 0.0, 1.0, math.nan])
    ef_floats = [ef_from_concurrence(x) for x in c.tolist()]
    assert all(type(x) is float for x in ef_floats)
    assert np.array_equal(_bits(ef_floats), _bits(ef_from_concurrence(c)))


def test_ef_rejects_out_of_range():
    for c in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            entanglement_of_formation(c)


def grid_search_oracle(s, n=2_000_001):
    a = np.linspace(0.0, INV_SQRT2, n)
    vals = concurrence_raw(a, s)
    i = int(np.argmax(vals))
    return float(a[i]), float(max(0.0, vals[i]))


@pytest.mark.parametrize("s", [0.05, 0.2, 0.4, 0.5, 0.7, 0.9, 1.0])
def test_optimizer_beats_dense_grid(s):
    opt = optimize_prep(s)
    _, c_grid = grid_search_oracle(s, n=200_001)
    assert opt.c_max >= c_grid - 1e-12
    assert abs(opt.c_max - max(0.0, concurrence_raw(opt.a_star, s))) <= 1e-12


def test_optimizer_closed_form_branches():
    for s in (0.05, 0.2, 0.4, 0.49):
        expected = s * s / (2 * (1 - s))
        assert abs(optimize_prep(s).c_max - expected) <= 1e-12
    for s in (0.5, 0.7, 0.9, 1.0):
        expected = (3 * s - 1) / 2
        opt = optimize_prep(s)
        assert abs(opt.c_max - expected) <= 1e-12
        assert abs(opt.a_star - INV_SQRT2) <= 1e-8


def test_optimizer_small_s_argmax():
    # a* approaches s/2 from above; the relative gap scales like s itself
    for s in (0.001, 0.01):
        opt = optimize_prep(s)
        assert abs(opt.a_star / (s / 2) - 1.0) <= 1.2 * s + 1e-3


def test_optimizer_reports_ef_of_c_max():
    opt = optimize_prep(0.3)
    assert abs(opt.ef_max - entropy_oracle(opt.c_max)) < 1e-12
    # ef_max skips entanglement_of_formation's check and clamps, so it must equal the checked
    # call exactly, also at the edges of [0, 1] and of the two branches of max_concurrence
    rng = np.random.default_rng(35)
    edges = [0.0, 5e-324, 1e-300, 0.5, 0.49999988811789187, math.nextafter(0.5, 0), 1.0]
    for s in rng.random(10_000).tolist() + (10.0 ** rng.uniform(-300, 0, 10_000)).tolist() + edges:
        opt = optimize_prep(s)
        assert opt.ef_max == entanglement_of_formation(opt.c_max), s


def _a_from_w(w):
    # the inverse of w = a sqrt(1 - a^2) on [0, 1/sqrt(2)] as optimize_prep once wrote it,
    # with clamps on w and on 1 - 4 w^2
    w = min(max(w, 0.0), 0.5)
    disc = max(1.0 - 4.0 * w * w, 0.0)
    return math.sqrt(2.0 * w * w / (1.0 + math.sqrt(disc)))


def test_optimizer_is_bit_identical_to_the_clamped_reference():
    # fl(1 - s) >= s below s = 1/2 keeps w <= 1/2 and 1 - 4 w^2 >= 0 in floats, so the
    # clamps change no bit: uniform s, log-uniform s down to 1e-300, s just below 1/2, edges
    rng = np.random.default_rng(38)
    s_all = np.concatenate([rng.random(40_000), 10.0 ** rng.uniform(-300, 0, 30_000),
                            0.5 - 1e-6 * rng.random(30_000)]).tolist()
    s_all += [5e-324, math.nextafter(0.5, 0), 0.5, 1.0]
    got, want = [], []
    for s in s_all:
        opt = optimize_prep(s)
        c_max = s * s / (2.0 * (1.0 - min(s, 0.5))) if s < 0.5 else (3.0 * s - 1.0) / 2.0
        got.append((opt.a_star, opt.c_max, opt.ef_max))
        want.append((_a_from_w(s / (2.0 * (1.0 - s)) if s < 0.5 else 0.5), c_max,
                     ef_from_concurrence(c_max)))
    same = np.all(np.array(got).view(np.uint64) == np.array(want).view(np.uint64), axis=1)
    assert same.all(), [s for s, ok in zip(s_all, same) if not ok][:5]


def test_optimal_prep_is_a_frozen_dataclass():
    opt = optimize_prep(0.3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opt.ef_max = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del opt.s
    assert opt == optimize_prep(0.3) and hash(opt) == hash(optimize_prep(0.3))
    assert opt != optimize_prep(0.4) and optimize_prep(0.0) == optimize_prep(0)
    assert repr(opt) == ("OptimalPrep(s=0.3, a_star=0.2196498316579696, c_max=0.0642857142857143, "
                         "ef_max=0.011748029348921354)")
    moved = dataclasses.replace(opt, s=0.25)
    assert moved == OptimalPrep(0.25, opt.a_star, opt.c_max, opt.ef_max) and opt.s == 0.3
    assert repr(optimize_prep(0.0)) == "OptimalPrep(s=0.0, a_star=None, c_max=0.0, ef_max=0.0)"


def test_optimizer_degenerate_s_zero():
    opt = optimize_prep(0.0)
    assert opt.a_star is None
    assert opt.c_max == 0.0
    assert opt.ef_max == 0.0


def test_optimizer_validation():
    for s in (1.2, -0.1, np.nan):
        with pytest.raises(ValueError):
            optimize_prep(s)


def test_max_concurrence_is_the_optimizer_value():
    # the broadcasting form fig2 uses and the scalar optimum agree bit for bit,
    # and s = 1 divides by nothing
    s = np.concatenate([np.linspace(0.0, 1.0, 2001), [0.49999988811789187, 0.4999]])
    with np.errstate(all="raise"):
        vec = max_concurrence(s)
    assert np.array_equal(vec, [optimize_prep(float(x)).c_max for x in s])
    assert max_concurrence(1.0) == 1.0
    assert max_concurrence(0.5) == 0.25


def test_max_concurrence_of_a_float_is_a_float():
    # a float takes the same formula in builtin arithmetic, not a 0-d array
    for s in (0.0, 0.3, 0.5, 0.7, 1.0):
        assert type(max_concurrence(s)) is float
        assert type(optimize_prep(s).c_max) is float


def test_small_s_concurrence_law():
    # the quadratic small-parameter law 2 a s - 2 a^2 approximates the closed
    # form within 10 max(a^3, a s^2) on the (0, 0.05]^2 box
    grid = np.linspace(1e-4, 0.05, 50)
    for a in grid:
        for s in grid:
            approx = 2 * a * s - 2 * a * a
            exact = concurrence_raw(a, s)
            assert abs(exact - approx) <= 10 * max(a**3, a * s * s)
    # along the near-optimal ridge a = s/2 the relative error stays below 10%
    for s in np.geomspace(1e-3, 0.05, 12):
        a = s / 2
        exact = concurrence_raw(a, s)
        approx = 2 * a * s - 2 * a * a
        assert exact > 0
        assert abs(approx / exact - 1.0) <= 0.10


def test_asymptotic_ef_value():
    assert abs(ef_max_asymptotic(0.01) - 2.0011e-8) <= 1e-4 * 2.0011e-8


def test_asymptotic_ef_converges_to_numeric_optimum():
    # the ratio tends to 1 as s -> 0; the residual gap scales like 2 s
    ratios = []
    for s in (0.05, 0.01, 0.001):
        ratio = ef_max_asymptotic(s) / optimize_prep(s).ef_max
        ratios.append(ratio)
        assert abs(ratio - 1.0) <= 2.5 * s
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_asymptotic_ef_validation():
    for s in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            ef_max_asymptotic(s)


def test_eisert_bound_n2():
    expected = 2 * entropy_oracle(0.25)
    assert abs(eisert_lower_bound(2) - expected) <= 1e-12


def test_eisert_bound_decreases_and_vanishes():
    vals = [eisert_lower_bound(n) for n in (2, 5, 10, 100, 1000, 10000)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # vanishes, but stays positive however large n is
    assert 0 < vals[-1] < vals[-2] < 1e-8
    # for large n it approaches n times the small-s closed form at s = 1/n
    assert abs(1000 * ef_max_asymptotic(1e-3) / vals[-2] - 1.0) < 0.01


def test_eisert_bound_rejects_small_n():
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            eisert_lower_bound(n)
    with pytest.raises(ValueError):
        eisert_lower_bound(2.0)
