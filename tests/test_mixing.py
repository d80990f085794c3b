import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entmix.mixing import apply_map, fidelity, mapped_state, mapped_xstate
from entmix.states import PrepParams, psi_a, validate


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_perfect_delivery_is_identity():
    rng = np.random.default_rng(10)
    for _ in range(5):
        rho = random_density(rng)
        assert_allclose(apply_map(rho, 1.0), rho, atol=1e-14)


def test_product_state_is_fixed_point():
    rho = psi_a(1.0)  # |00><00|
    for s in (0.0, 0.3, 0.8):
        assert_allclose(apply_map(rho, s), rho, atol=1e-14)


def test_apply_map_derived_entries():
    rho = apply_map(psi_a(0.6), 0.5)
    assert_allclose(np.diag(rho).real, [0.2448, 0.1152, 0.1152, 0.5248], atol=1e-15)
    assert abs(rho[0, 3].real - 0.24) < 1e-15
    assert abs(rho[3, 0].real - 0.24) < 1e-15


def test_apply_map_rejects_bad_s():
    for s in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError):
            apply_map(psi_a(0.5), s)


def test_apply_map_preserves_state_invariants():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rho = random_density(rng)
        s = rng.uniform()
        out = apply_map(rho, s)
        validate(out)
        assert abs(np.trace(out) - 1) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_product_states_are_fixed_points_generally():
    rng = np.random.default_rng(12)
    for _ in range(10):
        ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sa = ga @ ga.conj().T
        sb = gb @ gb.conj().T
        rho = np.kron(sa / np.trace(sa).real, sb / np.trace(sb).real)
        assert_allclose(apply_map(rho, rng.uniform()), rho, atol=1e-13)


def test_mapped_xstate_matches_apply_map_on_grid():
    for a in np.linspace(0, 1, 21):
        for s in np.linspace(0, 1, 21):
            x = mapped_xstate(PrepParams(a, s)).to_matrix()
            full = apply_map(psi_a(a), s)
            assert np.max(np.abs(x - full)) <= 1e-12


def test_mapped_xstate_derived_values():
    x = mapped_xstate(PrepParams(0.6, 0.5))
    assert_allclose(x.d, (0.2448, 0.1152, 0.1152, 0.5248), atol=1e-15)
    assert abs(x.t - 0.24) < 1e-15


def test_mapped_xstate_werner_form():
    for s in (0.2, 0.5, 0.9):
        x = mapped_xstate(PrepParams(1 / np.sqrt(2), s))
        assert_allclose(x.d, ((1 + s) / 4, (1 - s) / 4, (1 - s) / 4, (1 + s) / 4), atol=1e-12)
        assert abs(x.t - s / 2) < 1e-12


def test_mapped_xstate_unentangled_endpoint():
    x = mapped_xstate(PrepParams(0.0, 0.7))
    assert_allclose(x.d, (0, 0, 0, 1), atol=1e-15)
    assert x.t == 0.0


def test_mapped_xstate_invariants_on_fig3_grid():
    # XState does not check its fields; the closed form keeps them a state on
    # the 200x200 fig3 grid and its edges, with the 1e-12 round-off slack
    grid = np.linspace(0.0, 1.0, 202).tolist()   # the 200 interior points, plus 0 and 1
    bad = []
    for a in grid:
        for s in grid:
            x = mapped_xstate(PrepParams(a, s))
            d1, d2, d3, d4 = x.d
            if min(x.d) < 0.0:
                bad.append((a, s, "d_i < 0", x.d))
            if abs(sum(x.d) - 1.0) > 1e-12:
                bad.append((a, s, "sum d != 1", sum(x.d)))
            if abs(x.t) > math.sqrt(d1 * d4) + 1e-12:
                bad.append((a, s, "|t| > sqrt(d1 d4)", (x.t, d1, d4)))
    assert not bad, f"{len(bad)} cells fail, first (a, s, check, value): {bad[:3]}"


def test_fidelity_no_mixing():
    for a in (0.0, 0.4, 1 / np.sqrt(2), 1.0):
        assert fidelity(PrepParams(a, 1.0)) == 1.0


def test_fidelity_closed_form_vs_expectation():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.uniform()
        s = rng.uniform()
        ket = np.array([a, 0, 0, np.sqrt(1 - a * a)])
        direct = float((ket @ apply_map(psi_a(a), s) @ ket).real)
        assert abs(fidelity(PrepParams(a, s)) - direct) <= 1e-12


def test_fidelity_derived_value():
    assert abs(fidelity(PrepParams(0.6, 0.5)) - 0.6544) < 1e-15


def test_fidelity_minimum_at_bell_amplitude():
    s = 0.4
    a_grid = np.linspace(0, 1, 1001)
    vals = [fidelity(PrepParams(a, s)) for a in a_grid]
    assert abs(a_grid[int(np.argmin(vals))] - 1 / np.sqrt(2)) < 2e-3


def test_mapped_state_equals_xstate_matrix():
    p = PrepParams(0.37, 0.81)
    assert np.max(np.abs(mapped_state(p) - mapped_xstate(p).to_matrix())) <= 1e-12
