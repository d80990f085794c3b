import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entmix.mixing import apply_map, fidelity, mapped_state, xstate_fields
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


def _xstate_gap(a, s, full):
    # largest gap between xstate_fields(a, s) and the 4x4 full: its diagonal, its [0, 3]
    # and [3, 0] entries, and every other entry, which the fields leave at 0
    d1, d2, d3, d4, t = map(float, xstate_fields(a, s))
    x = np.diag(np.array([d1, d2, d3, d4], dtype=np.complex128))
    x[0, 3] = x[3, 0] = t
    return np.max(np.abs(x - full))


def test_xstate_fields_match_apply_map_on_grid():
    for a in np.linspace(0, 1, 21):
        for s in np.linspace(0, 1, 21):
            assert _xstate_gap(float(a), float(s), apply_map(psi_a(a), s)) <= 1e-12


def test_xstate_fields_derived_values():
    *d, t = map(float, xstate_fields(0.6, 0.5))
    assert_allclose(d, (0.2448, 0.1152, 0.1152, 0.5248), atol=1e-15)
    assert abs(t - 0.24) < 1e-15
    assert _xstate_gap(0.6, 0.5, apply_map(psi_a(0.6), 0.5)) <= 1e-15


def test_xstate_fields_werner_form():
    for s in (0.2, 0.5, 0.9):
        *d, t = map(float, xstate_fields(1 / np.sqrt(2), s))
        assert_allclose(d, ((1 + s) / 4, (1 - s) / 4, (1 - s) / 4, (1 + s) / 4), atol=1e-12)
        assert abs(t - s / 2) < 1e-12
        assert _xstate_gap(1 / np.sqrt(2), s, apply_map(psi_a(1 / np.sqrt(2)), s)) <= 1e-12


def test_xstate_fields_unentangled_endpoint():
    *d, t = map(float, xstate_fields(0.0, 0.7))
    assert_allclose(d, (0, 0, 0, 1), atol=1e-15)
    assert t == 0.0
    assert _xstate_gap(0.0, 0.7, apply_map(psi_a(0.0), 0.7)) <= 1e-15


def test_xstate_fields_invariants_on_fig3_grid():
    # xstate_fields does not check its output; the closed form keeps it a state on
    # the 200x200 fig3 grid and its edges, with the 1e-12 round-off slack
    grid = np.linspace(0.0, 1.0, 202).tolist()   # the 200 interior points, plus 0 and 1
    bad = []
    for a in grid:
        for s in grid:
            d1, d2, d3, d4, t = map(float, xstate_fields(a, s))
            d = (d1, d2, d3, d4)
            if min(d) < 0.0:
                bad.append((a, s, "d_i < 0", d))
            if abs(sum(d) - 1.0) > 1e-12:
                bad.append((a, s, "sum d != 1", sum(d)))
            if abs(t) > math.sqrt(d1 * d4) + 1e-12:
                bad.append((a, s, "|t| > sqrt(d1 d4)", (t, d1, d4)))
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
    assert _xstate_gap(p.a, p.s, mapped_state(p)) <= 1e-12
