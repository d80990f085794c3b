import numpy as np
import pytest
from numpy.testing import assert_allclose

from entmix.states import (
    PrepParams,
    StateValidationError,
    barrett_state,
    bell_state,
    pauli,
    psi_a,
    validate,
)


def test_prep_params_ranges():
    PrepParams(0.0, 0.0)
    PrepParams(1.0, 1.0)
    with pytest.raises(ValueError):
        PrepParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        PrepParams(0.5, 1.1)
    with pytest.raises(ValueError):
        PrepParams(np.nan, 0.5)


def test_psi_a_unentangled_endpoint():
    rho = psi_a(1.0)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert_allclose(rho, expected)


def test_psi_a_bell():
    rho = bell_state()
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        assert abs(rho[i, j] - 0.5) < 1e-15
    assert abs(np.trace(rho) - 1) < 1e-15


def test_psi_a_intermediate_entries():
    rho = psi_a(0.6)
    assert_allclose(
        [rho[0, 0], rho[3, 3], rho[0, 3], rho[3, 0]], [0.36, 0.64, 0.48, 0.48], atol=1e-15
    )


def test_psi_a_is_pure():
    for a in (0.0, 0.3, 1 / np.sqrt(2), 0.9):
        rho = psi_a(a)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_psi_a_rejects_out_of_range():
    for a in (-0.01, 1.01, np.nan):
        with pytest.raises(ValueError):
            psi_a(a)


def test_psi_a_swap_symmetry():
    # a and sqrt(1-a^2) give states with identical spectra and concurrence
    from entmix.entanglement import concurrence_general

    for a in (0.2, 0.4, 0.6):
        partner = np.sqrt(1 - a * a)
        w1 = np.linalg.eigvalsh(psi_a(a))
        w2 = np.linalg.eigvalsh(psi_a(partner))
        assert_allclose(w1, w2, atol=1e-12)
        # sqrt of the zero spin-flip eigenvalues amplifies round-off to ~1e-8
        assert abs(concurrence_general(psi_a(a)) - concurrence_general(psi_a(partner))) < 1e-7


def test_barrett_state_entries():
    rho = barrett_state()
    assert_allclose(np.diag(rho).real, np.array([17, 7, 7, 17]) / 48, atol=1e-15)
    assert abs(rho[0, 3] - 5 / 24) < 1e-15
    assert abs(np.trace(rho) - 1) < 1e-15


def test_barrett_state_is_full_rank():
    w = np.linalg.eigvalsh(barrett_state())
    assert w[0] > 0
    validate(barrett_state())


def test_pauli_matrices():
    assert_allclose(pauli("x"), [[0, 1], [1, 0]])
    assert_allclose(pauli("z"), [[1, 0], [0, -1]])
    assert_allclose(pauli("y") @ pauli("y"), np.eye(2))
    with pytest.raises(ValueError):
        pauli("w")


def test_validate_accepts_good_states():
    validate(np.eye(4) / 4)
    # psi_a builds a valid state at every a, the edges included, so its callers need
    # not validate it again
    for a in (0.3, 1e-6, 0.02, 0.98, 1 - 1e-6):
        validate(psi_a(a))


def test_validate_reports_psd_violation():
    with pytest.raises(StateValidationError) as exc:
        validate(np.diag([0.5, 0.6, 0.0, -0.1]).astype(complex))
    names = [name for name, _ in exc.value.violations]
    assert "psd" in names


def test_validate_reports_trace_and_hermiticity():
    with pytest.raises(StateValidationError) as exc:
        validate(np.eye(4, dtype=complex) * 0.3)
    assert any(name == "trace" for name, _ in exc.value.violations)

    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-3
    with pytest.raises(StateValidationError) as exc:
        validate(m)
    assert any(name == "hermiticity" for name, _ in exc.value.violations)


def test_validate_hermiticity_tolerance():
    # an off-diagonal asymmetry of 1e-6 exceeds HERM_TOL and is the only violation
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-6
    with pytest.raises(StateValidationError) as exc:
        validate(m)
    assert [name for name, _ in exc.value.violations] == ["hermiticity"]

    # Pauli-Y pairs are Hermitian: Y (x) Y fails only on its trace, and the
    # states (I + Y (x) P) / 4 built from them pass every check
    for axis in ("x", "y", "z"):
        pair = np.kron(pauli("y"), pauli(axis))
        with pytest.raises(StateValidationError) as exc:
            validate(pair)
        assert [name for name, _ in exc.value.violations] == ["trace"]
        validate((np.eye(4) + pair) / 4)


BREAKS = {
    "hermiticity": lambda m: m.__setitem__((0, 1), 1e-3),
    "trace": lambda m: m.__imul__(0.3),
    "psd": lambda m: m.__setitem__(slice(None), np.diag([0.5, 0.6, 0.0, -0.1])),
}


@pytest.mark.parametrize("violation", sorted(BREAKS))
def test_validate_sees_a_state_changed_in_place(violation):
    # validate remembers the last content that passed, not the array object
    m = np.eye(4, dtype=complex) / 4
    validate(m)
    BREAKS[violation](m)
    with pytest.raises(StateValidationError) as exc:
        validate(m)
    with pytest.raises(StateValidationError) as fresh:
        validate(m.copy())
    assert [v for v, _ in exc.value.violations] == [violation]
    assert exc.value.violations == fresh.value.violations


def test_validate_never_remembers_a_failure():
    m = np.eye(4, dtype=complex) * 0.3
    for _ in range(3):
        with pytest.raises(StateValidationError) as exc:
            validate(m)
        assert [v for v, _ in exc.value.violations] == ["trace"]


def test_validate_returns_the_coerced_input_for_remembered_content():
    m = psi_a(0.3)
    assert validate(m) is m
    copy = m.copy()
    assert validate(copy) is copy
    as_list = m.tolist()
    out = validate(as_list)
    assert out.dtype == np.complex128 and np.array_equal(out, m) and out is not m
    real = np.eye(4) / 4
    validate(np.eye(4, dtype=complex) / 4)
    out = validate(real)
    assert out.dtype == np.complex128 and np.array_equal(out, real)
