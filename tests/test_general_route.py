"""The 4x4 cross-check route: input checks at each public function, and bit
identity with the plain formulas it replaced (np.kron, np.trace, einsum
partial traces and copied eigendecompositions), kept here as the reference.
"""

import numpy as np
import pytest

from entmix import entanglement, mixing, nonlocality, simulate
from entmix.entanglement import _flip, concurrence_general, wootters_spectrum
from entmix.linalg import _kron2, _marginals
from entmix.mixing import _mix, apply_map, mapped_state
from entmix.nonlocality import (
    _gather,
    _pair_sums,
    correlation_matrix,
    horodecki_m,
)
from entmix.states import PrepParams, StateValidationError, pauli, validate

_SIGMA = [pauli(ax) for ax in "xyz"]
_YY = np.kron(pauli("y"), pauli("y"))

PUBLIC_4X4 = {
    "apply_map": lambda m: apply_map(m, 0.5),
    "wootters_spectrum": wootters_spectrum,
    "concurrence_general": concurrence_general,
    "correlation_matrix": correlation_matrix,
    "horodecki_m": horodecki_m,
    "joint_probabilities": lambda m: simulate.joint_probabilities(m, "xy"),
}


def _non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-3
    return m


INVALID = {
    "hermiticity": _non_hermitian(),
    "trace": np.eye(4, dtype=complex) * 0.3,
    "psd": np.diag([0.5, 0.6, 0.0, -0.1]).astype(complex),
}


@pytest.mark.parametrize("violation", sorted(INVALID))
@pytest.mark.parametrize("name", sorted(PUBLIC_4X4))
def test_public_functions_reject_invalid_states(name, violation):
    with pytest.raises(StateValidationError) as exc:
        PUBLIC_4X4[name](INVALID[violation])
    assert [v for v, _ in exc.value.violations] == [violation]


@pytest.mark.parametrize("name", sorted(PUBLIC_4X4))
def test_public_functions_validate_once(name, monkeypatch):
    calls = []

    def counting(validate):
        def wrapped(rho):
            calls.append(1)
            return validate(rho)
        return wrapped

    for mod in (mixing, entanglement, nonlocality, simulate):
        monkeypatch.setattr(mod, "validate", counting(mod.validate))
    PUBLIC_4X4[name](np.eye(4, dtype=complex) / 4)
    assert len(calls) == 1


def _random_states(n, seed):
    # full-rank mixed states, and every third one rank one
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if k % 3 == 0:
            g[:, 1:] = 0.0
        m = g @ g.conj().T
        out.append((m / np.trace(m).real, float(rng.uniform())))
    return out


STATES = _random_states(200, seed=20260)


def _reference_correlation_matrix(m):
    t = np.empty((3, 3))
    for i, si in enumerate(_SIGMA):
        for j, sj in enumerate(_SIGMA):
            t[i, j] = float(np.trace(m @ np.kron(si, sj)).real)
    return t


def _reference_apply_map(m, s):
    t = m.reshape(2, 2, 2, 2)
    return s * m + (1.0 - s) * np.kron(np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t))


def _reference_eig(m):
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def _reference_concurrence(m):
    w, v = _reference_eig(m)
    s = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    root = (s + s.conj().T) / 2
    prod = root @ (_YY @ m.conj() @ _YY) @ root
    lam = np.sqrt(np.clip(_reference_eig((prod + prod.conj().T) / 2)[0], 0.0, None))
    return max(0.0, float(lam[0]) - float(lam[1]) - float(lam[2]) - float(lam[3]))


def test_apply_map_is_bit_identical_to_reference():
    for m, s in STATES:
        assert np.array_equal(apply_map(m, s), _reference_apply_map(m, s))


def test_correlation_matrix_is_bit_identical_to_reference():
    for m, s in STATES:
        for rho in (m, _reference_apply_map(m, s)):
            assert np.array_equal(correlation_matrix(rho), _reference_correlation_matrix(rho))


def test_concurrence_general_is_bit_identical_to_reference():
    for m, s in STATES:
        for rho in (m, _reference_apply_map(m, s)):
            assert concurrence_general(rho) == _reference_concurrence(rho)


def test_mixing_the_gathered_entries_gives_the_correlation_of_the_mixed_state():
    # chsh_boundary_bisect mixes the signed entries of m and of its product term,
    # gathered once, in place of the state: exact for complex and rank-one states too
    rng = np.random.default_rng(2021)
    for m, _ in STATES:
        x1, x0 = map(_gather, (m, _kron2(*_marginals(m))))
        for s in rng.uniform(size=5).tolist():
            t = _pair_sums(s * x1 + (1.0 - s) * x0)
            assert t.tobytes() == correlation_matrix(_mix(m, s)).tobytes()


def test_flip_is_bit_identical_to_the_yy_products():
    # sigma_y x sigma_y is a signed permutation, so the reversal is exact, signed zeros too
    mapped = [mapped_state(PrepParams(a, s)) for a, s in ((0.3, 0.6), (0.0, 0.5), (1.0, 1.0))]
    for m in [m for m, _ in STATES] + [_reference_apply_map(m, s) for m, s in STATES] + mapped:
        assert _flip(m).tobytes() == (_YY @ m.conj() @ _YY).tobytes()


def test_general_route_checks_psd_once_per_state(monkeypatch):
    # concurrence_general and horodecki_m of one state share validate's remembered verdict
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(np.shape(a))
        return eigvalsh(a)

    validate(np.eye(4, dtype=complex) / 4)   # some other content is remembered
    rho = mapped_state(PrepParams(0.3, 0.6))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    concurrence_general(rho)
    horodecki_m(rho)
    assert calls.count((4, 4)) == 1
