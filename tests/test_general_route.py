"""The 4x4 cross-check route: input checks at each public function, bit
identity with the plain formulas it replaced (np.kron, np.trace and einsum
partial traces), kept here as the reference, and the concurrence against
states whose value is known in closed form.
"""

import numpy as np
import pytest

from entmix import entanglement, mixing, nonlocality, simulate, states
from entmix.entanglement import concurrence_general, concurrence_xstate, wootters_spectrum
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


def test_apply_map_is_bit_identical_to_reference():
    for m, s in STATES:
        assert np.array_equal(apply_map(m, s), _reference_apply_map(m, s))


def test_correlation_matrix_is_bit_identical_to_reference():
    for m, s in STATES:
        for rho in (m, _reference_apply_map(m, s)):
            assert np.array_equal(correlation_matrix(rho), _reference_correlation_matrix(rho))


_BELL = [np.array(v) / np.sqrt(2.0) for v in ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0),
                                              (0, 1, -1, 0))]


def _known_concurrences(n, seed):
    # (rho, C) with C in closed form, each turned by a random U_A x U_B, which keeps C:
    # pure states (rank 1), mapped x states (rank 4, and 1 at s = 1), Werner states, and
    # Bell-diagonal states of ranks 1 to 4
    rng = np.random.default_rng(seed)
    for k in range(n):
        u = np.kron(*(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                      for _ in "AB"))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        pure = np.outer(u @ psi, (u @ psi).conj())
        yield pure, 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        p = PrepParams(float(rng.uniform()), 1.0 if k % 5 == 0 else float(rng.uniform()))
        yield u @ mapped_state(p) @ u.conj().T, concurrence_xstate(p)
        q = float(rng.uniform())
        werner = q * np.outer(_BELL[0], _BELL[0]) + (1.0 - q) * np.eye(4) / 4
        yield u @ werner @ u.conj().T, max(0.0, (3.0 * q - 1.0) / 2.0)
        weights = rng.dirichlet(np.ones(k % 4 + 1))
        bell_diagonal = sum(w * np.outer(b, b) for w, b in zip(weights, _BELL))
        yield u @ bell_diagonal @ u.conj().T, max(0.0, 2.0 * float(weights.max()) - 1.0)


def test_concurrence_general_matches_known_concurrences():
    # the singular values of tau carry no square root of round-off, so rank-deficient
    # states are as accurate as full-rank ones
    ranks = set()
    for rho, known in _known_concurrences(60, seed=31):
        ranks.add(int(np.linalg.matrix_rank(rho, tol=1e-10)))
        assert abs(concurrence_general(rho) - known) <= 1e-14
    assert ranks == {1, 2, 3, 4}


def test_mixing_the_gathered_entries_gives_the_correlation_of_the_mixed_state():
    # chsh_boundary_bisect mixes the signed entries of m and of its product term,
    # gathered once, in place of the state: exact for complex and rank-one states too
    rng = np.random.default_rng(2021)
    for m, _ in STATES:
        x1, x0 = map(_gather, (m, _kron2(*_marginals(m))))
        for s in rng.uniform(size=5).tolist():
            t = _pair_sums(s * x1 + (1.0 - s) * x0)
            assert t.tobytes() == correlation_matrix(_mix(m, s)).tobytes()


def test_general_route_decomposes_each_state_once(monkeypatch):
    # concurrence_general and horodecki_m of one new state: validate's eigh, kept with its
    # verdict, and the svd of tau are the only 4x4 decompositions
    calls = []

    def counting(solver):
        def wrapped(a, *args, **kwargs):
            calls.append((solver.__name__, np.shape(a)))
            return solver(a, *args, **kwargs)
        return wrapped

    validate(np.eye(4, dtype=complex) / 4)   # some other content is remembered
    rho = mapped_state(PrepParams(0.3, 0.6))
    for solver in (np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd, np.linalg.eig,
                   np.linalg.eigvals):
        monkeypatch.setattr(np.linalg, solver.__name__, counting(solver))
    concurrence_general(rho)
    horodecki_m(rho)
    assert sorted(name for name, shape in calls if shape == (4, 4)) == ["eigh", "svd"]


def test_remembered_decomposition_is_read_only():
    w, v = states._check(validate(mapped_state(PrepParams(0.3, 0.6))).tobytes())
    for a in (w, v):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
