import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entmix import nonlocality
from entmix.entanglement import concurrence_xstate, entanglement_of_formation
from entmix.mixing import _mix, apply_map, mapped_state, xstate_fields
from entmix.nonlocality import (
    WITNESS_CORNER,
    WITNESS_DIAG,
    _lhvt_of_fields,
    chsh_boundary,
    chsh_boundary_bisect,
    chsh_value,
    correlation_matrix,
    horodecki_m,
    lhvt_decompose,
    lhvt_region,
    region_scan,
)
from entmix.states import PrepParams, barrett_state, bell_state, pauli, psi_a, validate

INV_SQRT2 = 1 / np.sqrt(2)


def test_correlation_matrix_bell():
    assert_allclose(correlation_matrix(bell_state()), np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_correlation_matrix_maximally_mixed():
    assert_allclose(correlation_matrix(np.eye(4) / 4), np.zeros((3, 3)), atol=1e-12)


def test_correlation_matrix_werner():
    rho = apply_map(bell_state(), 0.8)
    assert_allclose(correlation_matrix(rho), np.diag([0.8, -0.8, 0.8]), atol=1e-12)


def test_correlation_entries_bounded():
    rng = np.random.default_rng(30)
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        t = correlation_matrix(rho)
        assert np.all(np.abs(t) <= 1 + 1e-12)


def test_horodecki_bell_reaches_tsirelson():
    m = horodecki_m(bell_state())
    assert abs(m - 2.0) < 1e-12
    assert abs(chsh_value(bell_state()) - 2 * np.sqrt(2)) < 1e-12


def test_horodecki_product_states_do_not_violate():
    rng = np.random.default_rng(31)
    for _ in range(10):
        ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sa = ga @ ga.conj().T
        sb = gb @ gb.conj().T
        rho = np.kron(sa / np.trace(sa).real, sb / np.trace(sb).real)
        assert horodecki_m(rho) <= 1 + 1e-10


def test_horodecki_werner_derived_value():
    rho = apply_map(bell_state(), 0.8)
    assert abs(horodecki_m(rho) - 1.28) < 1e-12
    assert abs(chsh_value(rho) - 2.2627416998) < 1e-9


def test_chsh_boundary_bell():
    assert abs(chsh_boundary(INV_SQRT2) - INV_SQRT2) <= 1e-12


def test_chsh_boundary_derived_value():
    assert abs(chsh_boundary(0.6) - 0.70944) < 5e-6


def test_chsh_boundary_small_a_limit():
    assert abs(chsh_boundary(1e-3) - (np.sqrt(3) - 1)) < 1e-5


def test_chsh_boundary_agrees_with_bisection():
    for a in np.linspace(0.02, 0.98, 50):
        assert abs(chsh_boundary(a) - chsh_boundary_bisect(a)) <= 1e-8


def _reference_chsh_boundary_bisect(a, tol=1e-12):
    # reference: the bisection on the whole mapped 4x4 state of each step
    rho = validate(psi_a(a))
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if horodecki_m(_mix(rho, mid)) > 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_chsh_boundary_bisect_is_bit_identical_to_the_full_matrix_loop():
    edges = [1e-6, 0.02, INV_SQRT2, 0.98, 1 - 1e-6]
    for a in np.random.default_rng(2020).uniform(1e-6, 1 - 1e-6, 2000).tolist() + edges:
        assert chsh_boundary_bisect(a) == _reference_chsh_boundary_bisect(a), a


@pytest.mark.parametrize("a", [1e-6, 0.4, INV_SQRT2, 1 - 1e-6])
def test_chsh_boundary_bisect_calls_no_eigen_solver(monkeypatch, a):
    # T^T T is diagonal on the mapped X states, so the steps square T's diagonal in floats
    calls = []

    def counted(solver):
        def counting(*args, **kwargs):
            calls.append(solver.__name__)
            return solver(*args, **kwargs)
        return counting

    for solver in (np.linalg.eigvalsh, np.linalg.eigh):
        monkeypatch.setattr(np.linalg, solver.__name__, counted(solver))
    chsh_boundary_bisect(a)
    assert calls == []


def test_chsh_boundary_bisect_rejects_a_state_with_off_diagonal_t(monkeypatch):
    # (I + sigma_x x sigma_z) / 4 is a valid state with T_xz = 1
    rho = (np.eye(4) + np.kron(pauli("x"), pauli("z"))) / 4
    validate(rho)
    monkeypatch.setattr(nonlocality, "psi_a", lambda a: rho)
    with pytest.raises(RuntimeError, match=re.escape("not diagonal at a = 0.4")):
        chsh_boundary_bisect(0.4)


def test_chsh_boundary_validation():
    for boundary in (chsh_boundary, chsh_boundary_bisect):
        for a in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match=re.escape(f"a must be in (0, 1), got {a!r}")):
                boundary(a)


def test_chsh_boundary_and_value_are_builtin_floats_with_the_numpy_bits():
    # math.sqrt and np.sqrt are both correctly rounded, so only the type differs
    rng = np.random.default_rng(33)
    for a in [1e-6, 0.4, float(INV_SQRT2), 1 - 1e-6] + rng.uniform(1e-9, 1 - 1e-9, 2000).tolist():
        u = a * a * (1.0 - a * a)
        got = chsh_boundary(a)
        assert type(got) is float
        assert got == float(((4.0 * u - 1.0) + np.sqrt(3.0 - 4.0 * u)) / (1.0 + 4.0 * u))
    for rho in (bell_state(), barrett_state(), mapped_state(PrepParams(0.6, 0.5))):
        got = chsh_value(rho)
        assert type(got) is float
        assert got == float(2.0 * np.sqrt(horodecki_m(rho)))


def test_violation_implies_entanglement():
    rng = np.random.default_rng(32)
    for _ in range(200):
        a = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.05, 0.95)
        if horodecki_m(mapped_state(PrepParams(a, s))) > 1:
            assert concurrence_xstate(PrepParams(a, s)) > 0


def test_lhvt_decompose_feasible_werner():
    w = lhvt_decompose(PrepParams(INV_SQRT2, 0.35))
    assert w.feasible
    assert abs(w.c - 0.84) < 1e-12
    assert_allclose(w.sep_diag, [0.25] * 4, atol=1e-12)
    assert w.violated_constraints == ()


def test_lhvt_decompose_c_out_of_range():
    w = lhvt_decompose(PrepParams(INV_SQRT2, 0.45))
    assert not w.feasible
    assert "c_range" in w.violated_constraints
    assert abs(w.c - 1.08) < 1e-12


def test_lhvt_decompose_diagonal_violation():
    p = PrepParams(0.6, 0.4)
    w = lhvt_decompose(p)
    assert not w.feasible
    assert w.violated_constraints == ("d1_nonneg",)
    # the failing constraint compares d1 = 0.22176 against c * 17/48 = 0.3264
    assert abs(0.4 * 0.36 + 0.6 * 0.36**2 - 0.22176) < 1e-15
    assert abs(w.c * WITNESS_DIAG[0] - 0.3264) < 1e-12
    assert w.sep_diag[0] < 0


def test_lhvt_decompose_boundary_degenerate():
    w = lhvt_decompose(PrepParams(INV_SQRT2, 5 / 12))
    assert w.boundary_degenerate
    assert not w.feasible
    assert w.violated_constraints == ("c_range",)
    # 1 - c is exactly 0 here, and lhvt_region divides by it without a warning
    assert lhvt_region(PrepParams(INV_SQRT2, 5 / 12)) is False


def _expected_witness(a, s):
    # the witness report's c, remainders and violated constraints away from c = 1, written out here
    d1, d2, d3, d4, t = map(float, xstate_fields(a, s))
    c = t / WITNESS_CORNER
    sep = tuple((d - c * b) / (1.0 - c) for d, b in zip((d1, d2, d3, d4), WITNESS_DIAG))
    violated = [] if 0.0 < c < 1.0 else ["c_range"]
    violated += [f"d{i + 1}_nonneg" for i, v in enumerate(sep) if v < -1e-12]
    return c, (d1, d2, d3, d4), sep, tuple(violated)


def test_lhvt_decompose_beyond_c_one_divides_by_the_true_one_minus_c():
    # c = 2.07 here: the remainders that state prints are (d - c b) / (1 - c) with
    # 1 - c < 0, not values divided by a clamped denominator
    c, _, sep, violated = _expected_witness(0.6, 0.9)
    assert 2.0 < c < 2.1
    w = lhvt_decompose(PrepParams(0.6, 0.9))
    assert w.c == c
    assert w.sep_diag == sep
    assert w.violated_constraints == violated
    assert not w.feasible and not w.boundary_degenerate


@pytest.mark.parametrize("a, s", [(0.0, 0.7), (0.0, 0.0), (0.6, 0.0), (INV_SQRT2, 0.0)])
def test_lhvt_decompose_at_c_zero_leaves_the_diagonal(a, s):
    # a = 0 or s = 0 leaves no coherence, so c = 0 and the remainder is the diagonal itself
    c, d, _, _ = _expected_witness(a, s)
    assert c == 0.0
    w = lhvt_decompose(PrepParams(a, s))
    assert w.c == 0.0
    assert w.sep_diag == d
    assert w.violated_constraints == ("c_range",)
    assert not w.feasible and not w.boundary_degenerate


def test_lhvt_report_and_flag_agree_on_fig3_grid_and_edges():
    # the report behind state and the flag behind fig3 give the same verdict on every cell
    # of the default fig3 grid, on its a = 0, 1 and s = 0, 1 edges, and at c = 1
    grid = region_scan(200, 200)
    a_vals = [0.0] + grid.a.tolist() + [1.0]
    s_vals = [0.0] + grid.s.tolist() + [1.0]
    cells = [(a, s) for a in a_vals for s in s_vals] + [(INV_SQRT2, 5 / 12)]
    mismatches = []
    for a, s in cells:
        p = PrepParams(a, s)
        report = lhvt_decompose(p).feasible and concurrence_xstate(p) > 0
        if report != lhvt_region(p):
            mismatches.append(f"(a={a!r}, s={s!r}): lhvt_decompose {report}, "
                              f"lhvt_region {lhvt_region(p)}")
    assert not mismatches, f"{len(mismatches)} cells disagree: " + "; ".join(mismatches[:5])


def test_lhvt_decomposition_identity():
    # wherever feasible, c * witness + (1-c) * diag(sep) rebuilds the state
    rb = barrett_state()
    for a in np.linspace(0.05, 0.95, 19):
        for s in np.linspace(0.05, 0.95, 19):
            p = PrepParams(a, s)
            w = lhvt_decompose(p)
            if not w.feasible:
                continue
            rebuilt = w.c * rb + (1 - w.c) * np.diag(np.asarray(w.sep_diag, dtype=complex))
            assert np.max(np.abs(rebuilt - mapped_state(p))) <= 1e-10


def test_lhvt_region_examples():
    assert lhvt_region(PrepParams(INV_SQRT2, 0.38)) is True
    assert lhvt_region(PrepParams(INV_SQRT2, 0.30)) is False  # not entangled
    assert lhvt_region(PrepParams(0.6, 0.4)) is False  # d1 constraint fails
    assert lhvt_region(PrepParams(0.2, 0.8)) is False  # d1 constraint fails


@pytest.mark.parametrize("t", [WITNESS_CORNER, 1.5 * WITNESS_CORNER,
                               np.array([WITNESS_CORNER, 1.5 * WITNESS_CORNER])])
def test_lhvt_of_fields_at_and_beyond_c_one_warns_nothing(t):
    # c = t / WITNESS_CORNER is 1 or more: no local model, and no division by 1 - c <= 0
    with np.errstate(all="raise"):
        lhvt = _lhvt_of_fields(*WITNESS_DIAG, t, entangled=True)
    assert not np.any(lhvt)


def test_region_scan_validation():
    with pytest.raises(ValueError):
        region_scan(1, 50)


def test_region_scan_classification():
    grid = region_scan(80, 80)
    assert grid.ef.shape == (80, 80)
    # violation implies entanglement
    assert np.all(grid.entangled[grid.chsh])
    # the witness region and the violating region are disjoint
    assert not np.any(grid.chsh & grid.lhvt)
    # the witness region is non-empty, entangled, and covers the known point
    assert np.any(grid.lhvt)
    assert np.all(grid.entangled[grid.lhvt])
    i = int(np.argmin(np.abs(grid.a - INV_SQRT2)))
    j = int(np.argmin(np.abs(grid.s - 0.38)))
    assert grid.lhvt[i, j]
    # E_F is positive exactly on the entangled cells
    assert np.all((grid.ef > 0) == grid.entangled)


def test_region_scan_matches_scalar_predicates():
    # every cell of the default fig3 grid: the grid flags and E_F are the
    # scalar functions' values, E_F bit for bit
    grid = region_scan(200, 200)
    mismatches = []
    for i, a in enumerate(grid.a.tolist()):
        for j, s in enumerate(grid.s.tolist()):
            p = PrepParams(a, s)
            c = concurrence_xstate(p)
            for name, got, want in (
                ("lhvt", bool(grid.lhvt[i, j]), lhvt_region(p)),
                ("entangled", bool(grid.entangled[i, j]), c > 0),
                ("ef", float(grid.ef[i, j]), entanglement_of_formation(c)),
            ):
                if got != want:
                    mismatches.append(f"{name} at (i={i}, j={j}, a={a!r}, s={s!r}): "
                                      f"grid {got!r}, scalar {want!r}")
    assert not mismatches, "; ".join(mismatches[:5])


def test_two_witness_constraints_never_bind():
    # on the witness region the middle diagonal entries stay far from zero;
    # the region is bounded by the d1/d4 constraints (and entanglement loss)
    grid = region_scan(120, 120)
    margins = {1: [], 2: [], 3: [], 4: []}
    violated_alone = {1: 0, 2: 0, 3: 0, 4: 0}
    for i, a in enumerate(grid.a):
        for j, s in enumerate(grid.s):
            w = lhvt_decompose(PrepParams(a, s))
            if grid.lhvt[i, j]:
                for k in range(4):
                    margins[k + 1].append(w.sep_diag[k])
            elif not w.feasible and 0 < w.c < 1 and not w.boundary_degenerate:
                tags = set(w.violated_constraints)
                for k in (1, 2, 3, 4):
                    others = {f"d{m}_nonneg" for m in (1, 2, 3, 4) if m != k}
                    if f"d{k}_nonneg" in tags and not tags & others:
                        violated_alone[k] += 1
    assert margins[1], "no witness-region cells found on the scan grid"
    min_margins = {k: round(min(v), 4) for k, v in margins.items()}
    never_binding = [k for k in (1, 2, 3, 4) if min_margins[k] > 0.1]
    print(f"witness constraints never binding on the region: "
          f"{['d%d' % k for k in never_binding]} (min margins: {min_margins})")
    assert set(never_binding) >= {2, 3}
    # d1 and d4 do bind: each is the sole violated constraint somewhere nearby
    assert violated_alone[1] > 0
    assert violated_alone[4] > 0
    assert violated_alone[2] == 0
    assert violated_alone[3] == 0
