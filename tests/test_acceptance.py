"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from entmix.cli import main as cli_main
from entmix.entanglement import (
    concurrence_general,
    concurrence_raw,
    concurrence_xstate,
    ef_max_asymptotic,
    optimize_prep,
    survival_threshold,
)
from entmix.mixing import apply_map, fidelity, mapped_state
from entmix.nonlocality import chsh_boundary, chsh_boundary_bisect, lhvt_decompose, lhvt_region, region_scan
from entmix.simulate import DeliveryModel, simulate_pair_state
from entmix.states import PrepParams, barrett_state, psi_a

INV_SQRT2 = 1 / np.sqrt(2)


def _criterion(num, desc, checks):
    failures = [detail for ok, detail in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {num:2d}] {status} - {desc}"
    if failures:
        line += " | " + "; ".join(failures)
    print(line, flush=True)
    assert not failures, line


def test_criterion_01_bell_survival_threshold():
    value = survival_threshold(INV_SQRT2)
    err = abs(value - 1 / 3)
    _criterion(1, "Bell survival threshold equals 1/3 within 1e-12",
               [(err <= 1e-12, f"survival_threshold(1/sqrt2) = {value!r}, err = {err:.2e}")])


def test_criterion_02_chsh_bell_threshold():
    t0 = time.monotonic()
    closed = chsh_boundary(INV_SQRT2)
    bisected = chsh_boundary_bisect(INV_SQRT2)
    elapsed = time.monotonic() - t0
    checks = [
        (abs(closed - INV_SQRT2) <= 1e-9,
         f"closed form = {closed!r}, err = {abs(closed - INV_SQRT2):.2e}"),
        (abs(bisected - INV_SQRT2) <= 1e-8,
         f"bisection = {bisected!r}, err = {abs(bisected - INV_SQRT2):.2e}"),
        (elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s"),
    ]
    _criterion(2, "CHSH threshold for Bell pairs equals 1/sqrt(2)", checks)


def test_criterion_03_closed_form_vs_general_equivalence():
    t0 = time.monotonic()
    grid = np.linspace(0.0, 1.0, 102)[1:-1]
    worst_c = 0.0
    worst_f = 0.0
    for a in grid:
        rho_pure = psi_a(a)
        ket = np.array([a, 0.0, 0.0, np.sqrt(1 - a * a)])
        for s in grid:
            rho = apply_map(rho_pure, s)
            worst_c = max(worst_c, abs(concurrence_general(rho)
                                       - concurrence_xstate(PrepParams(a, s))))
            direct = float((ket @ rho @ ket).real)
            worst_f = max(worst_f, abs(fidelity(PrepParams(a, s)) - direct))
    elapsed = time.monotonic() - t0
    checks = [
        (worst_c <= 1e-9, f"max concurrence deviation {worst_c:.2e} > 1e-9"),
        (worst_f <= 1e-12, f"max fidelity deviation {worst_f:.2e} > 1e-12"),
        (elapsed < 10.0, f"runtime {elapsed:.1f}s >= 10s"),
    ]
    _criterion(3, "closed forms match the general 100x100-grid evaluation", checks)


def test_criterion_04_always_distributable():
    checks = []
    for s in (1e-3, 1e-2, 1e-1, 0.5, 0.9):
        a = min(s / 2, INV_SQRT2)
        c = concurrence_xstate(PrepParams(a, s))
        checks.append((c > 0, f"C(min(s/2, 1/sqrt2), s={s}) = {c!r} not > 0"))
    _criterion(4, "entanglement is distributable at every success probability", checks)


def test_criterion_05_optimal_preparation():
    t0 = time.monotonic()
    checks = []
    for s in (0.001, 0.01, 0.05, 0.4999, 0.49999988811789187):
        opt = optimize_prep(s)
        # derived argmax of 2(s w - (1-s) w^2) over w = a sqrt(1-a^2), inverted
        # for the amplitude; s/2 is only its s -> 0 limit (off by s/(1-s))
        w_star = s / (2 * (1 - s))
        a_derived = np.sqrt(2 * w_star**2 / (1 + np.sqrt(1 - 4 * w_star**2)))
        rel = abs(opt.a_star / a_derived - 1.0)
        checks.append(
            (rel <= 1e-6,
             f"s={s}: a* = {opt.a_star!r} vs a(w*) = {a_derived!r} (s/2 = {s / 2!r}): "
             f"rel. deviation {rel:.2e} > 1e-6")
        )
    for s in (0.5, 0.7, 1.0):
        opt = optimize_prep(s)
        dev = abs(opt.a_star - INV_SQRT2)
        checks.append((dev <= 1e-6, f"s={s}: |a* - 1/sqrt2| = {dev:.2e} > 1e-6"))
    for s in (0.001, 0.01, 0.05, 0.5, 0.7, 1.0):
        opt = optimize_prep(s)
        closed = s * s / (2 * (1 - s)) if s < 0.5 else (3 * s - 1) / 2
        dev = abs(opt.c_max - closed)
        checks.append((dev <= 1e-8, f"s={s}: |C_max - closed form| = {dev:.2e} > 1e-8"))
        # independent oracle: dense grid search over the amplitude
        a_dense = np.linspace(0.0, INV_SQRT2, 2_000_001)
        c_dense = float(np.max(concurrence_raw(a_dense, s)))
        checks.append(
            (opt.c_max >= c_dense - 1e-12,
             f"s={s}: optimizer c_max {opt.c_max!r} below dense-grid max {c_dense!r}")
        )
    elapsed = time.monotonic() - t0
    checks.append((elapsed < 5.0, f"runtime {elapsed:.1f}s >= 5s"))
    _criterion(5, "optimal preparation matches the derived optimum", checks)


def test_criterion_06_asymptotic_ef_agreement():
    # The asymptote is the leading term of E_F at C0 = s^2/2; the optimum sits
    # at C* = C0/(1-s).  E_F(C)/C^2 decreases in C, so the ratio lies in
    # [(1-s)^2, 1] (up to a relative O(C*^2 log(1/C*)) correction).
    checks = []
    for s in (1e-4, 1e-3, 0.01, 0.05):
        optimum = optimize_prep(s).ef_max
        lo = (1 - s) ** 2
        ratio = ef_max_asymptotic(s) / optimum if optimum > 0 else float("nan")
        checks.append(
            (lo <= ratio <= 1.0,
             f"s={s}: asymptote/optimum = {ratio!r} (optimum E_F = {optimum!r}) "
             f"outside [(1-s)^2, 1] = [{lo!r}, 1]")
        )
    _criterion(6, "small-s closed form tracks the numeric optimum", checks)


@pytest.fixture(scope="module")
def fig3_grid():
    return region_scan(200, 200)


def test_criterion_07_lhvt_region(fig3_grid):
    t0 = time.monotonic()
    checks = [
        (lhvt_region(PrepParams(INV_SQRT2, 0.38)) is True, "(1/sqrt2, 0.38) not in region"),
        (lhvt_region(PrepParams(INV_SQRT2, 0.45)) is False, "(1/sqrt2, 0.45) wrongly in region"),
        (lhvt_region(PrepParams(0.6, 0.4)) is False, "(0.6, 0.4) wrongly in region"),
    ]
    grid = fig3_grid
    checks += [
        (bool(np.any(grid.lhvt)), "witness region empty on the 200x200 grid"),
        (bool(np.all(grid.entangled[grid.lhvt])), "witness region contains separable cells"),
        (not bool(np.any(grid.lhvt & grid.chsh)), "witness region intersects the CHSH set"),
    ]
    elapsed = time.monotonic() - t0
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s"))
    _criterion(7, "local-model region is non-empty, entangled, CHSH-disjoint", checks)


def test_criterion_08_decomposition_identity(fig3_grid):
    grid = fig3_grid
    rb = barrett_state()
    worst = 0.0
    feasible_cells = 0
    for i, a in enumerate(grid.a):
        for j, s in enumerate(grid.s):
            w = lhvt_decompose(PrepParams(a, s))
            if not w.feasible:
                continue
            feasible_cells += 1
            rebuilt = w.c * rb + (1 - w.c) * np.diag(np.asarray(w.sep_diag, dtype=complex))
            worst = max(worst, float(np.max(np.abs(rebuilt - mapped_state(PrepParams(a, s))))))
    checks = [
        (feasible_cells > 0, "no feasible cells on the grid"),
        (worst <= 1e-10,
         f"worst reconstruction residual {worst:.2e} > 1e-10 over {feasible_cells} cells"),
    ]
    _criterion(8, "witness decomposition rebuilds the mapped state", checks)


def test_criterion_09_simulator_oracle():
    t0 = time.monotonic()
    checks = []
    runs = (
        (DeliveryModel("bernoulli", s=0.3), 0.1),
        (DeliveryModel("permutation", n=4), 0.6),
    )
    for model, a in runs:
        r1 = simulate_pair_state(model, a=a, trials=1_000_000, seed=7)
        r2 = simulate_pair_state(model, a=a, trials=1_000_000, seed=7)
        label = f"{model.kind}(a={a})"
        checks.append(
            (r1.max_sigma <= 4.0, f"{label}: max_sigma = {r1.max_sigma:.2f} > 4")
        )
        checks.append(
            (json.dumps(r1.to_dict()) == json.dumps(r2.to_dict()),
             f"{label}: repeated same-seed runs are not byte-identical")
        )
    elapsed = time.monotonic() - t0
    checks.append((elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s"))
    _criterion(9, "simulator agrees with the mixing-map predictions", checks)


def test_criterion_10_figure_reproduction(tmp_path):
    t0 = time.monotonic()
    fig2_path = tmp_path / "fig2.csv"
    fig3_path = tmp_path / "fig3.csv"
    rc2 = cli_main(["fig2", "--out", str(fig2_path)])
    rc3 = cli_main(["fig3", "--out", str(fig3_path)])
    elapsed = time.monotonic() - t0

    checks = [(rc2 == 0 and rc3 == 0, f"exit codes fig2={rc2} fig3={rc3}")]

    rows2 = [line.split(",") for line in fig2_path.read_text().strip().split("\n")[1:]]
    bell_ok = all(float(r[3]) == 0.0 for r in rows2 if float(r[0]) <= 1 / 3)
    checks.append((bell_ok, "EF_bell not identically 0 for S <= 1/3"))
    ef_max_col = [float(r[1]) for r in rows2]
    checks.append(
        (all(b >= a - 1e-12 for a, b in zip(ef_max_col, ef_max_col[1:])),
         "EF_max_numeric is not monotone in S")
    )

    rows3 = [line.split(",") for line in fig3_path.read_text().strip().split("\n")[1:]]
    checks.append((len(rows3) == 200 * 200, f"fig3 has {len(rows3)} rows, expected 40000"))
    chsh_low = [r for r in rows3 if float(r[1]) < 0.70 and r[4] == "1"]
    checks.append((not chsh_low, f"{len(chsh_low)} CHSH-violating cells below S = 0.70"))
    ent_impl = all(r[3] == "1" for r in rows3 if r[4] == "1")
    checks.append((ent_impl, "CHSH-violating cell without entanglement"))
    checks.append((elapsed < 300.0, f"runtime {elapsed:.1f}s >= 300s"))
    _criterion(10, "figure data files reproduce at default resolution in time", checks)
