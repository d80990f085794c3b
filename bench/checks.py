"""Output checks of the benchmark's operations against the independent reference.

Every check returns a list of error strings; an empty list means the output
is correct.  Each error names the cell, row, setting or input that broke.
Flags within round-off of a boundary are exempt and counted, because there
the exact answer and the program's float64 answer may legitimately differ.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

EPS = ref.EPS
MAX_ERRORS = 5

# Exemption bands: each is a few orders above the float64 round-off of the
# quantity it guards (all are O(1) or smaller) and covers the program's
# documented slack (1e-12 on the witness weight and remainders).
BAND_C = 1e-13      # |C| below this: the entangled flag may go either way
BAND_M = 1e-12      # |M - 1|
BAND_W = 1e-11      # |1 - c| of the Werner weight
BAND_R = 1e-12      # |d_i - c b_i|

SIM_SIGMA = 5.0     # a frequency further than this from the Born-rule value fails


def reference_flags(a, s):
    """Exact-math flags (entangled, chsh, lhvt) and the cells exempt from each."""
    c_raw = ref.concurrence(a, s)
    m = ref.chsh_m(a, s)
    c, num = ref.witness_terms(a, s)
    ent = c_raw > 0.0
    chsh = m > 1.0
    lhvt = ent & (c > 0.0) & (c < 1.0)
    near_w = np.abs(1.0 - c) <= BAND_W
    for n in num:
        lhvt &= n >= 0.0
        near_w |= np.abs(n) <= BAND_R
    ent_ex = np.abs(c_raw) <= BAND_C
    return (ent, chsh, lhvt), (ent_ex, np.abs(m - 1.0) <= BAND_M, ent_ex | near_w)


def _read_csv(path, header):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        return None, [f"{path}: header {first!r}, expected {header!r}"]
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), []


def check_fig3(path, a_points: int, s_points: int, sample) -> tuple[list[str], int]:
    """Check an `entmix fig3` CSV cell by cell; returns (errors, exempt cells)."""
    data, errors = _read_csv(path, "a,S,EF,entangled,chsh,lhvt")
    if errors:
        return errors, 0
    if data.shape != (a_points * s_points, 6):
        return [f"fig3: shape {data.shape}, expected ({a_points * s_points}, 6)"], 0
    a = np.arange(1, a_points + 1) / (a_points + 1)
    s = np.arange(1, s_points + 1) / (s_points + 1)
    cols = [data[:, k].reshape(a_points, s_points) for k in range(6)]
    a_print = np.array([float(format(x, ".12g")) for x in a])
    s_print = np.array([float(format(x, ".12g")) for x in s])
    if not (cols[0] == a_print[:, None]).all() or not (cols[1] == s_print[None, :]).all():
        errors.append("fig3: a/S columns are not the uniform interior grid in row-major order")
        return errors, 0

    flags = [c.astype(np.int64) for c in cols[3:]]
    if any(((f != 0) & (f != 1)).any() for f in flags):
        return ["fig3: a flag column holds a value other than 0 or 1"], 0
    expected, exempt = reference_flags(a[:, None], s[None, :])
    n_exempt = int((exempt[0] | exempt[1] | exempt[2]).sum())
    for name, got, want, ex in zip(("entangled", "chsh", "lhvt"), flags, expected, exempt):
        bad = np.argwhere((got.astype(bool) != want) & ~ex)
        for i, j in bad[:MAX_ERRORS]:
            errors.append(f"fig3 cell (i={i}, j={j}, a={float(a[i])!r}, S={float(s[j])!r}): "
                          f"{name} = {got[i, j]}, reference {int(want[i, j])}")
        if len(bad) > MAX_ERRORS:
            errors.append(f"... and {len(bad) - MAX_ERRORS} more {name} mismatches")

    ent, chsh, lhvt = (f.astype(bool) for f in flags)
    bad = np.argwhere(lhvt & ~(ent & ~chsh))
    for i, j in bad[:MAX_ERRORS]:
        errors.append(f"fig3 cell (i={i}, j={j}): lhvt without (entangled and not chsh)")
    i, j = int(np.argmin(np.abs(a - 1 / math.sqrt(2)))), int(np.argmin(np.abs(s - 0.38)))
    if not lhvt[i, j]:
        errors.append(f"fig3 cell (i={i}, j={j}) next to (1/sqrt2, 0.38) is not lhvt")

    ef = cols[2]
    bad = np.argwhere((ef != 0.0) != ent)
    for i, j in bad[:MAX_ERRORS]:
        errors.append(f"fig3 cell (i={i}, j={j}): EF = {float(ef[i, j])!r} but entangled = {int(ent[i, j])}")
    d1, d2, d4, t = ref.xstate(a[:, None], s[None, :])
    for i, j in sample:
        if exempt[0][i, j]:
            continue
        want = float(ref.ef(ref.concurrence_dec(a[i], s[j])))
        c = float(ref.concurrence(a[i], s[j]))
        c_err = 2.0 * 8 * EPS * (t[i, j] + d2[i, j])
        tol = ref.ef_tolerance(max(c, 0.0), c_err, want)
        if abs(ef[i, j] - want) > tol:
            errors.append(f"fig3 cell (i={i}, j={j}, a={float(a[i])!r}, S={float(s[j])!r}): EF {float(ef[i, j])!r}, "
                          f"reference {want!r}, |diff| {abs(ef[i, j] - want):.3e} > tol {tol:.3e}")
    return errors, n_exempt


def check_fig2(path, n_rows: int, sample) -> list[str]:
    """Check an `entmix fig2` CSV (all four curves) against c*(s) and its properties."""
    data, errors = _read_csv(path, "S,EF_max_numeric,EF_asymptotic,EF_bell,EF_a0.1")
    if errors:
        return errors
    if data.shape != (n_rows, 5):
        return [f"fig2: shape {data.shape}, expected ({n_rows}, 5)"]
    s = np.arange(1, n_rows + 1) / n_rows
    if not (data[:, 0] == np.array([float(format(x, ".12g")) for x in s])).all():
        return ["fig2: S column is not the uniform grid step, 2 step, ..., 1"]
    ef_max, ef_asym, ef_bell, ef_a01 = data[:, 1], data[:, 2], data[:, 3], data[:, 4]

    for k in sample:
        c = ref.c_star(s[k])
        want = float(ref.ef(c))
        tol = ref.ef_tolerance(float(c), 16 * EPS * float(c), want)
        if abs(ef_max[k] - want) > tol:
            errors.append(f"fig2 row {k} (S={float(s[k])!r}): EF_max_numeric {float(ef_max[k])!r}, reference "
                          f"E_F(c*) {want!r}, |diff| {abs(ef_max[k] - want):.3e} > tol {tol:.3e}")

    slack = 1.0 - 1e-11  # two 12-digit roundings
    for name, other in (("EF_bell", ef_bell), ("EF_a0.1", ef_a01)):
        bad = np.flatnonzero(ef_max < other * slack)
        for k in bad[:MAX_ERRORS]:
            errors.append(f"fig2 row {k} (S={float(s[k])!r}): EF_max_numeric {float(ef_max[k])!r} < {name} {float(other[k])!r}")
    bad = np.flatnonzero((s <= 1.0 / 3.0) & (ef_bell != 0.0))
    for k in bad[:MAX_ERRORS]:
        errors.append(f"fig2 row {k} (S={float(s[k])!r}): EF_bell = {float(ef_bell[k])!r}, expected 0 for S <= 1/3")
    small = np.flatnonzero(s <= 0.05)
    ratio = ef_asym[small] / ef_max[small]
    bad = small[~(((1 - s[small]) ** 2 * slack <= ratio) & (ratio <= 1.0 / slack))]
    for k in bad[:MAX_ERRORS]:
        errors.append(f"fig2 row {k} (S={float(s[k])!r}): EF_asymptotic / EF_max_numeric = "
                      f"{float(ef_asym[k] / ef_max[k])!r} outside [(1-S)^2, 1]")
    return errors


def check_simulate(path, returncode: int, model: str, a: float, param, trials: int) -> list[str]:
    """Check an `entmix simulate --self-test` JSON report against the Born rule."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    report = doc["report"]
    errors = []
    s_eff = float(param) if model == "bernoulli" else 1.0 / param
    if report["model"] != model or report["a"] != a or report["trials"] != trials:
        errors.append(f"simulate: report echoes {report['model']}, a={report['a']}, "
                      f"trials={report['trials']}; expected {model}, a={a}, trials={trials}")
    if report["effective_s"] != s_eff:
        errors.append(f"simulate: effective_s = {float(report['effective_s'])!r}, expected {s_eff!r}")
    freq = np.array(report["freq"])
    pred = np.array(report["pred"])
    want = ref.born_probabilities(a, s_eff)
    for k, o in np.argwhere(np.abs(pred - want) > 5e-12 * want + 1e-15)[:MAX_ERRORS]:
        errors.append(f"simulate setting {report['basis_settings'][k]} outcome "
                      f"{report['outcome_labels'][o]}: pred {float(pred[k, o])!r}, Born rule {float(want[k, o])!r}")
    se = np.sqrt(want * (1.0 - want) / trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, np.abs(freq - want) / se, np.where(freq == want, 0.0, np.inf))
    for k, o in np.argwhere(z > SIM_SIGMA)[:MAX_ERRORS]:
        errors.append(f"simulate setting {report['basis_settings'][k]} outcome "
                      f"{report['outcome_labels'][o]}: freq {float(freq[k, o])!r} is {z[k, o]:.2f} sigma "
                      f"from Born rule {float(want[k, o])!r} (limit {SIM_SIGMA})")
    # The self-test flags any cell beyond sigma_threshold (4): over 36 cells
    # that happens by chance about once in 500 runs, so exit 4 is a correct
    # outcome when, and only when, the report shows such a cell.
    expected_rc = 4 if report["max_sigma"] > doc["sigma_threshold"] else 0
    if returncode != expected_rc:
        errors.append(f"simulate: exit code {returncode} with max_sigma {float(report['max_sigma'])!r}; "
                      f"expected {expected_rc}")
    return errors


def check_general_route(pairs: np.ndarray, results: np.ndarray) -> list[str]:
    """(concurrence_general, horodecki_m) of mapped states vs the closed forms."""
    a, s = pairs[:, 0], pairs[:, 1]
    errors = []
    c_want = np.maximum(ref.concurrence(a, s), 0.0)
    c_tol = ref.general_concurrence_tol(a, s)
    m_want = ref.chsh_m(a, s)
    for k in np.flatnonzero(np.abs(results[:, 0] - c_want) > c_tol)[:MAX_ERRORS]:
        errors.append(f"general route state {k} (a={float(a[k])!r}, s={float(s[k])!r}): concurrence "
                      f"{float(results[k, 0])!r}, closed form {float(c_want[k])!r}, tol {c_tol[k]:.2e}")
    for k in np.flatnonzero(np.abs(results[:, 1] - m_want) > 1e-13)[:MAX_ERRORS]:
        errors.append(f"general route state {k} (a={float(a[k])!r}, s={float(s[k])!r}): horodecki_m "
                      f"{float(results[k, 1])!r}, closed form {float(m_want[k])!r}")
    return errors


def check_bisection(a_vals: np.ndarray, results: np.ndarray) -> list[str]:
    """(chsh_boundary_bisect, survival_threshold_bisect) vs the derived thresholds.

    A bisection on a function evaluated to absolute error e stops within
    e / slope of the root, plus its own interval tolerance (1e-12).
    """
    errors = []
    for k, a in enumerate(a_vals.tolist()):
        chsh = float(ref.chsh_threshold(a))
        surv = float(ref.survival_threshold(a))
        w = a * math.sqrt(1.0 - a * a)
        for name, got, want, tol in (
            ("chsh_boundary_bisect", float(results[k, 0]), chsh, 1e-11 + 64 * EPS / ref.chsh_slope(a, chsh)),
            ("survival_threshold_bisect", float(results[k, 1]), surv, 1e-11 + 64 * EPS / (2 * w * (1 + w))),
        ):
            if not abs(got - want) <= tol:
                errors.append(f"bisection a={a!r}: {name} = {got!r}, reference {want!r}, tol {tol:.2e}")
    return errors[:MAX_ERRORS]


def check_closed_form(pairs: np.ndarray, results: np.ndarray, sample) -> tuple[list[str], int]:
    """(concurrence_xstate, lhvt_region, optimize_prep a*, c_max, ef_max) vs the reference."""
    a, s = pairs[:, 0], pairs[:, 1]
    errors = []
    c_want = np.maximum(ref.concurrence(a, s), 0.0)
    (_, _, lhvt), (_, _, lhvt_ex) = reference_flags(a, s)
    a_want = ref.a_star(s)
    cs_want = ref.c_star_float(s)
    checks = (
        ("concurrence_xstate", results[:, 0], c_want, 16 * EPS * np.ones_like(a)),
        ("optimize_prep.a_star", results[:, 2], a_want, ref.a_star_tolerance(s)),
        ("optimize_prep.c_max", results[:, 3], cs_want, 20 * EPS * cs_want),
    )
    for name, got, want, tol in checks:
        for k in np.flatnonzero(~(np.abs(got - want) <= tol))[:MAX_ERRORS]:
            errors.append(f"closed form cell {k} (a={float(a[k])!r}, s={float(s[k])!r}): {name} = {float(got[k])!r}, "
                          f"reference {float(want[k])!r}")
    for k in np.flatnonzero((results[:, 1].astype(bool) != lhvt) & ~lhvt_ex)[:MAX_ERRORS]:
        errors.append(f"closed form cell {k} (a={float(a[k])!r}, s={float(s[k])!r}): lhvt_region = "
                      f"{bool(results[k, 1])}, reference {bool(lhvt[k])}")
    for k in sample:
        c = ref.c_star(s[k])
        want = float(ref.ef(c))
        tol = ref.ef_tolerance(float(c), 16 * EPS * float(c), want)
        if abs(results[k, 4] - want) > tol:
            errors.append(f"closed form cell {k} (a={float(a[k])!r}, s={float(s[k])!r}): optimize_prep.ef_max {float(results[k, 4])!r}, "
                          f"reference {want!r}")
    return errors, int(lhvt_ex.sum())
