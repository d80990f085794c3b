"""The benchmark's output checks pass on entmix's output and catch planted errors."""

import json
import math

import numpy as np
import pytest

import checks
import reference as ref
import tracing
import worker

entmix = pytest.importorskip("entmix")
from entmix import cli  # noqa: E402


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _bump_10th_digit(text: str) -> str:
    x = float(text)
    return repr(x + 10.0 ** (math.floor(math.log10(x)) - 9))


def test_fig3_check_catches_flipped_flag_and_ef_off_in_10th_digit(tmp_path):
    doc = str(tmp_path / "fig3.csv")
    assert cli.main(["fig3", "--a-points", "30", "--s-points", "40", "--out", doc]) == 0
    sample = [(i, j) for i in range(0, 30, 3) for j in range(0, 40, 3)]
    assert checks.check_fig3(doc, 30, 40, sample) == ([], 0)

    lines = _lines(doc)
    row = 1 + 21 * 40 + 15                      # cell (21, 15): a = 22/31, S = 16/41, lhvt
    cells = lines[row].split(",")
    assert cells[5] == "1"
    _write(doc, lines[:row] + [",".join(cells[:5] + ["0"])] + lines[row + 1:])
    errors, _ = checks.check_fig3(doc, 30, 40, sample)
    assert any("cell (i=21, j=15" in e and "lhvt = 0" in e for e in errors)

    cells[2] = _bump_10th_digit(cells[2])
    _write(doc, lines[:row] + [",".join(cells)] + lines[row + 1:])
    errors, _ = checks.check_fig3(doc, 30, 40, [(21, 15)])
    assert len(errors) == 1 and "cell (i=21, j=15" in errors[0] and "EF" in errors[0]


def test_fig2_check_catches_ef_off_in_10th_digit(tmp_path):
    doc = str(tmp_path / "fig2.csv")
    assert cli.main(["fig2", "--s-step", "0.01", "--out", doc]) == 0
    assert checks.check_fig2(doc, 100, range(100)) == []
    lines = _lines(doc)
    cells = lines[1 + 29].split(",")             # S = 0.3
    cells[1] = _bump_10th_digit(cells[1])
    _write(doc, lines[:30] + [",".join(cells)] + lines[31:])
    errors = checks.check_fig2(doc, 100, [29])
    assert len(errors) == 1 and "row 29" in errors[0]


def test_simulate_check_catches_frequency_off_by_6_sigma(tmp_path):
    doc = str(tmp_path / "sim.json")
    argv = ["simulate", "--model", "bernoulli", "--s", "0.4", "--a", "0.6", "--trials", "20000",
            "--seed", "3", "--self-test", "--out", doc]
    rc = cli.main(argv)
    assert checks.check_simulate(doc, rc, "bernoulli", 0.6, 0.4, 20000) == []
    with open(doc, encoding="utf-8") as fh:
        rep = json.load(fh)
    p = ref.born_probabilities(0.6, 0.4)[1, 1]   # setting xy, outcome +-
    rep["report"]["freq"][1][1] = p + 6.0 * math.sqrt(p * (1 - p) / 20000)
    with open(doc, "w", encoding="utf-8") as fh:
        json.dump(rep, fh)
    errors = checks.check_simulate(doc, rc, "bernoulli", 0.6, 0.4, 20000)
    assert any("setting xy outcome +-" in e and "sigma" in e for e in errors)


@pytest.mark.parametrize("op, n, column", [("general_route", 40, 0), ("bisection", 2, 0),
                                           ("closed_form", 200, 4)])
def test_cross_check_catches_planted_error(op, n, column):
    x = worker.batch_inputs(op, [7, 0], n)
    y = worker.run_batch(entmix, op, x)
    run = {"general_route": checks.check_general_route, "bisection": checks.check_bisection,
           "closed_form": lambda x, y: checks.check_closed_form(x, y, range(len(x)))[0]}[op]
    assert run(x, y) == []
    k = int(np.argmax(y[:, column]))
    y[k, column] *= 1.0 + 1e-9
    errors = run(x, y)
    assert len(errors) == 1 and f"a={float(x[k] if x.ndim == 1 else x[k, 0])!r}" in errors[0]


def test_reference_general_route_matches_its_closed_forms():
    for a, s in ((0.3, 0.2), (0.7, 0.5), (0.95, 0.9), (1 / math.sqrt(2), 0.38)):
        rho = ref.mapped_state(a, s)
        assert abs(ref.wootters_concurrence(rho) - max(ref.concurrence(a, s), 0.0)) < 1e-12
        assert abs(ref.correlation_m(rho) - ref.chsh_m(a, s)) < 1e-14
        assert np.allclose(ref.born_probabilities(a, s).sum(axis=1), 1.0, atol=1e-15)
    assert abs(float(ref.chsh_threshold(1 / math.sqrt(2))) - 1 / math.sqrt(2)) < 1e-15


def test_self_times_subtract_direct_children_only():
    start = np.array([0.0, 1.0, 2.0, 5.0, 10.0])
    end = np.array([9.0, 4.0, 3.0, 6.0, 11.0])
    parent = np.array([-1, 0, 1, 0, -1])
    assert tracing.self_times(start, end, parent).tolist() == [5.0, 2.0, 1.0, 1.0, 1.0]
