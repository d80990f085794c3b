"""Every checked input of the package: the bad values each entry point must reject with a
ValueError naming the parameter, its range and the value, and the edges it must accept."""

import argparse
import math

import numpy as np
import pytest

import entmix.cli as cli
from entmix.entanglement import (
    concurrence_xstate,
    ef_max_asymptotic,
    eisert_lower_bound,
    entanglement_of_formation,
    optimize_prep,
    survival_threshold,
    survival_threshold_bisect,
)
from entmix.mixing import apply_map, fidelity
from entmix.nonlocality import (
    chsh_boundary,
    chsh_boundary_bisect,
    lhvt_decompose,
    lhvt_region,
    region_scan,
)
from entmix.simulate import DeliveryModel, permutation_effective_s, simulate_pair_state
from entmix.states import PrepParams, bell_state, pauli, psi_a

N_MAX = 2**1024 - 2**970 - 1   # the largest n with a float(n)
GRID_MAX = np.iinfo(np.intp).max // 8 - 2   # the float64s numpy can hold, less an axis's 2 ends
BERNOULLI = DeliveryModel("bernoulli", s=0.5)

# entry point: (call, parameter, range as the message writes it, lo, hi)
CHECKS = {
    "PrepParams-a": (lambda x: PrepParams(x, 0.5), "a", "in [0, 1]", 0, 1),
    "PrepParams-s": (lambda x: PrepParams(0.5, x), "s", "in [0, 1]", 0, 1),
    "psi_a": (psi_a, "a", "in [0, 1]", 0, 1),
    "apply_map": (lambda x: apply_map(bell_state(), x), "s", "in [0, 1]", 0, 1),
    "optimize_prep": (optimize_prep, "s", "in [0, 1]", 0, 1),
    "entanglement_of_formation": (entanglement_of_formation, "c",   # round-off past [0, 1]
                                  "in [-1e-12, 1.000000000001]", -1e-12, 1 + 1e-12),
    "survival_threshold": (survival_threshold, "a", "in (0, 1)", 0, 1),
    "survival_threshold_bisect": (survival_threshold_bisect, "a", "in (0, 1)", 0, 1),
    "chsh_boundary": (chsh_boundary, "a", "in (0, 1)", 0, 1),
    "chsh_boundary_bisect": (chsh_boundary_bisect, "a", "in (0, 1)", 0, 1),
    "eisert_lower_bound": (eisert_lower_bound, "n", "an integer in [2, 2**1024 - 2**970 - 1]",
                           2, N_MAX),
    "permutation_effective_s": (permutation_effective_s, "n",
                                "an integer in [2, 2**1024 - 2**970 - 1]", 2, N_MAX),
    "DeliveryModel-n": (lambda x: DeliveryModel("permutation", n=x), "n",
                        "an integer in [2, 2**1024 - 2**970 - 1]", 2, N_MAX),
    "DeliveryModel-s": (lambda x: DeliveryModel("bernoulli", s=x), "s", "in [0, 1]", 0, 1),
    "simulate-trials": (lambda x: simulate_pair_state(BERNOULLI, 0.5, x, 1), "trials",
                        "an integer in [1, 9223372036854775807]", 1, 2**63 - 1),
    "simulate-seed": (lambda x: simulate_pair_state(BERNOULLI, 0.5, 10, x), "seed",
                      "an integer in [0, 2**128 - 1]", 0, 2**128 - 1),
    "grid-a_points": (lambda x: region_scan(x, 3), "a_points",
                      f"an integer in [2, {GRID_MAX}]", 2, GRID_MAX),
    "grid-s_points": (lambda x: region_scan(3, x), "s_points",
                      f"an integer in [2, {GRID_MAX}]", 2, GRID_MAX),
    "fig2-s_step": (lambda x: cli._cmd_fig2(argparse.Namespace(s_step=x, curves="max", out=None)),
                    "--s-step", "in (0, 1)", 0, 1),
}


def _bad_values(text, lo, hi):
    # NaN, both infinities, None, and the nearest values outside the range; for an integer
    # range also a float and a bool that equal integers inside it, for a real range an int
    # past the floats, a str and a complex
    common = [math.nan, math.inf, -math.inf, None]
    if text.startswith("an integer"):
        return common + [lo - 1, hi + 1, 2.0, True]
    common += [10**400, "0.5", 0.5j]
    if text.startswith("in ["):
        return common + [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    return common + [float(lo), float(hi)]


CASES = [pytest.param(entry, x, id=f"{entry}-{x!r}"[:60])
         for entry, (_, _, text, lo, hi) in CHECKS.items() for x in _bad_values(text, lo, hi)]


@pytest.mark.parametrize("entry, x", CASES)
def test_bad_input_raises_naming_parameter_range_and_value(entry, x):
    call, name, text, _, _ = CHECKS[entry]
    with pytest.raises(ValueError) as exc:
        call(x)
    assert str(exc.value) == f"{name} must be {text}, got {x!r}"


@pytest.mark.parametrize("s", ["0.5", 0.5j, 10**400, True, [0.5, "0.5"]],
                         ids=lambda s: repr(s)[:20])
def test_ef_max_asymptotic_takes_integers_and_floats_only(s):
    with pytest.raises(ValueError, match=r"^success probability s must be in \(0, 1\], got "):
        ef_max_asymptotic(s)


@pytest.mark.parametrize("axis", ["w", ["x"], None, 0], ids=repr)
def test_pauli_rejects_other_axes(axis):
    with pytest.raises(ValueError) as exc:
        pauli(axis)
    assert str(exc.value) == f"axis must be one of 'x', 'y', 'z', got {axis!r}"


def test_checked_inputs_accept_their_edges():
    assert permutation_effective_s(10**308) == 1e-308
    assert eisert_lower_bound(10**308) == 0.0
    assert permutation_effective_s(N_MAX) == 1.0 / 1.7976931348623157e308
    assert DeliveryModel("permutation", n=N_MAX).effective_s > 0.0
    for edge in (0, 1, 0.0, 1.0):
        PrepParams(edge, edge)
        psi_a(edge)
        apply_map(bell_state(), edge)
        optimize_prep(edge)
        DeliveryModel("bernoulli", s=edge)
    simulate_pair_state(BERNOULLI, 0.5, 1, 0)
    simulate_pair_state(BERNOULLI, 0.5, 2**63 - 1, 2**128 - 1)
    assert region_scan(2, 2).ef.shape == (2, 2)


# each CLI flag that reaches one of the checks, with the values a shell can give it
CLI_CASES = [
    (["state", "--s", "0.5", "--a"], "a", "in [0, 1]", ["nan", "inf", "-inf", "-1e-300", "1.5"]),
    (["state", "--a", "0.5", "--s"], "s", "in [0, 1]", ["nan", "-inf", "1.0000000000000002"]),
    (["bounds", "--survival", "--a"], "a", "in (0, 1)", ["nan", "0", "1", "inf"]),
    (["bounds", "--chsh", "--a"], "a", "in (0, 1)", ["nan", "0", "1", "-inf"]),
    (["bounds", "--eisert", "--n"], "n", "an integer in [2, 2**1024 - 2**970 - 1]",
     ["1", str(N_MAX + 1)]),
    (["simulate", "--model", "permutation", "--a", "0.6", "--seed", "1", "--n"], "n",
     "an integer in [2, 2**1024 - 2**970 - 1]", ["-3", str(N_MAX + 1)]),
    (["simulate", "--model", "bernoulli", "--a", "0.6", "--seed", "1", "--s"], "s", "in [0, 1]",
     ["nan", "inf", "-1e-300", "1.5"]),
    (["simulate", "--model", "bernoulli", "--s", "0.5", "--seed", "1", "--a"], "a", "in [0, 1]",
     ["nan", "-inf", "2"]),
    (["simulate", "--model", "bernoulli", "--s", "0.5", "--a", "0.6", "--seed", "1",
      "--trials"], "trials", "an integer in [1, 9223372036854775807]", ["0", str(2**63)]),
    (["simulate", "--model", "bernoulli", "--s", "0.5", "--a", "0.6", "--seed"], "seed",
     "an integer in [0, 2**128 - 1]", ["-1", str(2**128)]),
    (["fig3", "--s-points", "3", "--a-points"], "a_points", f"an integer in [2, {GRID_MAX}]",
     ["1", str(GRID_MAX + 1), str(2**62), str(2**63 - 2)]),
    (["fig3", "--a-points", "3", "--s-points"], "s_points", f"an integer in [2, {GRID_MAX}]",
     ["-1", str(GRID_MAX + 1), str(2**63)]),
    (["fig2", "--s-step"], "--s-step", "in (0, 1)", ["nan", "inf", "0", "1", "-0.5"]),
]


@pytest.mark.parametrize("argv, name, text, value", [
    pytest.param(argv, name, text, value, id=f"{argv[0]} {argv[-1]}={value}"[:60])
    for argv, name, text, values in CLI_CASES for value in values])
def test_cli_bad_input_exits_2_with_one_error_line(capsys, argv, name, text, value):
    rc = cli.main(argv[:-1] + [f"{argv[-1]}={value}"])   # = lets a value start with "-"
    out, err = capsys.readouterr()
    given = int(value) if text.startswith("an integer") else float(value)
    assert rc == 2
    assert err == f"error: {name} must be {text}, got {given!r}\n"
    assert out == ""


@pytest.mark.parametrize("model, given, unused, value", [
    (["bernoulli", "--s", "0.5"], ["--n", "4"], "n", 4),
    (["permutation", "--n", "4"], ["--s", "7.0"], "s", 7.0),
    (["permutation", "--n", "4"], ["--s", "0.5"], "s", 0.5)],
    ids=["bernoulli --n 4", "permutation --s 7.0", "permutation --s 0.5"])
def test_cli_flag_of_the_other_model_exits_2_with_one_error_line(capsys, model, given, unused,
                                                                  value):
    rc = cli.main(["simulate", "--model", *model, *given, "--a", "0.6", "--seed", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == f"error: model kind {model[0]!r} takes no {unused}, got {value!r}\n"
    assert out == ""


@pytest.mark.parametrize("flag, name", [("--a-points", "a_points"), ("--s-points", "s_points")])
def test_fig3_axis_without_memory_exits_2_naming_the_flag(capsys, monkeypatch, flag, name):
    # an axis numpy cannot allocate (here 1000 points, 1002 with its ends) is named like a bad
    # size; no real allocation is tried
    linspace = np.linspace

    def short_of_memory(start, stop, num):
        if num == 1002:
            raise MemoryError("Unable to allocate 7.83 KiB for an array")
        return linspace(start, stop, num)

    monkeypatch.setattr(np, "linspace", short_of_memory)
    rc = cli.main(["fig3", "--a-points", "3", "--s-points", "3", flag, "1000"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == f"error: {name} must be small enough that its axis fits in memory, got 1000\n"
    assert out == ""


@pytest.mark.parametrize("step", ["5e-324", "1e-300"])
def test_fig2_step_too_fine_for_a_grid_exits_2_naming_the_flag(capsys, tmp_path, step):
    # 1/5e-324 overflows to inf, and 1e300 rows exceed what numpy can size; both fail at once,
    # before --out is opened
    out_file = tmp_path / "fig2.csv"
    rc = cli.main(["fig2", "--s-step", step, "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == (f"error: --s-step must be large enough that its S grid fits in memory, "
                   f"got {float(step)!r}\n")
    assert out == ""
    assert not out_file.exists()


def test_fig2_grid_without_memory_exits_2_naming_the_flag(capsys, monkeypatch, tmp_path):
    # --s-step 1e-12 asks for 1e12 rows (8 TB); the allocator fails as it would, and no real
    # allocation is tried
    linspace = np.linspace

    def short_of_memory(start, stop, num):
        if num == 10**12:
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        return linspace(start, stop, num)

    monkeypatch.setattr(np, "linspace", short_of_memory)
    out_file = tmp_path / "fig2.csv"
    rc = cli.main(["fig2", "--s-step", "1e-12", "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == ("error: --s-step must be large enough that its S grid fits in memory, "
                   "got 1e-12\n")
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("argv, err", [
    (["--s-step", "0.3"], "--s-step must divide 1 evenly, got 0.3"),
    (["--s-step", "1e-3", "--curves", "nope"],
     "--curves must be a subset of max,asymptotic,bell,a0.1, got 'nope'")],
    ids=["s-step", "curves"])
def test_fig2_checks_every_flag_before_it_builds_the_grid(capsys, monkeypatch, argv, err):
    # a grid is built only for flags that pass: --s-step 1e-8 --curves nope would otherwise
    # allocate 800 MB before it exits 2
    calls = []
    linspace = np.linspace

    def recorded(*args):
        calls.append(args)
        return linspace(*args)

    monkeypatch.setattr(np, "linspace", recorded)
    rc = cli.main(["fig2", *argv])
    out, got = capsys.readouterr()
    assert (rc, out, got) == (2, "", f"error: {err}\n")
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["state", "--a", "0.6", "--s", "0.5"],
    ["fig2"],
    ["fig3", "--a-points", "3", "--s-points", "3"],
    ["simulate", "--model", "bernoulli", "--s", "0.5", "--a", "0.6", "--trials", "10",
     "--seed", "1"],
    ["bounds", "--eisert", "--n", "2"],
], ids=lambda argv: argv[0])
def test_out_that_cannot_be_opened_exits_2_naming_the_flag(capsys, tmp_path, argv):
    doc = tmp_path / "missing" / "doc"
    rc = cli.main(argv + ["--out", str(doc)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == (f"error: --out must be writable, got {str(doc)!r}: "
                   "No such file or directory\n")
    assert out == ""


def _witness_fields(w):
    return (w.c, *w.sep_diag, w.feasible, w.boundary_degenerate)


# scalar entry point: (call, type of its result or of each element of its tuple) for an x in
# (0, 1); the types and bits of the results must depend on x's value only
SCALAR_RESULTS = {
    "survival_threshold": (survival_threshold, float),
    "survival_threshold_bisect": (survival_threshold_bisect, float),
    "chsh_boundary": (chsh_boundary, float),
    "chsh_boundary_bisect": (chsh_boundary_bisect, float),
    "entanglement_of_formation": (entanglement_of_formation, float),
    "ef_max_asymptotic": (ef_max_asymptotic, float),
    "optimize_prep.s": (lambda x: optimize_prep(x).s, float),
    "optimize_prep.a_star": (lambda x: optimize_prep(x).a_star, float),
    "optimize_prep.c_max": (lambda x: optimize_prep(x).c_max, float),
    "optimize_prep.ef_max": (lambda x: optimize_prep(x).ef_max, float),
    "concurrence_xstate": (lambda x: concurrence_xstate(PrepParams(0.7, x)), float),
    "fidelity": (lambda x: fidelity(PrepParams(0.7, x)), float),
    "lhvt_region": (lambda x: lhvt_region(PrepParams(0.7, x)), bool),   # True at x = 0.36 only
    "lhvt_decompose": (lambda x: _witness_fields(lhvt_decompose(PrepParams(0.7, x))),
                       (float, float, float, float, float, bool, bool)),
    "PrepParams": (lambda x: (PrepParams(x, 0.5).a, PrepParams(0.5, x).s), (float, float)),
    "DeliveryModel": (lambda x: (DeliveryModel("bernoulli", s=x).s,
                                 DeliveryModel("bernoulli", s=x).effective_s), (float, float)),
    "simulate_pair_state.a": (lambda x: simulate_pair_state(BERNOULLI, x, 10, 1).a, float),
}


@pytest.mark.parametrize("entry", SCALAR_RESULTS)
def test_numpy_scalar_input_gives_the_builtin_result(entry):
    # a numpy float of any width gives the call on the builtin float of its value, bit for bit
    call, kinds = SCALAR_RESULTS[entry]
    if not isinstance(kinds, tuple):
        call, kinds = (lambda x, f=call: (f(x),)), (kinds,)
    for x in (0.05, 0.36, 0.6, 0.9):
        for width in (np.float16, np.float32, np.float64, np.longdouble):
            want, got = call(float(width(x))), call(width(x))
            assert len(want) == len(got) == len(kinds), (x, width)
            for kind, w, g in zip(kinds, want, got):
                assert type(w) is kind and type(g) is kind, (x, width, kind, type(w), type(g))
                assert np.float64(g).tobytes() == np.float64(w).tobytes(), (x, width)


def test_numpy_integer_input_gives_the_builtin_int():
    for width in (np.int16, np.int32, np.int64, np.uint64):
        assert type(DeliveryModel("permutation", n=width(7)).n) is int
        report = simulate_pair_state(BERNOULLI, 0.5, width(10), width(1))
        assert type(report.trials) is int and type(report.seed) is int
