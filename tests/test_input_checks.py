"""Every checked input of the package: the bad values each entry point must reject with a
ValueError naming the parameter, its range and the value, and the edges it must accept."""

import argparse
import math

import numpy as np
import pytest

import entmix.cli as cli
from entmix.entanglement import (
    eisert_lower_bound,
    optimize_prep,
    survival_threshold,
    survival_threshold_bisect,
)
from entmix.mixing import apply_map
from entmix.nonlocality import chsh_boundary, chsh_boundary_bisect, region_scan
from entmix.simulate import DeliveryModel, permutation_effective_s, simulate_pair_state
from entmix.states import PrepParams, bell_state, psi_a

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
