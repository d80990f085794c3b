"""Command-line front end: every analysis as a subcommand emitting CSV or JSON.

Exit codes: 0 success, 2 parameter validation error, 3 numeric failure,
4 statistical self-test failure.  All output is deterministic given the
flags (plus the seed for ``simulate``); numeric fields carry 12 significant
digits, and a JSON document writes a non-finite float as null.  fig2 and fig3 are set
``_BLOCK_CELLS`` cells (fig2: rows) at a time in the one block of ``csvtext.writer``,
which each document reuses for every block and writes in pieces; each field of a line
(each of fig3's flags a 1-byte one) is followed by the "," or newline set once.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .entanglement import (
    concurrence_raw,
    concurrence_xstate,
    ef_from_concurrence,
    eisert_lower_bound,
    entanglement_of_formation,
    ef_max_asymptotic,
    max_concurrence,
    optimize_prep,
    survival_threshold,
    survival_threshold_bisect,
)
from .mixing import fidelity, mapped_state, xstate_fields
from .nonlocality import (
    _classify,
    _grid_axes,
    chsh_boundary,
    chsh_boundary_bisect,
    horodecki_m,
    lhvt_decompose,
)
from .simulate import SIGMA_THRESHOLD, DeliveryModel, simulate_pair_state
from .states import PrepParams, _real

# cells fig3 classifies and writes, and rows fig2 computes and writes, at once: their
# working memory stays bounded whatever the size of the document
_BLOCK_CELLS = 1 << 13

# fig2's curves in column order: each one's CSV header, and its E_F on a block of S.  Bell
# pairs are the optimum from S = 1/2 on; below it, (S - 1/2) + S/2 is (3S - 1)/2 with one
# rounding, where fl(3S) - 1 loses ~1e-12 relative near S = 1/3.
_FIG2_COLUMNS = {
    "max": ("EF_max_numeric", lambda s: ef_from_concurrence(max_concurrence(s))),
    "asymptotic": ("EF_asymptotic", ef_max_asymptotic),
    "bell": ("EF_bell", lambda s: ef_from_concurrence(
        np.where(s < 0.5, np.clip((s - 0.5) + s / 2.0, 0.0, None), max_concurrence(s)))),
    "a0.1": ("EF_a0.1", lambda s: ef_from_concurrence(np.clip(concurrence_raw(0.1, s), 0.0, None))),
}
_FIG2_CURVES = ",".join(_FIG2_COLUMNS)


def _round12(obj):
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, float):   # strict JSON has no NaN or Infinity: a non-finite float is null
        return float(format(obj, ".12g")) if math.isfinite(obj) else None
    return obj


@contextmanager
def _sink(out: str | None):
    """The document's destination: stdout, or the --out file, open for the with block."""
    if out is None:
        yield sys.stdout
    else:
        try:
            fh = open(out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ValueError(f"--out must be writable, got {out!r}: {exc.strerror}") from None
        with fh:
            yield fh


def _emit_json(command: str, params: dict, out: str | None, payload: dict) -> None:
    """Write one JSON document: version, the run's config echo, then the payload."""
    doc = {"version": __version__, "config": {"command": command, **params}}
    doc.update(payload)
    with _sink(out) as fh:
        fh.write(json.dumps(_round12(doc), indent=2, allow_nan=False) + "\n")


def _cmd_state(args) -> int:
    p = PrepParams(a=args.a, s=args.s)
    rho = mapped_state(p)
    *d, t = xstate_fields(p.a, p.s)
    c = concurrence_xstate(p)
    _emit_json(
        "state",
        {"a": args.a, "s": args.s},
        args.out,
        {
            "matrix": {"real": rho.real.tolist(), "imag": rho.imag.tolist()},
            "xstate": {"d": d, "t": t},
            "concurrence": c,
            "entanglement_of_formation": entanglement_of_formation(c),
            "fidelity": fidelity(p),
            "horodecki_m": horodecki_m(rho),
            "lhvt": vars(lhvt_decompose(p)),
        },
    )
    return 0


def _cmd_fig2(args) -> int:
    from .csvtext import text12, writer   # only here and in fig3, so no other command loads it
    step = _real("--s-step", args.s_step, 0, 1, "()")
    curves = [c.strip() for c in args.curves.split(",") if c.strip()]
    if not curves or not set(curves) <= _FIG2_COLUMNS.keys():
        raise ValueError(f"--curves must be a subset of {_FIG2_CURVES}, got {args.curves!r}")
    columns = [column for c, column in _FIG2_COLUMNS.items() if c in curves]
    try:   # 1/step overflows below 5.6e-309, and numpy sizes no grid past an intp
        n = round(1.0 / step)
        s_grid = np.linspace(step, 1.0, n) if abs(n * step - 1.0) <= 1e-9 else None
    except (OverflowError, ValueError, MemoryError):
        raise ValueError("--s-step must be large enough that its S grid fits in memory, "
                         f"got {args.s_step!r}") from None
    if s_grid is None:
        raise ValueError(f"--s-step must divide 1 evenly, got {args.s_step}")
    with _sink(args.out) as fh:
        fh.write(",".join(["S"] + [header for header, _ in columns]) + "\n")
        block, write = writer(fh, min(n, _BLOCK_CELLS), [24] * (1 + len(columns)))
        for i in range(0, n, _BLOCK_CELLS):   # every curve is elementwise in S
            s_vals = s_grid[i:i + _BLOCK_CELLS]
            # held until the next block's are made, so glibc reuses its heap, not trims it
            fields = [s_vals] + [curve(s_vals) for _, curve in columns]
            lines = block[:len(s_vals)]
            for k, v in enumerate(fields):
                lines[f"f{k}"] = text12(v)
            write(lines)
    return 0


def _cmd_fig3(args) -> int:
    from .csvtext import axis_text, text12, writer
    a_vals, s_vals = _grid_axes(args.a_points, args.s_points)   # validates before --out is opened
    try:
        s_text = axis_text(s_vals, _BLOCK_CELLS)
    except MemoryError:
        raise ValueError("--s-points must be small enough that its column text fits in memory, "
                         f"got {args.s_points!r}") from None
    rows, cols = max(1, _BLOCK_CELLS // len(s_vals)), min(len(s_vals), _BLOCK_CELLS)
    with _sink(args.out) as fh:
        fh.write("a,S,EF,entangled,chsh,lhvt\n")
        block, write = writer(fh, (min(rows, len(a_vals)), cols), (17, 17, 24, 1, 1, 1))
        block["f1"] = s_text[:cols]   # each block's, unless rows are split into blocks of columns
        for i in range(0, len(a_vals), rows):   # a block of rows, or of one row's columns
            a_block = a_vals[i:i + rows]
            for j in range(0, len(s_vals), cols):
                # held until the next block's are made, so glibc reuses its heap, not trims it
                ef, entangled, chsh, lhvt = _classify(a_block[:, None], s_vals[None, j:j + cols])
                cells = block[:len(a_block), :ef.shape[1]]
                if cols < len(s_vals):
                    cells["f1"] = s_text[j:j + cols]
                cells["f0"] = axis_text(a_block, len(a_block))[:, None]
                cells["f2"] = b"0"   # a separable cell's EF, whatever the last block held
                cells["f2"][entangled] = text12(ef[entangled])
                for k, flag in enumerate((entangled, chsh, lhvt), 3):   # b"0" | a bool's byte
                    np.bitwise_or(flag.view(np.uint8), 48, out=cells[f"f{k}"].view(np.uint8))
                write(cells)
    return 0


def _cmd_simulate(args) -> int:
    model = DeliveryModel(kind=args.model, s=args.s, n=args.n)
    given = "s" if model.kind == "bernoulli" else "n"
    params = {"model": model.kind, given: getattr(model, given), "a": args.a,
              "trials": args.trials, "seed": args.seed, "self_test": args.self_test}
    report = simulate_pair_state(model, a=args.a, trials=args.trials, seed=args.seed)
    _emit_json("simulate", params, args.out, {"report": report.to_dict(),
                                               "sigma_threshold": SIGMA_THRESHOLD})
    if args.self_test and not report.max_sigma <= SIGMA_THRESHOLD:
        k, o = np.unravel_index(np.argmax(report.sigma), report.sigma.shape)
        print(
            f"self-test failed: max_sigma = {report.max_sigma:.3f} > {SIGMA_THRESHOLD}"
            f" at setting {report.basis_settings[k]}, outcome {report.outcome_labels[o]}",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_bounds(args) -> int:
    if not (args.survival or args.chsh or args.eisert):
        raise ValueError("request at least one of --survival, --chsh, --eisert")
    if (args.survival or args.chsh) and args.a is None:
        raise ValueError("--survival/--chsh require --a")
    if args.eisert and args.n is None:
        raise ValueError("--eisert requires --n")
    params = {}
    payload = {}
    for name, wanted, analytic_fn, bisect_fn in (
        ("survival", args.survival, survival_threshold, survival_threshold_bisect),
        ("chsh", args.chsh, chsh_boundary, chsh_boundary_bisect),
    ):
        if wanted:
            params["a"] = args.a
            analytic = analytic_fn(args.a)
            payload[name] = {
                "a": args.a,
                "threshold": analytic,
                "method": "analytic",
                "bisection_delta": abs(analytic - bisect_fn(args.a)),
            }
    if args.eisert:
        params["n"] = args.n
        lower_bound = eisert_lower_bound(args.n)   # rejects n < 2 before 1/n is formed
        payload["eisert"] = {
            "n": args.n,
            "s": 1.0 / args.n,
            "ef_max": optimize_prep(1.0 / args.n).ef_max,
            "lower_bound": lower_bound,
        }
    _emit_json("bounds", params, args.out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmix",
        description="Entanglement delivered through an unreliable pairing channel: "
        "states, optima, nonlocality regions and Monte Carlo checks.",
    )
    parser.add_argument("--version", action="version", version=f"entmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="mapped state and all derived quantities")
    p_state.add_argument("--a", type=float, required=True, help="preparation amplitude")
    p_state.add_argument("--s", type=float, required=True, help="delivery success probability")
    p_state.add_argument("--out", default=None, help="output file (default: stdout)")
    p_state.set_defaults(func=_cmd_state)

    p_fig2 = sub.add_parser("fig2", help="E_F-vs-S curve data (CSV)")
    p_fig2.add_argument("--s-step", type=float, default=0.005, dest="s_step")
    p_fig2.add_argument("--curves", default=_FIG2_CURVES, help=f"comma list from: {_FIG2_CURVES}")
    p_fig2.add_argument("--out", default=None)
    p_fig2.set_defaults(func=_cmd_fig2)

    p_fig3 = sub.add_parser("fig3", help="(a, S) region classification data (CSV)")
    p_fig3.add_argument("--a-points", type=int, default=200, dest="a_points")
    p_fig3.add_argument("--s-points", type=int, default=200, dest="s_points")
    p_fig3.add_argument("--out", default=None)
    p_fig3.set_defaults(func=_cmd_fig3)

    p_sim = sub.add_parser("simulate", help="Monte Carlo delivery run vs prediction (JSON)")
    p_sim.add_argument("--model", choices=("bernoulli", "permutation"), required=True)
    p_sim.add_argument("--s", type=float, default=None, help="bernoulli success probability")
    p_sim.add_argument("--n", type=int, default=None, help="permutation customer pairs")
    p_sim.add_argument("--a", type=float, required=True)
    p_sim.add_argument("--trials", type=int, default=1_000_000)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--self-test", action="store_true", dest="self_test",
                       help=f"exit 4 if any cell deviates by more than {SIGMA_THRESHOLD} sigma")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="survival / CHSH thresholds, n E_F(1/n) (JSON)")
    p_bounds.add_argument("--survival", action="store_true")
    p_bounds.add_argument("--chsh", action="store_true")
    p_bounds.add_argument("--eisert", action="store_true")
    p_bounds.add_argument("--a", type=float, default=None)
    p_bounds.add_argument("--n", type=int, default=None)
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:   # LinAlgError is a ValueError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
