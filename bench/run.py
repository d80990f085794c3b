"""Benchmark of entmix: the figure documents, the Monte Carlo and the 4x4 cross-check route.

Usage (from the root of a checkout):

    python3 bench/run.py --workload <scaled|default> --seed <n> --seconds <s> --trace <0|1>

A run repeats rounds of seven operations, each in a fresh process (see
README.md for make-up and sizes):

    fig3, fig2              `entmix fig3` / `entmix fig2` writing --out documents
    bernoulli, permutation  `entmix simulate --self-test`
    general_route, bisection, closed_form
                            one in-process batch of library calls

Every operation's output is checked against the independent reference in
reference.py.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of traced rounds (alternating with untraced ones) with --trace 1.
Details go to stderr; span files and temporary documents go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 5
FIG3_EF_SAMPLES, FIG2_EF_SAMPLES, CLOSED_FORM_EF_SAMPLES = 200, 1000, 200
OPS = ("fig3", "fig2", "bernoulli", "permutation", "general_route", "bisection", "closed_form")
BATCH_OPS = OPS[4:]
ITEMS_PER_INPUT = {"general_route": 1, "bisection": 2, "closed_form": 1}


@dataclass(frozen=True)
class Sizes:
    fig3_points: int            # --a-points = --s-points
    fig2_rows: int              # 1 / --s-step
    bernoulli_trials: int
    permutation_n: int
    permutation_trials: int
    batch: dict                 # inputs per batch of each in-process op


WORKLOADS = {
    # ROADMAP's scaled workloads; batches sized to about 1.5 s each.
    "scaled": Sizes(1000, 10_000, 10_000_000, 256, 50_000,
                    {"general_route": 2500, "bisection": 80, "closed_form": 10_000}),
    # The CLI's default sizes (fig3 200x200, --s-step 0.005, 1e6 trials).
    "default": Sizes(200, 200, 1_000_000, 4, 1_000_000,
                     {"general_route": 1250, "bisection": 40, "closed_form": 5000}),
}


@dataclass
class Op:
    """One operation: its wall and CPU time, items of work and check outcome."""

    name: str
    wall: float
    cpu: float
    items: int
    rss_mb: float
    failed: bool = False
    errors: list = field(default_factory=list)
    timed: float = 0.0          # the worker's timed region (traced accounting)
    bytes_out: int = 0
    spans: str | None = None


@dataclass
class Pass:
    rounds: list = field(default_factory=list)     # lists of Op, one per round
    setups: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    exempt: int = 0

    def ops(self, name=None):
        return [op for r in self.rounds for op in r
                if not op.failed and (name is None or op.name == name)]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENTMIX_THREADS", None)    # the program's default: one thread
    env.pop("PYTHONPATH", None)        # the worker imports entmix from SRC only
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(job: dict, tmp: str):
    """Run one worker process; returns (returncode, wall, rusage, report or None)."""
    job = dict(job, src=SRC, report=os.path.join(tmp, "report.json"))
    with open(os.path.join(tmp, "stderr.txt"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(job)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                                env=_child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if os.path.exists(job["report"]):
        with open(job["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(job["report"])
        report["setup"] = report["ready"] - t0
    if proc.returncode not in (0, 4) or report is None:
        with open(err.name, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(f"worker exit {proc.returncode}: {fh.read()[-2000:]}\n")
    return proc.returncode, wall, usage, report


def cli_op(name: str, size: Sizes, rng: np.random.Generator, doc: str):
    """argv, items of work and output check of one CLI operation."""
    if name == "fig3":
        n = size.fig3_points
        sample = [tuple(c) for c in rng.integers(0, n, (FIG3_EF_SAMPLES, 2)).tolist()]
        argv = ["fig3", "--a-points", str(n), "--s-points", str(n), "--out", doc]
        return argv, n * n, lambda rc: checks.check_fig3(doc, n, n, sample)
    if name == "fig2":
        rows = size.fig2_rows
        sample = rng.choice(rows, min(FIG2_EF_SAMPLES, rows), replace=False).tolist()
        argv = ["fig2", "--s-step", repr(1.0 / rows), "--out", doc]
        return argv, rows, lambda rc: (checks.check_fig2(doc, rows, sample), 0)
    a = round(float(rng.uniform(0.05, 0.95)), 6)
    sim_seed = int(rng.integers(0, 2**31))
    if name == "bernoulli":
        s = round(float(rng.uniform(0.05, 0.95)), 6)
        param, trials, extra = s, size.bernoulli_trials, ["--s", repr(s)]
    else:
        param, trials = size.permutation_n, size.permutation_trials
        extra = ["--n", str(param)]
    argv = ["simulate", "--model", name, *extra, "--a", repr(a), "--trials", str(trials),
            "--seed", str(sim_seed), "--self-test", "--out", doc]
    return argv, 9 * trials, lambda rc: (checks.check_simulate(doc, rc, name, a, param, trials), 0)


def run_op(p: Pass, name: str, workload: str, seed: int, r: int, tmp: str, traced: bool) -> Op:
    """Operation `name` of round r: launch it, time it, check its output."""
    size = WORKLOADS[workload]
    key = [seed, r, OPS.index(name)]
    spans = os.path.join(OUT, "spans", f"{workload}-seed{seed}-round{r}-{name}.csv")
    job = {"spans": spans} if traced else {}
    if name in BATCH_OPS:
        arrays = os.path.join(tmp, "arrays.npz")
        job.update(kind="batch", op=name, key=key, size=size.batch[name], arrays=arrays)
    else:
        doc = os.path.join(tmp, "doc")
        argv, items, check = cli_op(name, size, np.random.default_rng(key), doc)
        job.update(kind="cli", argv=argv)
    rc, wall, usage, report = launch(job, tmp)
    op = Op(name, wall, usage.ru_utime + usage.ru_stime, 0, 0.0)
    if report is None or rc not in ((0, 4) if name in ("bernoulli", "permutation") else (0,)):
        op.failed = True
        return op
    p.setups.append(report["setup"])
    op.rss_mb = report["peak_rss_mb"]
    p.peak_rss_mb = max(p.peak_rss_mb, op.rss_mb)
    op.timed, op.spans = report["timed"], job.get("spans")
    if name in BATCH_OPS:
        op.wall, op.cpu = report["timed"], report["cpu"]
        with np.load(arrays) as z:
            x, y = z["x"], z["y"]
        op.items = len(x) * ITEMS_PER_INPUT[name]
        if name == "general_route":
            op.errors = checks.check_general_route(x, y)
        elif name == "bisection":
            op.errors = checks.check_bisection(x, y)
        else:
            sample = np.random.default_rng(key + [1]).choice(len(x), CLOSED_FORM_EF_SAMPLES,
                                                             replace=False)
            op.errors, exempt = checks.check_closed_form(x, y, sample)
            p.exempt += exempt
    else:
        op.items = items
        op.bytes_out = os.path.getsize(doc)
        op.errors, exempt = check(rc)
        p.exempt += exempt
        os.remove(doc)
    return op


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Set-up probes, then whole rounds of the seven operations until `seconds` have passed.

    With `trace`, untraced and traced rounds alternate, so that both see the
    same phases of a shared machine; round k of either does the same work.
    Returns the untraced pass, and the traced one with `trace`.
    """
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    passes = [Pass(), Pass()] if trace else [Pass()]
    try:
        for _ in range(SETUP_PROBES):
            rc, _, _, report = launch({"kind": "probe"}, tmp)
            if rc == 0 and report is not None:
                passes[0].setups.append(report["setup"])
                passes[0].peak_rss_mb = max(passes[0].peak_rss_mb, report["peak_rss_mb"])
        t_start = time.monotonic()
        while not passes[-1].rounds or time.monotonic() - t_start < seconds:
            traced = trace and len(passes[1].rounds) < len(passes[0].rounds)
            p = passes[1] if traced else passes[0]
            r = len(p.rounds)
            p.rounds.append([run_op(p, name, workload, seed, r, tmp, traced) for name in OPS])
        return passes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _round_sums(p: Pass, attr: str) -> list:
    return [sum(getattr(op, attr) for op in r) for r in p.rounds if not any(op.failed for op in r)]


def end_to_end(p: Pass) -> dict:
    def rate(name):
        return (_median([op.items / op.wall for op in p.ops(name)]), "1/s")

    return {
        "setup_s": (_median(p.setups), "s"),
        "wall_s": (_median(_round_sums(p, "wall")), "s"),
        "cpu_s": (_median(_round_sums(p, "cpu")), "s"),
        "peak_rss_mb": (p.peak_rss_mb, "MB"),
        "fig3_s": (_median([op.wall for op in p.ops("fig3")]), "s"),
        "fig2_s": (_median([op.wall for op in p.ops("fig2")]), "s"),
        "bernoulli_trials_per_s": rate("bernoulli"),
        "permutation_trials_per_s": rate("permutation"),
        "general_states_per_s": rate("general_route"),
        "bisections_per_s": rate("bisection"),
        "closed_form_cells_per_s": rate("closed_form"),
    }


# Per-call timings (median, and p99 from 1000 calls on).
TIMED_CALLS = (
    "entanglement.optimize_prep", "entanglement.concurrence_general", "nonlocality.horodecki_m",
    "nonlocality.correlation_matrix", "mixing.apply_map", "states.validate", "linalg.mat_sqrt_psd",
)
CLI_RSS = {"fig3": "fig3", "fig2": "fig2", "bernoulli": "simulate_bernoulli",
           "permutation": "simulate_permutation"}


class Spans:
    """Spans of a set of traced operations, concatenated."""

    def __init__(self, ops):
        names, start, end, parent, offset = [], [], [], [], 0
        for op in ops:
            n, t0, t1, par = tracing.read_spans(op.spans)
            parent.append(np.where(par >= 0, par + offset, -1))
            names.append(n)
            start.append(t0)
            end.append(t1)
            offset += len(n)

        def cat(v, dtype):
            return np.concatenate(v) if v else np.empty(0, dtype)

        self.names = cat(names, str)
        self.dur = cat(end, float) - cat(start, float)
        self.parent = cat(parent, np.int64)
        self.self_s = tracing.self_times(cat(start, float), cat(end, float), self.parent)
        self.layer = np.array([n.split(".", 1)[0] for n in self.names.tolist()], dtype=str)

    def durations(self, fn: str) -> np.ndarray:
        return self.dur[self.names == fn]

    def calls(self, fn: str) -> int:
        return int((self.names == fn).sum())


def per_layer(plain: Pass, traced: Pass) -> tuple[dict, list]:
    """Per-layer metrics per round of the traced pass, and errors of its self-time accounting."""
    ok = traced.ops()
    sp = Spans(ok)
    n = max(len(_round_sums(traced, "wall")), 1)
    timed = sum(op.timed for op in ok)
    bench_self = timed - sp.dur[sp.parent < 0].sum()

    m = {}
    for name in tracing.LAYERS:
        here = sp.layer == name
        m[f"{name}.self_s"] = (sp.self_s[here].sum() / n, "s")
        m[f"{name}.calls"] = (here.sum() / n, "count")
    m["bench.self_s"] = (bench_self / n, "s")
    m["trace.wall_s"] = (timed / n, "s")
    m["trace.spans"] = (len(sp.names) / n, "count")
    m["trace.overhead_s"] = (_median(_round_sums(traced, "wall")) - _median(_round_sums(plain, "wall")),
                             "s")
    for fn in TIMED_CALLS:
        d = sp.durations(fn) * 1e6
        m[f"{fn}.us_per_call"] = (_median(d.tolist()), "us")
        m[f"{fn}.p99_us"] = (float(np.percentile(d, 99)) if d.size >= 1000 else 0.0, "us")
    m["entanglement.optimize_prep.calls"] = (sp.calls("entanglement.optimize_prep") / n, "count")
    m["linalg.eig_hermitian.calls"] = (sp.calls("linalg.eig_hermitian") / n, "count")
    m["nonlocality.region_scan.s"] = (_median(sp.durations("nonlocality.region_scan").tolist()), "s")
    m["nonlocality.region_scan.cells"] = (sum(op.items for op in traced.ops("fig3")) / n, "count")

    general = Spans(traced.ops("general_route"))
    states = sum(op.items for op in traced.ops("general_route"))
    m["states.validate.calls_per_state"] = (general.calls("states.validate") / max(states, 1),
                                            "count/state")
    bisect = Spans(traced.ops("bisection"))
    m["nonlocality.chsh_boundary_bisect.ms_per_call"] = (
        _median((bisect.durations("nonlocality.chsh_boundary_bisect") * 1e3).tolist()), "ms")
    m["mixing.apply_map.calls_per_bisection"] = (
        bisect.calls("mixing.apply_map") / max(bisect.calls("nonlocality.chsh_boundary_bisect"), 1),
        "count/bisection")
    for model in ("bernoulli", "permutation"):
        sim = Spans(traced.ops(model))
        trials = sum(op.items for op in traced.ops(model))   # settings x trials
        m[f"simulate.{model}.us_per_trial"] = (
            sim.self_s[sim.layer == "simulate"].sum() / max(trials, 1) * 1e6, "us")
    for name, cmd in CLI_RSS.items():
        m[f"cli.{cmd}.peak_rss_mb"] = (max([op.rss_mb for op in plain.ops(name)], default=0.0), "MB")
    m["cli.bytes_out"] = (_median(_round_sums(plain, "bytes_out")), "B")

    errors = []
    accounted = sp.self_s.sum() + bench_self
    if not abs(accounted - timed) <= 1e-6 * timed + 1e-6:
        errors.append(f"trace: layer self times + benchmark time = {accounted!r} s, "
                      f"traced wall = {timed!r} s")
    return m, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that `launch` kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "entmix", "cli.py")):
        print(f"error: no entmix sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    passes = run_passes(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    if args.trace:
        metrics, errors = per_layer(*passes)
    else:
        metrics, errors = end_to_end(passes[0]), []

    ops = [op for p in passes for r in p.rounds for op in r]
    for op in ops:
        status = "FAILED" if op.failed else ("ok" if not op.errors else "WRONG")
        print(f"{op.name}: {status} wall {op.wall:.4f} s cpu {op.cpu:.4f} s items {op.items}",
              file=sys.stderr)
        errors += op.errors
    for e in errors:
        print(f"check: {e}", file=sys.stderr)
    print(f"cells within round-off of a boundary (exempt): {sum(p.exempt for p in passes)}",
          file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
