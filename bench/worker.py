"""One fresh process of a benchmark workload.

Usage: python3 bench/worker.py '<job JSON>'

The job names the checkout's `src` directory, a kind and a report path:

- `probe`: import entmix, report, exit;
- `cli`: run `entmix.cli.main(argv)` in this process, as the `entmix` console
  script does, and exit with its return code;
- `batch`: run one in-process batch of a cross-check op on seeded inputs,
  saving inputs and outputs for the checks.

With `spans` set, entmix is traced (see tracing.py) and the spans are
written there at exit.  The report records when entmix was imported and the
inputs were ready (time.monotonic, comparable across processes), the timed
region, for the parent's setup and self-time accounting, and the peak RSS.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

# Amplitude range of the seeded inputs of the in-process cross-check ops.  Away
# from a = 0 and 1 the CHSH criterion's slope in s (proportional to
# a^2 (1 - a^2)) keeps a bisected boundary well-conditioned.
DOMAIN = {"general_route": (1e-3, 1 - 1e-3), "bisection": (0.02, 0.98), "closed_form": (1e-3, 1 - 1e-3)}


def batch_inputs(op: str, key: list, size: int) -> np.ndarray:
    """Inputs drawn from default_rng(key): (a, s) pairs, or amplitudes for bisection."""
    rng = np.random.default_rng(key)
    lo, hi = DOMAIN[op]
    return rng.uniform(lo, hi, size if op == "bisection" else (size, 2))


def peak_rss_mb() -> float:
    """Peak RSS of this process since exec (VmHWM), in MB.

    wait4's ru_maxrss would also count the parent's pages, which the child
    holds between fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_batch(em, op: str, x: np.ndarray) -> np.ndarray:
    if op == "general_route":
        out = np.empty((len(x), 2))
        for k, (a, s) in enumerate(x.tolist()):
            rho = em.mapped_state(em.PrepParams(a, s))
            out[k] = em.concurrence_general(rho), em.horodecki_m(rho)
    elif op == "bisection":
        out = np.empty((len(x), 2))
        for k, a in enumerate(x.tolist()):
            out[k] = em.chsh_boundary_bisect(a), em.survival_threshold_bisect(a)
    else:
        out = np.empty((len(x), 5))
        for k, (a, s) in enumerate(x.tolist()):
            p = em.PrepParams(a, s)
            opt = em.optimize_prep(s)
            out[k] = em.concurrence_xstate(p), em.lhvt_region(p), opt.a_star, opt.c_max, opt.ef_max
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    src = job["src"]
    sys.path.insert(0, src)
    import entmix
    import entmix.cli

    if not os.path.abspath(entmix.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"entmix imported from {entmix.__file__}, not from {src}")
    tracer = None
    if job.get("spans"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    x = batch_inputs(job["op"], job["key"], job["size"]) if job["kind"] == "batch" else None
    report = {"ready": time.monotonic()}
    rc = 0
    if job["kind"] == "cli":
        t0 = time.perf_counter()
        rc = entmix.cli.main(job["argv"])
        report["timed"] = time.perf_counter() - t0
    elif job["kind"] == "batch":
        t0, c0 = time.perf_counter(), time.process_time()
        y = run_batch(entmix, job["op"], x)
        report["timed"] = time.perf_counter() - t0
        report["cpu"] = time.process_time() - c0
        np.savez(job["arrays"], x=x, y=y)
    report["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.write(job["spans"])
    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
