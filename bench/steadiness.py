"""Run the benchmark on a set of seeds per workload and tabulate the spread.

Usage (from the root of a checkout):

    python3 bench/steadiness.py --seeds 1-10 [--workloads fig3,fig2] [--seconds 10]

Runs `bench/run.py --trace 0` once per (workload, seed), one at a time, appends
each result line to bench/out/steadiness.jsonl and prints, per workload and
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median as a Markdown table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    log = open(os.path.join(BENCH, "out", "steadiness.jsonl"), "a", encoding="utf-8")
    print("| workload | metric | median | q1 | q3 | spread | failed/attempted |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        values, failed, attempted, wrong = {}, 0, 0, 0
        for seed in range(first, last + 1):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            log.flush()
            failed += result["failed"]
            attempted += result["attempted"]
            wrong += not result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            note = f"{failed}/{attempted}" + (f", {wrong} runs not correct" if wrong else "")
            print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{(q3 - q1) / med:.4f} | {note} |", flush=True)
    log.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
