#!/usr/bin/env python3
"""Run the committed benchmark over seeds and record its end-to-end metrics.

Usage (from the root of a checkout):

    python3 tools/bench_trajectory.py --out BENCH.json [--baseline DIR]

For every workload and seeds 0-9 this runs `perfbench/run.py --seconds 20
--trace 0` in the checkout, the run length BENCHMARK.json sets, and reads
the JSON object on the last line of its output.  With --baseline DIR
(another checkout, for example the parent commit unpacked with
`git archive`), each seed runs once in both, in an order that alternates
with the seed, so both sides see the same machine phases.  The output
file holds, per workload and side, every run's `wall_ref`, `setup_s` and
`peak_rss_mb` with their medians and quartiles, and for a baseline the
number of seeds on which the checkout is lower.  It exits 1 if any run
reports `correct: false` or a failed invocation.

Every run gets PYTHONDONTWRITEBYTECODE=1, whatever the caller's
environment, and `src/cmcert/__pycache__` is deleted in each checkout
before each run, so every cmcert process compiles `src/` again and no run
reads bytecode that an earlier one, or another tool, left behind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper", "cm-scan", "kernel-scan", "exact-algebra")
METRICS = ("wall_ref", "setup_s", "peak_rss_mb")
SEEDS = range(10)
SECONDS = 20


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One `perfbench/run.py` run; its metric values, `correct` and `failed`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None,
                "error": proc.stderr.strip()[-500:]}
    result = json.loads(lines[-1])
    run = {name: result["metrics"][name]["value"] for name in METRICS}
    run.update(correct=result["correct"], failed=result["failed"])
    return run


def summarise(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over the runs."""
    out = {}
    for name in METRICS:
        values = [r[name] for r in runs if name in r]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "runs": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)

    sides = {"change": ROOT}
    if args.baseline:
        sides["baseline"] = os.path.abspath(args.baseline)
    record = {
        "command": f"PYTHONDONTWRITEBYTECODE=1 perfbench/run.py "
                   f"--seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        runs = {side: [] for side in sides}
        for seed in SEEDS:
            order = list(sides)
            if seed % 2:
                order.reverse()
            for side in order:
                for checkout in sides.values():
                    shutil.rmtree(os.path.join(checkout, "src", "cmcert",
                                               "__pycache__"),
                                  ignore_errors=True)
                run = run_once(sides[side], workload, seed)
                run["seed"] = seed
                runs[side].append(run)
                ok = ok and run["correct"] and run["failed"] == 0
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{name} {run[name]:.4g}" for name in METRICS
                    if name in run), flush=True)
        entry = {side: summarise(r) for side, r in runs.items()}
        entry["correct"] = all(r["correct"] and r["failed"] == 0
                               for side in runs for r in runs[side])
        if "baseline" in runs:
            entry["change_lower_on_seeds"] = {
                name: sum(c[name] < b[name] for c, b in
                          zip(runs["change"], runs["baseline"])
                          if name in c and name in b)
                for name in METRICS}
        record["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
