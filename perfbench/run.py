#!/usr/bin/env python3
"""Cold-process benchmark of the cmcert CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation runs in a fresh interpreter, one at a time, the way users
run `cmcert`: cmdegree, expring and specfun keep caches inside a process, so
warm in-process repeats would time a program nobody runs.  A pass runs every
invocation of the workload once; passes repeat until `--seconds` is used up
and at least MIN_INVOCATIONS invocations ran.  The machine reference kernel
runs in its own process between invocations.  Every invocation's exit
code, verdict and enclosures are checked (perfbench/check.py).

--trace 0 reports the end-to-end metrics, medians over passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
from the traced ones (perfbench/tracer.py); their difference is
`trace.overhead`.  Human-readable lines go first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  A fuller record goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from check import Reference, check  # noqa: E402
from workloads import (  # noqa: E402
    F4_FILE, PREDICTIONS, WORKLOADS, Invocation, invocations)

# A run measures at least this many invocations, however long they take:
# the machine's speed phases change within seconds, so the median of a
# workload with few, long invocations (kernel-scan) needs more passes.
MIN_INVOCATIONS = 8
# Start-up is also sampled by one `cmcert --help` process per pass, so that
# set-up time has a steady median on workloads with few, long invocations.
PROBE = Invocation(["--help"], 0, "help")
INVOCATION_LIMIT_S = 120

# The declared end-to-end metrics.  wall_s, cpu_s and the raw set-up time
# are printed too, but not declared: a shared 2-vCPU VM switches between
# speed phases that differ by about 1.5x and last from seconds to minutes,
# which moves raw seconds by more than any usable bound.  Times divided by
# the reference kernel run next to them move far less (README.md).
END_TO_END = {"wall_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# setup_s is in reference seconds: raw seconds scaled to a machine on which
# refkernel.py takes REF_SECONDS, its fast phase on a 2-vCPU Intel Xeon VM.
REF_SECONDS = 0.15

PER_LAYER = {
    "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "cmdegree.cells": "count", "cmdegree.evals_per_cell": "ratio",
    "cmdegree.evaluate.self_s": "s", "cmdegree.derivative.self_s": "s",
    "cmdegree.margins_per_cell": "ratio",
    "specfun.polygamma.calls": "count", "specfun.polygamma.self_s": "s",
    "specfun.exp.calls": "count", "specfun.exp.self_s": "s",
    "specfun.exp.max_arg": "1", "specfun.bessel.self_s": "s",
    "specfun.ktail.self_s": "s", "specfun.bernoulli.self_s": "s",
    "specfun.width_miss": "count", "expring.eval.width_miss": "count",
    "expring.eval.calls": "count", "expring.eval.self_s": "s",
    "expring.eval.series_share": "ratio", "expring.build.self_s": "s",
    "seriesratio.coeff.calls": "count", "seriesratio.coeff.self_s": "s",
    "seriesratio.coeff.max_bits": "bits", "seriesratio.ladder.self_s": "s",
    "seriesratio.unimodal.probes": "count",
    "seriesratio.unimodal.digits_used": "digits",
    "poly.certify.self_s": "s", "poly.certify.pieces": "count",
    "poly.shift.calls": "count", "poly.shift.self_s": "s",
    "poly.eval_interval.calls": "count",
    "enclosure.ops": "count", "enclosure.self_s": "s",
    "enclosure.round_out.calls": "count", "enclosure.max_bits": "bits",
    "machine.ref_s": "s", "trace.overhead": "ratio",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# -- running processes ----------------------------------------------------


def run_invocation(inv, trace: bool) -> dict:
    """Spawn one cold `cmcert` process through perfbench/child.py."""
    record_path = os.path.join(WORK, "record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path,
           "1" if trace else "0", *inv.args]
    with open(os.path.join(WORK, "stderr.txt"), "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT)
        watchdog = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr_tail = err.read()[-400:].decode(errors="replace")
    record = {}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
    return {"spawned": spawned, "ended": ended, "code": proc.returncode,
            "stdout": out.decode(), "stderr_tail": stderr_tail,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024, "record": record}


def run_pass(invs, trace: bool, refs=None) -> dict:
    """One invocation of each of `invs`, back to back.

    With `refs` (untraced passes), the reference kernel runs after every
    invocation and is appended to `refs`; each invocation's time is divided
    by the mean of the reference runs on either side of it.
    """
    results = []
    for inv in invs:
        r = run_invocation(inv, trace)
        if refs is not None:
            refs.append(run_ref())
            r["ref_s"] = (refs[-2] + refs[-1]) / 2
        results.append(r)
    walls = [r["ended"] - r["spawned"] for r in results]
    return {"trace": trace, "results": results, "wall_s": sum(walls),
            "wall_ref": sum(w / r["ref_s"] for w, r in zip(walls, results))
            if refs is not None else None,
            "cpu_s": sum(r["cpu_s"] for r in results),
            "work_s": sum(r["record"].get("work_s", 0.0) for r in results)}


def run_ref() -> float:
    out = subprocess.run([sys.executable, os.path.join(HERE, "refkernel.py")],
                         capture_output=True, text=True, check=True,
                         cwd=ROOT, timeout=INVOCATION_LIMIT_S)
    return float(out.stdout.split()[0])


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


# -- checking and metrics ---------------------------------------------------


def check_passes(passes, invs, seed: int) -> tuple:
    """(attempted, failed, problems) over every invocation of every pass."""
    ref = Reference()
    attempted = failed = 0
    problems = []
    for p in passes:
        for inv, r in zip(invs, p["results"]):
            attempted += 1
            found = []
            if r["record"].get("error") or not r["record"]:
                found.append(f"crashed: {r['stderr_tail']!r}")
            elif not r["record"]["cli_file"].startswith(SRC + os.sep):
                found.append(f"ran {r['record']['cli_file']}, not {SRC}")
            found += check(inv.kind, inv.params, inv.expect_exit, r["code"],
                           r["stdout"], ref, f"{seed}-{inv.label()}")
            if found:
                failed += 1
                problems.append((inv.label(), found))
    return attempted, failed, problems


def setup_times(passes, probes) -> list:
    """Raw spawn-to-import seconds and the reference time next to each."""
    return [(r["record"]["imported"] - r["spawned"], r["ref_s"])
            for r in [r for p in passes for r in p["results"]] + probes
            if r["record"]]


def end_to_end(passes, probes) -> dict:
    """Medians over the untraced passes; set-up over every invocation and
    probe."""
    return {
        "wall_ref": statistics.median(p["wall_ref"] for p in passes),
        "setup_s": statistics.median(
            raw * REF_SECONDS / ref for raw, ref in setup_times(passes,
                                                                 probes)),
        "peak_rss_mb": max(r["maxrss_mb"] for p in passes
                           for r in p["results"]),
    }


def raw_times(passes, probes) -> dict:
    """The undeclared raw-second metrics, printed for context."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_raw_s": statistics.median(
            raw for raw, _ in setup_times(passes, probes)),
    }


def layer_metrics(traced_pass) -> dict:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    self_ns, calls, counts, maxima = {}, {}, {}, {}
    for r in traced_pass["results"]:
        t = r["record"].get("trace")
        if t is None:  # a crashed invocation, already counted as failed
            continue
        for acc, part in ((self_ns, t["self_ns"]), (calls, t["calls"]),
                          (counts, t["counts"])):
            for key, value in part.items():
                acc[key] = acc.get(key, 0) + value
        for key, value in t["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)

    def self_s(group):
        return self_ns.get(group, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    cells = calls.get("cmdegree.cell", 0)
    evals = calls.get("expring.eval", 0)
    return {
        "cli.self_s": self_s("cli"),
        "cli.stdout_bytes": sum(len(r["stdout"].encode())
                                for r in traced_pass["results"]),
        "cmdegree.cells": cells,
        "cmdegree.evals_per_cell": ratio(
            calls.get("cmdegree.evaluate", 0), cells),
        "cmdegree.evaluate.self_s": self_s("cmdegree.evaluate"),
        "cmdegree.derivative.self_s": self_s("cmdegree.derivative"),
        "cmdegree.margins_per_cell": ratio(
            calls.get("cmdegree.kernel_margin", 0),
            counts.get("cmdegree.kernel_cells", 0)),
        "specfun.polygamma.calls": calls.get("specfun.polygamma", 0),
        "specfun.polygamma.self_s": self_s("specfun.polygamma"),
        "specfun.exp.calls": calls.get("specfun.exp", 0),
        "specfun.exp.self_s": self_s("specfun.exp"),
        "specfun.exp.max_arg": maxima.get("specfun.exp.max_arg", 0),
        "specfun.bessel.self_s": self_s("specfun.bessel"),
        "specfun.ktail.self_s": self_s("specfun.ktail"),
        "specfun.bernoulli.self_s": self_s("specfun.bernoulli"),
        "specfun.width_miss": counts.get("specfun.width_miss", 0),
        "expring.eval.width_miss": counts.get("expring.eval.width_miss", 0),
        "expring.eval.calls": evals,
        "expring.eval.self_s": self_s("expring.eval"),
        "expring.eval.series_share": ratio(
            counts.get("expring.eval.series", 0), evals),
        "expring.build.self_s": self_s("expring.build"),
        "seriesratio.coeff.calls": calls.get("seriesratio.coeff", 0),
        "seriesratio.coeff.self_s": self_s("seriesratio.coeff"),
        "seriesratio.coeff.max_bits": maxima.get(
            "seriesratio.coeff.max_bits", 0),
        "seriesratio.ladder.self_s": self_s("seriesratio.ladder"),
        "seriesratio.unimodal.probes": counts.get(
            "seriesratio.unimodal.probes", 0),
        "seriesratio.unimodal.digits_used": maxima.get(
            "seriesratio.unimodal.digits_used", 0),
        "poly.certify.self_s": self_s("poly.certify"),
        "poly.certify.pieces": counts.get("poly.certify.pieces", 0),
        "poly.shift.calls": calls.get("poly.shift", 0),
        "poly.shift.self_s": self_s("poly.shift"),
        "poly.eval_interval.calls": calls.get("poly.eval_interval", 0),
        "enclosure.ops": calls.get("enclosure.op", 0),
        "enclosure.self_s": self_s("enclosure"),
        "enclosure.round_out.calls": calls.get("enclosure.round_out", 0),
        "enclosure.max_bits": maxima.get("enclosure.max_bits", 0),
        # every group's self time, for the discrimination report
        "_self": {g: ns / 1e9 for g, ns in self_ns.items()},
        "_specfun_calls": sum(v for k, v in calls.items()
                              if k.startswith("specfun.")),
    }


def discrimination(workload: str, layers: dict, work_s: float) -> str:
    """Whether the traced run shows the layer split the workload exists for."""
    top = max(layers["_self"], key=layers["_self"].get)
    if workload == "kernel-scan":
        share = layers["specfun.exp.self_s"] / work_s
        ok = share >= 0.8 and layers["specfun.polygamma.calls"] == 0
        shows = (f"specfun.exp.self_s is {share:.0%} of traced work, "
                 f"polygamma calls {layers['specfun.polygamma.calls']}")
    elif workload == "cm-scan":
        ok = top == "specfun.polygamma" and layers["expring.eval.calls"] == 0
        shows = (f"largest self time {top}, "
                 f"expring.eval.calls {layers['expring.eval.calls']}")
    elif workload == "exact-algebra":
        ok = layers["enclosure.ops"] == 0 and layers["_specfun_calls"] == 0
        shows = (f"enclosure.ops {layers['enclosure.ops']}, "
                 f"specfun calls {layers['_specfun_calls']}")
    else:
        ok = top == "seriesratio.coeff"
        shows = f"largest self time {top}"
    return f"layer split {'holds' if ok else 'DOES NOT hold'}: {shows}"


# -- the run ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cmcert", "cli.py")):
        return fail(f"no cmcert sources under {SRC}")
    sys.path.insert(0, SRC)
    import cmcert
    from cmcert.expring import F4_REFERENCE_COEFFS
    if os.path.dirname(os.path.abspath(cmcert.__file__)) != \
            os.path.join(SRC, "cmcert"):
        return fail(f"cmcert resolves to {cmcert.__file__}, not {SRC}")

    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, F4_FILE), "w") as fh:
        fh.write("".join(f"{c}\n" for c in F4_REFERENCE_COEFFS))
    invs = invocations(args.workload, args.seed, os.path.relpath(WORK, ROOT),
                       [int(c) for c in F4_REFERENCE_COEFFS])
    env = environment()

    # compile bytecode and warm the file cache; not timed
    warm = run_invocation(PROBE, False)
    if warm["code"] != 0 or not warm["record"]:
        return fail(f"cmcert does not start: {warm['stderr_tail']}")

    passes, probes = [], []
    refs = [run_ref()]
    begin = time.monotonic()
    longest = 0.0
    while True:
        round_start = time.monotonic()
        probe = run_invocation(PROBE, False)
        passes.append(run_pass(invs, False, refs))
        # it ran just before the pass's first invocation
        probe["ref_s"] = passes[-1]["results"][0]["ref_s"]
        probes.append(probe)
        if args.trace:
            passes.append(run_pass(invs, True))
        longest = max(longest, time.monotonic() - round_start)
        untraced = [p for p in passes if not p["trace"]]
        done = args.trace or len(untraced) * len(invs) >= MIN_INVOCATIONS
        if done and time.monotonic() - begin + longest > args.seconds:
            break
    measured_s = time.monotonic() - begin

    attempted, failed, problems = check_passes(passes, invs, args.seed)
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    lines = [f"workload {args.workload}, seed {args.seed}, trace "
             f"{args.trace}: {len(untraced)} untraced and {len(traced)} "
             f"traced passes of {len(invs)} invocations in "
             f"{measured_s:.1f} s",
             "environment: " + json.dumps(env)]
    for label, found in problems[:10]:
        lines.append(f"FAILED {label}: {'; '.join(found[:3])}")
    lines.append(f"failed_ratio = {failed}/{attempted} = "
                 f"{failed / attempted:.4f} (invocations failed / attempted)")
    correct = failed == 0

    if args.trace:
        layers = [layer_metrics(p) for p in traced]
        summaries = [r["record"].get("trace", {}) for p in traced
                     for r in p["results"]]
        ok = all(t.get("selfcheck_ok") for t in summaries)
        correct = correct and ok
        gap = max((abs(t["span_sum_ns"] - t["work_ns"])
                  for t in summaries if t), default=0.0) / 1e6
        overhead = statistics.median(t["work_s"] / u["work_s"]
                                     for u, t in zip(untraced, traced))
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in PER_LAYER
                   if name not in ("machine.ref_s", "trace.overhead")}
        metrics["machine.ref_s"] = statistics.median(refs)
        metrics["trace.overhead"] = overhead
        work = statistics.median(p["work_s"] for p in traced)
        lines.append(f"trace self-check: group self times sum to traced "
                     f"work within {gap:.3f} ms: "
                     f"{'ok' if ok else 'FAILED'}")
        lines.append(discrimination(args.workload, layers[0], work))
        lines.append("predicted to move on this workload: " + ", ".join(
            f"{name} -> {target}" for name, target, on in PREDICTIONS
            if args.workload in on or on == ["all"]))
        lines.append("self time by group (s): " + json.dumps(
            {g: round(s, 4) for g, s in sorted(
                layers[0]["_self"].items(), key=lambda kv: -kv[1])}))
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, probes)
        units = END_TO_END
        lines.append(f"machine.ref_s = {statistics.median(refs):.6f} s "
                     f"(median of {len(refs)})")
        for name, value in raw_times(untraced, probes).items():
            lines.append(f"{name} = {value:.6g} s (raw, not declared)")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, environment=env, problems=problems,
                  refs=refs, passes=[{k: p[k] for k in
                                      ("trace", "wall_s", "wall_ref", "cpu_s",
                                       "work_s")}
                                     for p in passes])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
