"""The benchmark's four workloads: which cmcert invocations, from which seed.

Every invocation is a list of CLI arguments plus the exit code and the check
its output must pass.  Seed 0 gives the reference invocations; other seeds
move the grid's lower end and the sequence lengths inside ranges where the
expected verdicts are theorems (README.md gives the ranges and why they
hold).  The lengths move by at most 2 %, so a seed changes the inputs
without changing how much work a run does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "paper": "reproduce-paper: the paper's whole battery, every layer at "
             "<= 25 digits; seriesratio.q_coeff is ~40% and polygamma ~13%",
    "cm-scan": "cm-check at the three theorem pairs plus one certified "
               "violation: polygamma ~60% and Enclosure arithmetic ~25%; "
               "no expring or seriesratio",
    "kernel-scan": "kernel-ineq k=5 and conjecture-scan k=6: few exp "
                   "enclosures at huge arguments via expring.eval_enclosure; "
                   "no polygamma",
    "exact-algebra": "ratio-mono, ladder, certify-poly, shift-chain, "
                     "verify-identity: exact Fraction/int algebra only, no "
                     "Enclosure ops and no specfun calls",
}

# Which per-layer metric should move which end-to-end metric, on which
# workload.  Later changes cite these rows by metric name.
PREDICTIONS = [
    ("cli.self_s", "wall_s", ["exact-algebra", "paper"]),
    ("cli.stdout_bytes", "wall_s", ["exact-algebra", "paper"]),
    ("cmdegree.cells", "wall_s", ["cm-scan"]),
    ("cmdegree.evals_per_cell", "wall_s", ["cm-scan"]),
    ("cmdegree.evaluate.self_s", "wall_s", ["cm-scan"]),
    ("cmdegree.derivative.self_s", "wall_s", ["cm-scan"]),
    ("cmdegree.margins_per_cell", "wall_s", ["kernel-scan"]),
    ("specfun.polygamma.calls", "wall_s", ["cm-scan", "paper"]),
    ("specfun.polygamma.self_s", "wall_s", ["cm-scan", "paper"]),
    ("specfun.exp.calls", "wall_s", ["kernel-scan"]),
    ("specfun.exp.self_s", "wall_s", ["kernel-scan"]),
    ("specfun.exp.max_arg", "wall_s", ["kernel-scan"]),
    ("specfun.bessel.self_s", "wall_s", ["kernel-scan", "paper", "cm-scan"]),
    ("specfun.ktail.self_s", "wall_s", ["kernel-scan", "paper", "cm-scan"]),
    ("specfun.bernoulli.self_s", "wall_s",
     ["kernel-scan", "paper", "cm-scan"]),
    ("specfun.width_miss", "nothing (guard)", ["all"]),
    ("expring.eval.width_miss", "nothing (guard)", ["all"]),
    ("expring.eval.calls", "wall_s", ["kernel-scan"]),
    ("expring.eval.self_s", "wall_s", ["kernel-scan"]),
    ("expring.eval.series_share", "wall_s", ["kernel-scan"]),
    ("expring.build.self_s", "wall_s", ["paper"]),
    ("seriesratio.coeff.calls", "wall_s", ["exact-algebra", "paper"]),
    ("seriesratio.coeff.self_s", "wall_s", ["exact-algebra", "paper"]),
    ("seriesratio.coeff.max_bits", "wall_s", ["exact-algebra", "paper"]),
    ("seriesratio.ladder.self_s", "wall_s", ["exact-algebra"]),
    ("seriesratio.unimodal.probes", "wall_s", ["paper"]),
    ("seriesratio.unimodal.digits_used", "wall_s", ["paper"]),
    ("poly.certify.self_s", "wall_s", ["exact-algebra", "paper"]),
    ("poly.certify.pieces", "wall_s", ["exact-algebra", "paper"]),
    ("poly.shift.calls", "wall_s", ["exact-algebra", "paper"]),
    ("poly.shift.self_s", "wall_s", ["exact-algebra", "paper"]),
    ("poly.eval_interval.calls", "wall_s", ["kernel-scan"]),
    ("enclosure.ops", "wall_s", ["cm-scan"]),
    ("enclosure.self_s", "wall_s", ["cm-scan"]),
    ("enclosure.round_out.calls", "wall_s", ["cm-scan"]),
    ("enclosure.max_bits", "peak_rss_mb, wall_s", ["kernel-scan"]),
    ("machine.ref_s", "context only", ["all"]),
    ("trace.overhead", "context only", ["all"]),
]

DEFAULT_GRID = "geometric:0.01,1000,25"
F4_FILE = "f4.poly"  # written into the work directory from the F4 reference


@dataclass
class Invocation:
    """One cold `cmcert` process: its argv, expected exit and check."""

    args: list
    expect_exit: int
    kind: str                    # which checker reads the output
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        return " ".join(self.args)


def grid_spec(seed: int) -> str:
    """Seed 0 is the CLI default grid; other seeds move lo in [0.008, 0.012].

    hi stays at 1000 and the count at 25: the exp enclosure at the top grid
    point is most of kernel-scan's time and grows faster than u^2, so moving
    hi or the count would change how much work a run does, not just its
    inputs.
    """
    if seed == 0:
        return DEFAULT_GRID
    lo = Fraction(random.Random(f"grid-{seed}").randint(80, 120), 10000)
    return f"geometric:{lo},1000,25"


def _near(seed: int, name: str, base: int, spread: int) -> int:
    if seed == 0:
        return base
    return base + random.Random(f"{name}-{seed}").randint(-spread, spread)


def _grid_args(grid: str, *rest: str) -> list:
    return ["--format", "json", "--grid", grid, *rest]


def invocations(workload: str, seed: int, workdir: str, f4: list) -> list:
    """The invocations of one pass of `workload` at `seed`, in run order.

    `workdir` is relative to the checkout root, where the CLI runs; `f4`
    holds the coefficients written to the F4 file there.
    """
    grid = grid_spec(seed)
    if workload == "paper":
        return [Invocation(["reproduce-paper"], 0, "paper")]
    if workload == "cm-scan":
        runs = [(("1", "1", "4"), 16, 0), (("1/2", "2", "2"), 16, 0),
                (("2", "1", "1"), 16, 0), (("1", "1", "9/2"), 8, 1)]
        return [Invocation(_grid_args(grid, "cm-check", "--alpha", a,
                                      "--beta", b, "--r", r,
                                      "--orders", str(n)),
                           code, "cm-check",
                           {"alpha": a, "beta": b, "r": r, "orders": n})
                for (a, b, r), n, code in runs]
    if workload == "kernel-scan":
        return [Invocation(_grid_args(grid, "kernel-ineq", "--k", "5"), 0,
                           "kernel-ineq", {"k": 5}),
                Invocation(_grid_args(grid, "conjecture-scan", "--k", "6"), 1,
                           "conjecture-scan", {"k": 6})]
    if workload == "exact-algebra":
        f4_path = f"{workdir}/{F4_FILE}"
        c_count = _near(seed, "c-count", 300, 6)
        C_count = _near(seed, "C-count", 200, 4)
        k_max = _near(seed, "k-max", 200, 4)
        json_args = ["--format", "json"]
        return [
            # c_0 = c_1 exactly, so the sequence is not strictly increasing
            Invocation(json_args + ["ratio-mono", "--which", "c", "--beta",
                                    "1", "--count", str(c_count)], 1,
                       "ratio-mono", {"which": "c", "beta": "1",
                                      "count": c_count}),
            Invocation(json_args + ["ratio-mono", "--which", "C", "--beta",
                                    "1/2", "--count", str(C_count)], 0,
                       "ratio-mono", {"which": "C", "beta": "1/2",
                                      "count": C_count}),
            Invocation(json_args + ["ladder", "--k-max", str(k_max)], 0,
                       "ladder", {"k_max": k_max}),
            Invocation(json_args + ["certify-poly", "--file", f4_path,
                                    "--interval", "0,6"], 0,
                       "certify-poly", {"lo": 0, "hi": 6, "coeffs": f4}),
            Invocation(json_args + ["shift-chain", "--file", f4_path,
                                    "--shifts", "6"], 0,
                       "shift-chain", {"shifts": 6, "coeffs": f4}),
            Invocation(json_args + ["verify-identity", "--k", "6",
                                    "--terms", "200"], 0,
                       "verify-identity", {"k": 6, "terms": 200}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(WHY)
