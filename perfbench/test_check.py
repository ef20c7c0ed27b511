"""Tests of the benchmark's own checker, tracer and definition.

Run with `python3 -m pytest perfbench`.  No cmcert process is started: the
checker is fed outputs built here from mpmath values, once correct and
once with a wrong verdict or a shifted enclosure, which must both count as
failures.
"""

import json
import os
import sys
from fractions import Fraction

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GRID = [Fraction(1, 100), Fraction(3, 2)]
HALF_WIDTH = Fraction(1, 10 ** 42)


def _around(value: Fraction) -> list:
    return [str(value - HALF_WIDTH), str(value + HALF_WIDTH)]


def _reference(fn) -> Fraction:
    with mpmath.workdps(120):
        return check.to_fraction(+fn())


def kernel_output() -> dict:
    """A correct `kernel-ineq --k 5 --format json` output on GRID."""
    cells = []
    for u in GRID:
        lo, hi = _around(_reference(check.Reference.kernel_margin(5, u)))
        cells.append({"u": str(u), "lo": lo, "hi": hi, "verdict": "pass"})
    k4 = _around(_reference(check.Reference.k_tail(4, Fraction(7))))
    return {"k": 5, "passed": True, "cells": cells,
            "ray": {"from": "7", "K4_at_7": k4, "threshold": "1/720",
                    "certified": True}}


def run_check(doc, exit_code=0):
    return check.check("kernel-ineq", {"k": 5, "count": len(GRID)}, 0,
                       exit_code, json.dumps(doc), check.Reference(), "t")


def test_correct_output_has_no_problems():
    assert run_check(kernel_output()) == []


def test_wrong_verdict_is_a_failure():
    doc = kernel_output()
    doc["cells"][1]["verdict"] = "fail"
    assert run_check(doc)
    assert run_check(kernel_output(), exit_code=1)


def test_shifted_enclosure_is_a_failure():
    doc = kernel_output()
    cell = doc["cells"][0]
    shift = 10 * (Fraction(cell["hi"]) - Fraction(cell["lo"]))
    cell["lo"] = str(Fraction(cell["lo"]) + shift)
    cell["hi"] = str(Fraction(cell["hi"]) + shift)
    problems = run_check(doc)
    assert any("excludes the reference" in p for p in problems)


def test_wide_enclosure_is_a_failure():
    doc = kernel_output()
    lo, hi = (Fraction(s) for s in doc["ray"]["K4_at_7"])
    doc["ray"]["K4_at_7"] = [str(lo - Fraction(1, 10 ** 30)), str(hi)]
    assert any("width" in p for p in run_check(doc))


def test_failed_paper_check_is_a_failure():
    lines = [f"[pass] check {i}" for i in range(10)]
    lines += ["[FAIL] unimodal maximum exceeds 1: max in [1.741784, "
              "1.741795]", "summary: some checks FAILED"]
    problems = check.check("paper", {}, 0, 0, "\n".join(lines),
                           check.Reference(), "t")
    assert problems


def test_shift_chain_reference():
    coeffs = [Fraction(c) for c in (3, -2, 0, 1)]
    # p(x + 2) = x^3 + 6x^2 + 10x + 7
    assert check._shift(coeffs, 2) == [7, 10, 6, 1]


def test_tracer_self_times_partition_the_root():
    t = tracer.Tracer()

    def leaf(n):
        return sum(range(n))

    wrapped_leaf = t.wrap("specfun.exp", leaf)

    def middle(n):
        return wrapped_leaf(n) + wrapped_leaf(n)

    wrapped_middle = t.wrap("expring.eval", middle)
    t.run_root(lambda: [wrapped_middle(20000) for _ in range(3)])
    root = t.spans[0]
    summary = t.summary(root[2] - root[1])
    assert summary["selfcheck_ok"]
    assert summary["calls"] == {"cli.main": 1, "expring.eval": 3,
                                "specfun.exp": 6}
    assert set(summary["self_ns"]) == {"cli", "expring.eval", "specfun.exp"}


def test_definition_matches_the_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert [name for name, _, _ in workloads.PREDICTIONS] == \
        list(run.PER_LAYER)
