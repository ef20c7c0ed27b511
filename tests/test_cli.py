import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import cmcert
from cmcert import (cli, cli_cmdegree, cli_poly, cmdegree, expring, poly,
                    seriesratio, specfun)
from cmcert.cli import main
from cmcert.enclosure import Enclosure
from cmcert.poly import Polynomial


def invoke(*args):
    """Run main(args) in this process; its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(),
                           stderr=err.getvalue())


def write_poly(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_help_exits_zero():
    result = invoke("--help")
    assert result.exit_code == 0
    assert "certify-poly" in result.stdout


def test_unknown_command_is_usage_error():
    result = invoke("no-such-command")
    assert result.exit_code == 64


def test_missing_required_option_is_usage_error():
    result = invoke("bessel")
    assert result.exit_code == 64


COMMAND_NAMES = ["certify-poly", "shift-chain", "lemma1-bounds", "bessel",
                 "polygamma", "ktail", "kernel-ineq", "ratio-mono", "ladder",
                 "unimodal-max", "cm-check", "p-limit", "verify-identity",
                 "conjecture-scan", "reproduce-paper"]
PARSE_ERRORS = {
    "unknown command": ["no-such-command"],
    "missing required option": ["bessel", "--k", "1"],
    "non-integer value": ["bessel", "--k", "x", "--u", "1"],
    "unknown option": ["bessel", "--k", "1", "--u", "1", "--v", "2"],
    "abbreviated option": ["--prec", "30", "ladder"],
    "global option after the command": ["ladder", "--precision", "30"],
    "trailing option with no value": ["bessel", "--k", "1", "--u"],
    "missing file": ["certify-poly", "--file", "{missing}",
                     "--interval", "0,1"],
    "directory as file": ["shift-chain", "--file", "{directory}"],
}


def test_parse_errors_are_one_usage_error_line(tmp_path):
    paths = {"missing": str(tmp_path / "missing.poly"),
             "directory": str(tmp_path)}
    for case, args in PARSE_ERRORS.items():
        result = invoke(*(a.format(**paths) for a in args))
        assert (result.exit_code, result.stdout) == (64, ""), case
        assert result.stderr.startswith("error: "), (case, result.stderr)
        assert result.stderr.count("\n") == 1, (case, result.stderr)
    for args in (["--help"], ["bessel", "--help"]):
        result = invoke(*args)
        assert (result.exit_code, result.stderr) == (0, ""), args
    listed = [line.split()[0] for line in invoke("--help").stdout.splitlines()
              if line.startswith("  ") and line.split()]
    assert [name for name in COMMAND_NAMES if name not in listed] == []


# -- the option grammar -----------------------------------------------------
# Every option but --help takes one value, as "--flag value" or
# "--flag=value"; the value may start with "-" or "--"; the last of a
# repeated option wins; global options come before the command.

BESSEL_ARGS = ["bessel", "--k", "3", "--u", "7/2"]


def usage_error(result):
    return (result.exit_code, result.stdout, result.stderr.count("\n"),
            result.stderr[:7]) == (64, "", 1, "error: ")


def test_flag_equals_value_is_flag_then_value():
    spaced = invoke("--precision", "20", "--format", "json", *BESSEL_ARGS)
    joined = invoke("--precision=20", "--format=json", "bessel", "--k=3",
                    "--u=7/2")
    assert spaced.exit_code == 0
    assert joined == spaced
    # only the first "=" splits: the rest belongs to the value
    assert invoke("--grid=linear:1,2,2", "kernel-ineq", "--k=2") == \
        invoke("--grid", "linear:1,2,2", "kernel-ineq", "--k", "2")


def joined(args) -> list:
    """args with each "--flag value" pair written as "--flag=value"."""
    out, words = [], iter(args)
    for word in words:
        out.append(f"{word}={next(words)}" if word[:2] == "--" else word)
    return out


@pytest.mark.parametrize("args", [
    ["ratio-mono", "--which", "c", "--beta", "-1/2", "--count", "3"],
    ["certify-poly", "--file", "{poly}", "--interval", "-1,1"],
    ["--precision", "15", "--grid", "linear:1/2,4,3", "cm-check",
     "--alpha", "1", "--beta", "1", "--r", "-1/2", "--orders", "2"],
])
def test_values_may_start_with_a_dash(tmp_path, args):
    poly_file = write_poly(tmp_path, "p.poly", ["1", "0", "1"])
    args = [a.replace("{poly}", poly_file) for a in args]
    spaced = invoke(*args)
    assert spaced.stderr == "" and spaced.exit_code in (0, 1)
    assert invoke(*joined(args)) == spaced


def test_values_may_start_with_two_dashes():
    # each word after an option is its value, even one that looks like an
    # option: --help, an option of the command, or a global option
    result = invoke("p-limit", "--t", "--help")
    assert usage_error(result)
    assert result.stderr == "error: bad rational '--help'\n"
    result = invoke("bessel", "--k", "1", "--u", "--k")
    assert result.stderr == "error: bad rational '--k'\n"
    result = invoke("--format", "--json", *BESSEL_ARGS)
    assert (result.exit_code, result.stderr) == \
        (65, "config error: unknown format '--json'\n")
    result = invoke("--config=--precision", *BESSEL_ARGS)
    assert result.exit_code == 65


def test_repeated_option_keeps_its_last_value():
    assert invoke("ladder", "--k-max", "7", "--k-max", "6") == \
        invoke("ladder", "--k-max", "6")
    assert invoke("--precision", "12", "--precision", "20", *BESSEL_ARGS) == \
        invoke("--precision", "20", *BESSEL_ARGS)
    assert invoke("--precision=12", "--precision", "20", *BESSEL_ARGS) == \
        invoke("--precision", "20", *BESSEL_ARGS)
    # an earlier bad value is still an error
    assert usage_error(invoke("ladder", "--k-max", "x", "--k-max", "6"))


@pytest.mark.parametrize("args", [
    ["-h"], ["-"], ["-help"], ["ladder", "-h"], ["ladder", "-k-max", "6"],
    ["bessel", "-k", "1", "--u", "1"], ["--precision", "20", "-h", "ladder"],
    ["ladder", "--k-max", "6", "extra"], ["ladder", "--"], ["--", "ladder"],
    ["--help=1"], ["ladder", "--help=1"], ["--k-max", "6", "ladder"],
])
def test_single_dash_and_stray_words_are_usage_errors(args):
    assert usage_error(invoke(*args))


@pytest.mark.parametrize("args", [[], ["--precision", "20"],
                                  ["--format=json", "--grid", "linear:1,2,2"]])
def test_no_command_is_usage_error(args):
    result = invoke(*args)
    assert usage_error(result)
    assert result.stderr == "error: no command given\n"


@pytest.mark.parametrize("args, listed", [
    (["--precision", "20", "--help"], "commands:"),
    (["--format=json", "--help", "no-such-command"], "commands:"),
    (["bessel", "--k", "1", "--help"], "--u U"),
    (["ladder", "--k-max=900", "--help"], "--k-max K_MAX"),
])
def test_help_after_other_options_prints_help(args, listed):
    result = invoke(*args)
    assert (result.exit_code, result.stderr) == (0, "")
    assert any(line.strip().startswith(listed)
               for line in result.stdout.splitlines())


def test_command_list_matches_the_registered_commands():
    assert list(cli._COMMANDS) == COMMAND_NAMES


@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_command_help_lists_every_option(name):
    result = invoke(name, "--help")
    assert (result.exit_code, result.stderr) == (0, "")
    flags = [line.split()[0] for line in result.stdout.splitlines()
             if line.startswith("  --")]
    spec = cli._COMMANDS[name].options
    assert flags == ["--help"] + ["--" + dest.replace("_", "-")
                                  for dest in spec]
    assert result.stdout.startswith(f"usage: cmcert {name} ")


def test_root_help_lists_global_options_and_commands():
    result = invoke("--help")
    lines = result.stdout.splitlines()
    assert lines[0].startswith("usage: cmcert ")
    listed = [line.split()[0] for line in lines if line.startswith("  ")]
    assert listed == COMMAND_NAMES + ["--help", "--config", "--precision",
                                      "--format", "--grid"]


def test_interrupt_exits_64(monkeypatch):
    def interrupted(k_max):
        raise KeyboardInterrupt

    monkeypatch.setattr(seriesratio, "ladder_check", interrupted)
    result = invoke("ladder")
    assert (result.exit_code, result.stdout) == (64, "")


def test_bad_rational_is_usage_error():
    result = invoke("bessel", "--k", "1", "--u", "abc")
    assert result.exit_code == 64


def test_bad_format_is_config_error():
    result = invoke("--format", "xml", "bessel", "--k", "1",
                    "--u", "1")
    assert result.exit_code == 65


def test_low_precision_is_config_error():
    result = invoke("--precision", "2", "ladder", "--k-max", "6")
    assert result.exit_code == 65


def test_config_file_parse_error(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("precision 40\n")
    result = invoke("--config", str(cfgfile), "ladder",
                    "--k-max", "6")
    assert result.exit_code == 65


def test_config_file_applies_and_flag_overrides(tmp_path):
    cfgfile = tmp_path / "ok.cfg"
    cfgfile.write_text("# comment\nprecision = 20\nformat = json\n")
    result = invoke("--config", str(cfgfile), "bessel", "--k", "1",
                    "--u", "1")
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert "lo" in doc and "hi" in doc

    result = invoke("--config", str(cfgfile), "--format", "text",
                    "bessel", "--k", "1", "--u", "1")
    assert result.exit_code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(result.stdout)


def test_retired_config_keys_change_nothing(tmp_path):
    base = "precision = 20\nformat = json\n"
    plain = tmp_path / "plain.cfg"
    plain.write_text(base)
    retired = tmp_path / "retired.cfg"
    retired.write_text(base + "term-cap = 1\nparallelism = 4\n")
    args = ["bessel", "--k", "3", "--u", "7/2"]
    expected = invoke("--config", str(plain), *args)
    result = invoke("--config", str(retired), *args)
    assert expected.exit_code == result.exit_code == 0
    assert result.stdout == expected.stdout


def test_certify_poly_pass_and_fail(tmp_path):
    good = write_poly(tmp_path, "good.poly",
                      ["101  # constant", "-20", "1"])
    result = invoke("certify-poly", "--file", good,
                    "--interval", "0,6")
    assert result.exit_code == 0

    bad = write_poly(tmp_path, "bad.poly", ["-2", "0", "1"])
    result = invoke("certify-poly", "--file", bad,
                    "--interval", "0,6")
    assert result.exit_code == 1
    assert "witness" in result.stdout


def test_certify_poly_decides_the_closed_interval(tmp_path):
    # p = x is positive on the open (0, 1) but 0 at the end x = 0, which is
    # a witness on the closed [0, 1] that help names
    p = write_poly(tmp_path, "x.poly", ["0", "1"])
    result = invoke("certify-poly", "--file", p, "--interval", "0,1")
    assert result.exit_code == 1
    assert result.stdout == ("verdict: falsified\n"
                             "  shift 0: min_bk 0 (argmin 0), max_bk 1\n"
                             "  witness: 0 -> 0\n")
    assert "closed interval [lo, hi]" in invoke("certify-poly", "--help").stdout


def test_certify_poly_bad_coefficient(tmp_path):
    p = write_poly(tmp_path, "junk.poly", ["1", "oops"])
    result = invoke("certify-poly", "--file", p, "--interval", "0,1")
    assert result.exit_code == 64


def test_shift_chain_output(tmp_path):
    p = write_poly(tmp_path, "p.poly", ["1", "1"])  # 1 + x
    result = invoke("shift-chain", "--file", p, "--shifts", "2")
    assert result.exit_code == 0
    assert "3" in result.stdout  # (x + 2) + 1 has constant 3


def test_kernel_ineq_csv():
    result = invoke("--format", "csv",
                    "--grid", "geometric:0.5,5,6", "kernel-ineq", "--k", "2")
    assert result.exit_code == 0
    lines = [l for l in result.stdout.splitlines() if l]
    assert lines[0].startswith("u,")
    assert all(line.endswith("pass") for line in lines[1:])


def test_ratio_mono_and_ladder():
    result = invoke("ratio-mono", "--which", "C", "--beta", "1/2",
                    "--count", "10")
    assert result.exit_code == 0
    result = invoke("ladder", "--k-max", "8")
    assert result.exit_code == 0


def test_cm_check_json():
    result = invoke("--format", "json", "--precision", "20",
                    "--grid", "geometric:0.5,10,4",
                    "cm-check", "--alpha", "1", "--beta", "1", "--r", "4",
                    "--orders", "3")
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["summary"] == "pass"


def test_cm_check_failure_exit_code():
    # alpha*beta < 1: the gap is not completely monotonic of any degree and
    # low orders already show a sign violation at r = 1
    result = invoke("--precision", "20",
                    "--grid", "geometric:0.5,10,4",
                    "cm-check", "--alpha", "1/4", "--beta", "1", "--r", "0",
                    "--orders", "2")
    assert result.exit_code == 1


def test_verify_identity_and_p_limit():
    result = invoke("verify-identity", "--k", "2", "--terms", "20")
    assert result.exit_code == 0
    result = invoke("p-limit", "--t", "1,10,1000")
    assert result.exit_code == 0


def test_p_limit_beyond_float_range():
    # 10^310 overflows a float; the working precision is set with integers
    result = invoke("--format", "json", "p-limit", "--t",
                    str(10 ** 310))
    assert result.exit_code == 0, result.stdout
    (row,) = json.loads(result.stdout)
    lo, hi = Fraction(row["lo"]), Fraction(row["hi"])
    assert lo <= 4 <= hi and hi - lo <= Fraction(1, 10 ** 30)


def test_reproduce_paper_passes_every_check():
    result = invoke("reproduce-paper")
    assert result.exit_code == 0, result.stdout
    lines = result.stdout.splitlines()
    assert sum(line.startswith("[pass] ") for line in lines) == 11
    assert lines[-1] == "summary: all checks passed"


def test_limit_battery_reads_endpoints_not_midpoints(monkeypatch):
    # an enclosure of f_1 at u = 10^-6 centred on 1 but 1/50 wide certifies
    # nothing about the limit 1 to within 10^-4
    f_beta = seriesratio.f_beta
    near_zero = Fraction(1, 10 ** 6)

    def planted(u, beta, digits):
        if u == near_zero:
            return Enclosure(Fraction(99, 100), Fraction(101, 100))
        return f_beta(u, beta, digits)

    monkeypatch.setattr(seriesratio, "f_beta", planted)
    result = invoke("reproduce-paper")
    assert result.exit_code == 1
    assert "[FAIL] limit battery" in result.stdout.splitlines()
    assert result.stdout.splitlines()[-1] == "summary: some checks FAILED"


def test_failed_algebra_checks_are_reported(monkeypatch):
    # F1(0) = 1 leaves F1'' and the rest of the chain as they are; a doubled
    # lower sandwich numerator moves the reduction off the reference
    build_f1, bounds = expring.build_f1, poly.lemma1_exp_bounds

    def planted_bounds(m, n):
        (lnum, lden), upper, limit = bounds(m, n)
        return (lnum.scale(2), lden), upper, limit

    monkeypatch.setattr(expring, "build_f1", lambda: expring._table(
        [*build_f1().items(), ((0, 0), 1)]))
    monkeypatch.setattr(poly, "lemma1_exp_bounds", planted_bounds)
    result = invoke("reproduce-paper")
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert "[FAIL] derivative chain origin zeros" in lines
    assert "[FAIL] two-sided bound reconstruction" in lines
    assert sum(line.startswith("[pass] ") for line in lines) == 9
    assert lines[-1] == "summary: some checks FAILED"


def test_flat_ratio_step_fails_the_battery(monkeypatch):
    # c_0(1) = c_1(1) is the one flat step of the ratio sequence; a flat step
    # later on, c_6(1) = c_5(1), must fail the strict monotonicity check.
    # c_ratio_sequence reads every c_k from _ratio_terms, so the plant
    # repeats its k = 5 term at k = 6 for beta = 1
    ratio_terms = seriesratio._ratio_terms

    def planted(beta, derivative):
        for k, term in enumerate(ratio_terms(beta, derivative)):
            yield last if (k, beta, derivative) == (6, 1, False) else term
            last = term

    monkeypatch.setattr(seriesratio, "_ratio_terms", planted)
    result = invoke("reproduce-paper")
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert "[FAIL] ratio monotonicity" in lines
    assert lines[-1] == "summary: some checks FAILED"


def test_indivisible_derivative_chain_fails_the_battery(monkeypatch):
    # + u^2 gives F1'' an e^0 term, so F1'' is not divisible by e^u
    build_f1 = expring.build_f1
    monkeypatch.setattr(expring, "build_f1", lambda: expring._table(
        [*build_f1().items(), ((0, 2), 1)]))
    result = invoke("reproduce-paper")
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert "[FAIL] derivative chain origin zeros" in lines
    assert sum(line.startswith("[pass] ") for line in lines) == 10
    assert lines[-1] == "summary: some checks FAILED"


def test_unresolved_maximum_is_inconclusive(monkeypatch):
    # probe values that always overlap leave the maximizer unresolved at the
    # precision cap
    monkeypatch.setattr(seriesratio, "f_beta",
                        lambda u, beta, digits: Enclosure(0, 1))
    result = invoke("unimodal-max", "--function", "F",
                    "--beta", "1/2")
    assert result.exit_code == 2
    assert "resolved: False" in result.stdout.splitlines()


PASS, FAIL, OPEN = Enclosure(1, 2), Enclosure(-2, -1), Enclosure(-1, 1)


@pytest.mark.parametrize("margins, k4, code", [
    ((PASS, PASS), Enclosure(0, Fraction(1, 1000)), 0),
    ((PASS, OPEN), Enclosure(0, Fraction(1, 1000)), 2),
    ((PASS, PASS), Enclosure(0, 1), 2),
    # a certified failing cell outranks the uncertified ray
    ((FAIL, PASS), Enclosure(0, 1), 1),
], ids=["pass", "open-cell", "open-ray", "fail-cell-open-ray"])
def test_kernel_ineq_exits_with_the_worst_verdict(monkeypatch, margins, k4,
                                                   code):
    # planted margins at u = 1, 2 (OPEN meets 0 at every precision) and a
    # planted K_4(7), certified below 1/720 or not
    planted = dict(zip([1, 2], margins))
    monkeypatch.setattr(cmdegree, "kernel_margin",
                        lambda k, u, digits: planted[u])
    monkeypatch.setattr(specfun, "k_tail", lambda ell, a, digits: k4)
    result = invoke("--grid", "linear:1,2,2", "kernel-ineq", "--k", "5")
    assert result.exit_code == code
    lines = result.stdout.splitlines()
    assert lines[0].endswith({PASS: "pass", FAIL: "fail",
                              OPEN: "indeterminate"}[margins[0]])
    assert lines[-1].endswith(f"< 1/720: {k4.hi < Fraction(1, 720)}")


def test_certify_poly_falsified_after_an_inconclusive_piece(tmp_path):
    # (x^2 - 2)^2 (5/2 - x): on [1, 2] its double root sqrt(2) leaves the
    # piece inconclusive, and on [2, 3] x = 5/2 is a witness; no piece after
    # the witness is tried
    p = write_poly(tmp_path, "p.poly", ["10", "-4", "-10", "4", "5/2", "-1"])
    alone = invoke("certify-poly", "--file", p, "--interval", "1,2")
    assert alone.exit_code == 2
    assert alone.stdout.startswith("verdict: inconclusive\n")
    result = invoke("certify-poly", "--file", p, "--interval", "1,4")
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert lines[0] == "verdict: falsified"
    assert lines[-2:] == ["  shift 2: min_bk -49/2 (argmin 5), max_bk 3",
                          "  witness: 5/2 -> 0"]
    assert alone.stdout.splitlines()[1:] == lines[1:-2]


def test_bad_grid_spec_is_usage_error():
    result = invoke("--grid", "fancy:1,2,3", "kernel-ineq",
                    "--k", "1")
    assert result.exit_code == 64


@pytest.mark.parametrize("command", [
    ["cm-check", "--alpha", "1/4", "--beta", "1", "--r", "0", "--orders", "2"],
    ["kernel-ineq", "--k", "2"],
])
def test_empty_grid_is_usage_error(command):
    # a grid with no points used to print pass over zero cells and exit 0
    result = invoke("--grid", "linear:1,2,0", *command)
    assert result.exit_code == 64
    assert result.stdout == ""
    assert "count" in result.stderr


@pytest.mark.parametrize("grid", ["geometric:1e-300,1e300,3",
                                  f"geometric:1,2,{10 ** 399}"])
def test_geometric_grid_past_the_float_range_is_usage_error(grid):
    # the points are float powers of hi/lo; these failed in the float
    # arithmetic with a message that named no option
    result = invoke("--grid", grid, "cm-check", "--alpha", "1",
                    "--beta", "1", "--r", "4")
    assert result.exit_code == 64
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "--grid" in result.stderr
    assert "float" not in result.stderr


def test_geometric_grid_points_below_a_millionth_stay_positive():
    # limit_denominator(10**6) made the second point 0, and the scan
    # refused it as not positive
    result = invoke("--grid", "geometric:1/1000000000,1,5",
                    "--format", "csv", "kernel-ineq", "--k", "2")
    assert (result.exit_code, result.stderr) == (0, "")
    points = [Fraction(row.split(",")[0])
              for row in result.stdout.splitlines()[1:]]
    assert len(points) == 5 and points[0] == Fraction(1, 10 ** 9)
    assert all(0 < a < b for a, b in zip(points, points[1:]))


BESSEL_JSON_ARGS = ["--format", "json", "--precision", "20", "bessel",
                    "--k", "3", "--u", "7/2"]
MODULE_CMD = [sys.executable, "-m", "cmcert.cli"]


def child_env(hash_seed):
    """The environment of a fresh process that imports the cmcert under test.

    The directory holding the imported package goes first on PYTHONPATH, so
    the child needs no install and works from any working directory; a
    PYTHONPATH the caller set is kept after it.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(cmcert.__file__)))
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not inherited
                         else package_root + os.pathsep + inherited)
    env["PYTHONHASHSEED"] = hash_seed
    return env


def run_child(cmd, hash_seed, timeout=None):
    """Run cmd in a fresh process (see `child_env`)."""
    return subprocess.run(cmd, capture_output=True, env=child_env(hash_seed),
                          timeout=timeout)


def stderr_report(*runs):
    return "\n".join(f"stderr of run {i}:\n{r.stderr.decode(errors='replace')}"
                     for i, r in enumerate(runs, 1))


def test_deterministic_reruns_are_byte_identical():
    # distinct hash seeds, so output that depends on str hashing differs
    a = run_child(MODULE_CMD + BESSEL_JSON_ARGS, "1")
    b = run_child(MODULE_CMD + BESSEL_JSON_ARGS, "2")
    assert a.returncode == b.returncode == 0, stderr_report(a, b)
    assert a.stdout == b.stdout, stderr_report(a, b)
    doc = json.loads(a.stdout)
    assert doc["lo"] and doc["hi"]


@pytest.mark.skipif(shutil.which("cmcert") is None,
                    reason="no installed cmcert console script on PATH")
def test_installed_entry_point_matches_module_run():
    script = run_child([shutil.which("cmcert")] + BESSEL_JSON_ARGS, "1")
    module = run_child(MODULE_CMD + BESSEL_JSON_ARGS, "2")
    assert script.returncode == module.returncode == 0, \
        stderr_report(script, module)
    assert script.stdout == module.stdout, stderr_report(script, module)


@pytest.mark.parametrize("args, code", [
    (["shift-chain", "--file", "{poly}", "--shifts", "5000"], 0),
    (["ratio-mono", "--which", "c", "--beta", "1", "--count", "300"], 1),
])
def test_a_reader_that_closes_the_pipe_gets_the_verdicts_exit_code(
        tmp_path, args, code):
    # each output, 134 KB and 196 KB, passes a 64 KiB pipe buffer, so the
    # write meets the closed pipe; that printed a BrokenPipeError traceback
    # and exited 1, which reads as fail, whatever the verdict
    args = [a.replace("{poly}", write_poly(tmp_path, "p.poly",
                                           ["1", "0", "1"])) for a in args]
    proc = subprocess.Popen(MODULE_CMD + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env("1"))
    head = proc.stdout.read(10)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (code, b"")
    assert len(head) == 10


# 20,000 p(t) points: within the budget each, past it together
P_LIMIT_POINTS = ",".join(map(str, range(1, 20001)))


@pytest.mark.parametrize("args", [
    ["ratio-mono", "--which", "c", "--beta", "1", "--count", "1"],
    ["ratio-mono", "--which", "C", "--beta", "1", "--count", "3"],
    ["ladder", "--k-max", "5"],
    ["verify-identity", "--k", "-1"],
    ["certify-poly", "--file", "{poly}", "--interval", "3,1"],
    ["cm-check", "--alpha", "1", "--beta", "1", "--r", "4", "--orders", "-1"],
    ["kernel-ineq", "--k", "0"],
    ["unimodal-max", "--function", "F", "--beta", "1", "--tol", "0"],
    ["bessel", "--k", "1", "--u", "-1"],
    ["p-limit", "--t", "0"],
    # arguments the exponential enclosures cannot reach, and K_100 so near
    # its pole that the digits of e**-a pass the work budget
    ["p-limit", "--t", f"1/{10 ** 64}"],
    ["ktail", "--ell", "100", "--a", "1e-3000"],
    ["p-limit", "--t", "1/100000"],
    # points past the work budget, refused before the first is evaluated
    ["p-limit", "--t", P_LIMIT_POINTS],
    # orders, counts and sizes past the work budget, refused before any
    # work
    ["conjecture-scan", "--k", "1200"],
    ["ktail", "--ell", "100000", "--a", "1"],
    ["ladder", "--k-max", "200000"],
    ["ratio-mono", "--which", "c", "--beta", "1", "--count", "200000"],
    # a grid is refused as the scan prices its points, before any is
    # evaluated (test_a_billion_point_grid_is_refused_after_few_points)
    ["--grid", f"geometric:1/100,1000,{10 ** 9}",
     "cm-check", "--alpha", "1", "--beta", "1", "--r", "4"],
    ["verify-identity", "--k", str(10 ** 6)],
    ["verify-identity", "--terms", str(10 ** 6)],
    ["shift-chain", "--file", "{poly}", "--shifts", str(10 ** 8)],
    ["certify-poly", "--file", "{poly}", "--interval", "0,1",
     "--step", f"1/{10 ** 8}"],
    ["lemma1-bounds", "--m", "200000"],
    ["lemma1-bounds", "--n", "200000"],
    ["shift-chain", "--file", "{long}"],
    # rationals whose digits Fraction would expand before any check, and
    # the arguments whose cost grows without a ceiling
    ["p-limit", "--t", "1e100000000"],
    ["cm-check", "--alpha", "1e100000000", "--beta", "1", "--r", "4"],
    ["--grid", "linear:1,1e100000000,2", "kernel-ineq", "--k", "2"],
    ["shift-chain", "--file", "{huge}", "--shifts", "3"],
    ["bessel", "--k", "1", "--u", "1000000000"],
    ["--grid", "linear:1,1000000000,2", "kernel-ineq", "--k", "2"],
    ["--grid", "linear:1,1000000000,2", "conjecture-scan", "--k", "2"],
    ["cm-check", "--alpha", "1", "--beta", "1", "--r", "100000",
     "--orders", "2"],
    ["cm-check", "--alpha", "1", "--beta", "1", "--r", "1/1000",
     "--orders", "2"],
    ["kernel-ineq", "--k", "7"],
    ["--precision", "1000", "polygamma", "--n", "8000", "--x", "1"],
    ["--precision", "1000", "polygamma", "--n", "1000",
     "--x", f"1/{10 ** 100}"],
    ["--precision", "1000", "polygamma", "--n", "1", "--x", f"1/{2 ** 1000}"],
    ["--precision", "1000", "polygamma", "--n", "1",
     "--x", f"{10 ** 1000 + 1}/{10 ** 1000}"],
    ["polygamma", "--n", "1000", "--x", "1e9000"],
    ["bessel", "--k", "1000000", "--u", "1"],
    ["bessel", "--k", "0", "--u", "9999999." + "9" * 100],
    ["--precision", "1000", "bessel", "--k", "0",
     "--u", "9999999." + "9" * 16],
])
def test_out_of_range_argument_is_usage_error(tmp_path, args):
    poly_file = write_poly(tmp_path, "p.poly", ["1", "0", "1"])
    long_file = write_poly(tmp_path, "long.poly",
                           ["1"] * (cli_poly.POLY_MAX_COEFFS + 1))
    huge_file = write_poly(tmp_path, "huge.poly", ["1e1000000"])
    args = [a.replace("{poly}", poly_file).replace("{long}", long_file)
            .replace("{huge}", huge_file) for a in args]
    # an argument out of reach is refused at once, not after hours of work
    run = run_child(MODULE_CMD + args, "1", timeout=10)
    stderr = run.stderr.decode(errors="replace")
    assert run.returncode == 64, stderr
    assert run.stdout == b""
    assert "Traceback" not in stderr
    assert stderr.startswith("error: ")
    assert sum(line.startswith("error: ") for line in stderr.splitlines()) == 1
    if args[-1] in EXP_OUT_OF_REACH:
        # the message names the exp argument, its first 40 characters, and
        # the precision limit
        assert stderr.startswith(
            f"error: e**x at |x| = {EXP_OUT_OF_REACH[args[-1]]} needs ")
        assert stderr.endswith(
            f" bits, over the limit of {specfun.EXP_BITS_CAP}\n")


# Every budgeted entry point: a call, and the first work after its budget
# check, which an over-budget call must not reach.
H11 = cmdegree.h_expression(1, 1)
BUDGETED = {
    "bessel_ratio": (lambda path: specfun.bessel_ratio(3, Fraction(7, 2), 20),
                     math, "factorial"),
    "polygamma_jet": (lambda path: specfun.polygamma_jet(1, 3, 3, 20),
                      specfun, "_polygamma_mantissas"),
    "k_tail": (lambda path: specfun.k_tail(3, 1, 20),
               expring, "reciprocal_derivative"),
    "cm_check": (lambda path: cmdegree.cm_check(H11, 4, 3, [1, 2], 15),
                 cmdegree, "_derivative_rows"),
    "kernel_certificate": (lambda path: cmdegree.kernel_certificate(
        2, [1, 2], 15), cmdegree, "kernel_margin"),
    "conjecture_scan": (lambda path: cmdegree.conjecture_scan(3, [1, 2], 15),
                        cmdegree, "kernel_margin"),
    "verify_identity": (lambda path: cmdegree.verify_identity(3, 20),
                        cmdegree, "_transform_weight"),
    "certify_positive_on_interval": (
        lambda path: poly.certify_positive_on_interval(
            Polynomial.of([1, 0, 1]), 0, 2, 1), poly, "compose_affine"),
    "lemma1_exp_bounds": (lambda path: poly.lemma1_exp_bounds(2, 3),
                          poly, "exp_bound_polynomial"),
    "c_ratio_sequence": (lambda path: seriesratio.c_ratio_sequence(1, 20),
                         seriesratio, "_ratio_terms"),
    "C_ratio_sequence": (lambda path: seriesratio.C_ratio_sequence(
        Fraction(1, 2), 20), seriesratio, "_ratio_terms"),
    "ladder_check": (lambda path: seriesratio.ladder_check(20),
                     seriesratio, "U_value"),
    "shift_chain": (lambda path: cli_poly.shift_chain(
        cli.RunConfig(60, "", "text"), path, 3), poly, "taylor_shift"),
}


@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_each_budgeted_call_runs_at_the_budget_and_stops_past_it(
        tmp_path, monkeypatch, work_estimate, name):
    # with WORK_MAX at the call's own estimate, small so that the test
    # stays fast, it runs; one unit below, it raises ValueError before its
    # first work
    call, owner, inner = BUDGETED[name]
    path = write_poly(tmp_path, "p.poly", ["1", "0", "1"])
    units = work_estimate(lambda: call(path))
    reached, work = [], getattr(owner, inner)
    with monkeypatch.context() as mp:
        mp.setattr(cmcert.enclosure, "WORK_MAX", units - 1)
        mp.setattr(owner, inner, lambda *a, **k: reached.append(a))
        with pytest.raises(ValueError, match=rf"^work --[-a-z/]+ {units} "
                           rf"is outside the supported range 0\.\.{units - 1}$"):
            call(path)
    assert reached == []
    monkeypatch.setattr(cmcert.enclosure, "WORK_MAX", units)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            call(path)
        except SystemExit as exc:  # shift_chain prints and exits
            assert exc.code == 0
    assert getattr(owner, inner) is work


# the slowest admitted grid requests of the README's table, at the 40
# digits the CLI computes them at
ADMITTED_GRID_REQUESTS = {
    "cm-check --r 1196 --orders 8": lambda: cmdegree.cm_check(
        H11, 1196, 8, cli._parse_grid("geometric:0.01,1000,25"), 40),
    "kernel-ineq --k 5": lambda: cmdegree.kernel_certificate(
        5, cli._parse_grid("linear:0.01,1000,1003"), 40),
    "conjecture-scan --k 100": lambda: cmdegree.conjecture_scan(
        100, cli._parse_grid("linear:1/1000000000,1,494"), 40),
}


@pytest.mark.parametrize("name", sorted(ADMITTED_GRID_REQUESTS))
def test_the_slowest_admitted_grid_requests_stay_admitted(work_estimate,
                                                          name):
    # each point is priced at its own bits, never above its share of the
    # whole grid's estimate at the largest bits
    units = work_estimate(ADMITTED_GRID_REQUESTS[name])
    assert units <= cmcert.enclosure.WORK_MAX


def test_p_limit_prices_the_exp_atom_of_each_point(monkeypatch):
    # e^(1/t) at t = 1/21000 is past the budget alone (it ran 6.4 s cold
    # when the estimate left it out), so it is refused before any p(t) is
    # evaluated; at t = 1/10000 it is within the budget and runs
    with monkeypatch.context() as mp:
        mp.setattr(cmdegree, "p_value",
                   lambda *args: pytest.fail("a point was evaluated"))
        refused = invoke("p-limit", "--t", "1/21000")
    assert refused.exit_code == 64
    assert refused.stderr.startswith("error: work --t ")
    admitted = invoke("p-limit", "--t", "1/10000")
    assert (admitted.exit_code, admitted.stderr) == (0, "")
    assert admitted.stdout.startswith("p(1/10000) = [10000.0000")


@pytest.mark.parametrize("key, code", [("precision", 65), ("grid", 64)])
def test_config_integers_are_refused_by_their_digits(tmp_path, key, code):
    # int() would read all of a million digits before any range check (8 s
    # for the precision, 25 s for the grid count): each is refused at once,
    # and the message shows the value's first 40 characters only
    digits = "1" * 10 ** 6
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text(f"{key} = " + (digits if key == "precision"
                                       else f"linear:1,2,{digits}") + "\n")
    run = run_child(MODULE_CMD + ["--config", str(cfgfile), "cm-check",
                                  "--alpha", "1", "--beta", "1", "--r", "4"],
                    "1", timeout=5)
    assert run.returncode == code, stderr_report(run)
    assert run.stdout == b""
    assert len(run.stderr) < 200, stderr_report(run)


def test_integer_flags_are_refused_by_their_digits():
    top = cli.RATIONAL_MAX_DIGITS
    result = invoke("ladder", "--k-max", "1" * (top + 1))
    assert (result.exit_code, result.stdout) == (64, "")
    assert result.stderr == (f"error: digits --k-max {top + 1} is outside "
                             f"the supported range 0..{top}\n")
    assert invoke("ladder", "--k-max", "0" * (top - 1) + "6").exit_code == 0


# the exp argument behind each out-of-reach --t value above
EXP_OUT_OF_REACH = {f"1/{10 ** 64}": "1" + "0" * 39 + "...",
                    "1/100000": 10 ** 5}


@pytest.mark.parametrize("args, code", [
    (["ladder", "--k-max", "800"], 0),
    (["ratio-mono", "--which", "c", "--beta", "1", "--count", "1500"], 1),
    (["ratio-mono", "--which", "C", "--beta", "1/2", "--count", "1500"], 0),
])
def test_ladder_and_sequence_caps(args, code):
    # the tops of the ranges the work budget replaced run in about a second
    # cold; far past them is refused at once
    # (test_out_of_range_argument_is_usage_error; without a bound, ladder
    # --k-max 10**8 ran past a 20 s timeout)
    top = run_child(MODULE_CMD + ["--format", "csv"] + args, "1", timeout=10)
    assert top.returncode == code, stderr_report(top)


@pytest.fixture
def long_int_strings():
    """Lift the int-to-str digit limit, as cli.main does, for this test."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_rationals_are_refused_by_their_digits_before_they_are_built(
        long_int_strings):
    # Fraction expands an exponent first: Fraction("1e10000000") alone
    # took 12 s; the bound is that of the exp enclosures
    top = cli.RATIONAL_MAX_DIGITS
    assert top == len(str(2 ** specfun.EXP_BITS_CAP))
    for text, value in [("1e300", 10 ** 300), ("-2.5E-3", Fraction(-1, 400)),
                        (f"1e{top - 1}", 10 ** (top - 1)),
                        (f"1e-{top - 1}", Fraction(1, 10 ** (top - 1))),
                        ("9" * top, 10 ** top - 1), (" 3/4 ", Fraction(3, 4)),
                        (f"-1/{'9' * (top - 1)}",
                         Fraction(-1, 10 ** (top - 1) - 1))]:
        assert cli._rat(text) == value, text
    for text in [f"1e{top}", f"1e-{top}", "1" * (top + 1), f"0.{'1' * top}",
                 f"1/{'1' * top}", f"-0.5e-{top - 1}", "1e100000000",
                 "1e-100000000", "1e" + "0" * (top + 1) + "1"]:
        with pytest.raises(ValueError, match=f" needs more than {top} "):
            cli._rat(text)
    for text in ["x", "1/0", "1e", "e5", "1.5/2", "1e5/2", ""]:
        with pytest.raises(ValueError, match="^bad rational "):
            cli._rat(text)


def test_polynomial_file_coefficients_are_refused_by_their_digits(tmp_path):
    # each line before Fraction builds it, then all of them over their
    # common denominator, which is what the algebra runs on
    top = cli_poly.POLY_MAX_DIGITS
    at_cap = write_poly(tmp_path, "top.poly",
                        ["9" * top] * cli_poly.POLY_MAX_COEFFS)
    assert (len(cli_poly._read_poly_file(at_cap).coeffs)
            == cli_poly.POLY_MAX_COEFFS)
    line = write_poly(tmp_path, "line.poly", ["1", "# a comment", f"1e{top}"])
    with pytest.raises(ValueError, match=f"^{re.escape(line)}:3: coefficient "
                       f"'1e{top}' needs more than {top} digits$"):
        cli_poly._read_poly_file(line)
    # two coprime denominators of half the cap and one more digit
    half = 10 ** (top // 2)
    wide = write_poly(tmp_path, "wide.poly", [f"1/{half + 1}", f"1/{half}"])
    with pytest.raises(ValueError, match=rf"^digits --file {top + 1} .* "
                       rf"range 0\.\.{top}$"):
        cli_poly._read_poly_file(wide)


def test_p_limit_reads_a_large_exponent():
    result = invoke("p-limit", "--t", "1e300")
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.startswith("p(1" + "0" * 300 + ") = [3.99")


@pytest.mark.parametrize("where", ["flag", "config"])
def test_precision_above_the_cap_is_config_error(tmp_path, where):
    # refused before any work: 10**9 digits would first build 10**(10**9)
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text("precision = 1000000000\n")
    args = (["--precision", "1000000000"] if where == "flag"
            else ["--config", str(cfgfile)])
    run = run_child(MODULE_CMD + args + ["ktail", "--ell", "100", "--a", "1"],
                    "1", timeout=10)
    assert run.returncode == 65
    assert run.stdout == b""
    assert run.stderr == b"config error: precision must be <= 1000\n"
    assert invoke("--precision", "1000", "ladder", "--k-max", "6") \
        .exit_code == 0


def test_exact_output_over_the_int_string_limit():
    # 1/1601! has 4,437 denominator digits, over the 4,300 digits to which
    # Python limits int-to-str conversion by default
    run = run_child(MODULE_CMD + ["verify-identity", "--k", "1600",
                                  "--terms", "1"], "1", timeout=30)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    den = run.stdout.decode().split("(constant 1/")[1].rstrip(")\n")
    n = math.factorial(1601)
    assert den.isdigit() and 10 ** (len(den) - 1) <= n < 10 ** len(den)
    assert len(den) == 4437
    assert den[:30] == str(n // 10 ** (len(den) - 30))


# -- golden bytes ------------------------------------------------------------
# Every command in text, JSON and CSV, the formats a command has no form for
# (it prints text), and the exit-64 paths of --interval, --bracket, the
# lower ends of --k, --ell, --orders and --count, the digits of an option
# value, the coefficient count and digits of --file, an exp argument out of
# reach, and the work budget at each budgeted command and option.
# Grids are linear except in GOLDEN_SINGLE: geometric grid points are built
# with float powers, and golden bytes should not depend on libm.
# tests/golden_cli.json holds the stdout, stderr and exit code of each case.

GOLDEN_FILE = Path(__file__).with_name("golden_cli.json")
GOLDEN_POLYS = {"good": ["101", "-20", "1"],   # (x - 10)^2 + 1 > 0
                "bad": ["-2", "0", "1"],       # x^2 - 2 dips below 0
                "long": ["1"] * 41,            # one past the coefficient cap
                # a million digits in nine characters, and two coefficients
                # over coprime 60-digit denominators
                "huge": ["1", "1e1000000"],
                "wide": [f"1/{10 ** 59 + 1}", f"1/{10 ** 59 + 2}"],
                "f4": [str(c) for c in expring.F4_REFERENCE_COEFFS]}
GOLDEN_FORMATS = {"text": [], "json": ["--format", "json"],
                  "csv": ["--format", "csv"]}
GOLDEN_COMMANDS = {
    "certify-poly": ["certify-poly", "--file", "{good}", "--interval", "0,6"],
    "certify-poly-falsified": ["certify-poly", "--file", "{bad}",
                               "--interval", "0,6", "--step", "1/2"],
    "shift-chain": ["shift-chain", "--file", "{good}", "--shifts", "2"],
    "lemma1-bounds": ["lemma1-bounds", "--m", "1", "--n", "2"],
    "bessel": ["--precision", "20", "bessel", "--k", "3", "--u", "7/2"],
    "polygamma": ["--precision", "20", "polygamma", "--n", "2", "--x", "3"],
    "ktail": ["--precision", "20", "ktail", "--ell", "3", "--a", "1"],
    "kernel-ineq": ["--precision", "15", "--grid", "linear:1/2,5,4",
                    "kernel-ineq", "--k", "2"],
    "kernel-ineq-ray": ["--precision", "15", "--grid", "linear:1,6,3",
                        "kernel-ineq", "--k", "5"],
    "ratio-mono-c": ["ratio-mono", "--which", "c", "--beta", "1",
                     "--count", "5"],
    "ratio-mono-C": ["ratio-mono", "--which", "C", "--beta", "1/2",
                     "--count", "6"],
    "ladder": ["ladder", "--k-max", "6"],
    "unimodal-max": ["--precision", "12", "unimodal-max", "--function", "F",
                     "--beta", "1/2", "--tol", "1"],
    "unimodal-max-G": ["--precision", "12", "unimodal-max", "--function", "G",
                       "--beta", "1/2", "--bracket", "1/2,30", "--tol", "2"],
    "cm-check": ["--precision", "15", "--grid", "linear:1/2,4,3", "cm-check",
                 "--alpha", "1", "--beta", "1", "--r", "4", "--orders", "2"],
    "cm-check-fail": ["--precision", "15", "--grid", "linear:1/2,10,4",
                      "cm-check", "--alpha", "1/4", "--beta", "1", "--r", "0",
                      "--orders", "2"],
    "p-limit": ["--precision", "12", "p-limit", "--t", "1,10,1000"],
    "verify-identity": ["verify-identity", "--k", "2", "--terms", "10"],
    "conjecture-scan": ["--precision", "15", "--grid", "linear:1,11/5,13",
                        "conjecture-scan", "--k", "6"],
    "conjecture-scan-none": ["--precision", "15", "--grid", "linear:1/2,4,3",
                             "conjecture-scan", "--k", "2"],
    "reproduce-paper": ["reproduce-paper"],
}
# The benchmark's kernel-scan invocations on the default geometric grid, and
# the Bessel series far out at high precision: they pin the exact series sums
# of eval_enclosure and bessel_ratio byte for byte.  Geometric grid points are
# float powers rounded by limit_denominator(10**6), which absorbs a last-ulp
# libm difference unless a point sits on a rounding boundary.
GOLDEN_SINGLE = {
    "kernel-ineq-default/json": ["--format", "json", "kernel-ineq", "--k", "5"],
    "conjecture-scan-default/json": ["--format", "json", "conjecture-scan",
                                     "--k", "6"],
    "bessel-far/text": ["--precision", "80", "bessel", "--k", "5",
                        "--u", "1000"],
    # K_ell at 1/10 and near its pole, and p(t) from 1/100 to 10^5: each
    # through the one evaluator of its ring
    "ktail-series/text": ["ktail", "--ell", "2", "--a", "1/10"],
    "ktail-pole/text": ["--precision", "12", "ktail", "--ell", "6",
                        "--a", "1/1000"],
    # e**-a far below the grid, where e**a is past EXP_BITS_CAP
    "ktail-far/json": ["--format", "json", "ktail", "--ell", "1",
                       "--a", "100000"],
    "ktail-farther/json": ["--format", "json", "ktail", "--ell", "1",
                           "--a", str(10 ** 71)],
    "p-limit-wide/json": ["--format", "json", "p-limit",
                          "--t", "1/100,1/10,3,100000"],
}
# Cases named after a per-option cap that the work budget replaced keep
# their names and now ask for a value far past the budget; the budget-*
# cases are requests that ran for 5 to over 100 s before it.
GOLDEN_USAGE_ERRORS = {
    "certify-poly-interval-03": ["certify-poly", "--file", "{good}",
                                 "--interval", "03"],
    "unimodal-max-bracket-1": ["unimodal-max", "--function", "F",
                               "--beta", "1", "--bracket", "1"],
    "conjecture-scan-k-0": ["conjecture-scan", "--k", "0"],
    "conjecture-scan-k-1200": ["conjecture-scan", "--k", "1200"],
    "ktail-ell-negative": ["ktail", "--ell", "-1", "--a", "1"],
    "ktail-ell-101": ["ktail", "--ell", "100000", "--a", "1"],
    "cm-check-orders-0": ["cm-check", "--alpha", "1", "--beta", "1",
                          "--r", "4", "--orders", "0"],
    "cm-check-orders-91": ["cm-check", "--alpha", "1", "--beta", "1",
                           "--r", "4", "--orders", "91"],
    "ladder-k-max-801": ["ladder", "--k-max", "100000"],
    "ratio-mono-count-1501": ["ratio-mono", "--which", "c", "--beta", "1",
                              "--count", "100000"],
    "ratio-mono-C-count-3": ["ratio-mono", "--which", "C", "--beta", "1",
                             "--count", "3"],
    "cm-check-grid-count-1001": ["--grid", "linear:1,2,1001", "cm-check",
                                 "--alpha", "1", "--beta", "1", "--r", "4"],
    "verify-identity-k-1601": ["verify-identity", "--k", "1000000"],
    "verify-identity-terms-1601": ["verify-identity", "--terms", "1000000"],
    "shift-chain-shifts-5001": ["shift-chain", "--file", "{good}",
                                "--shifts", "100000000"],
    "certify-poly-pieces-2001": ["certify-poly", "--file", "{good}",
                                 "--interval", "0,1", "--step", "1/100000000"],
    "lemma1-bounds-m-301": ["lemma1-bounds", "--m", "100000"],
    "lemma1-bounds-n-301": ["lemma1-bounds", "--n", "100000"],
    "shift-chain-coefficients-41": ["shift-chain", "--file", "{long}"],
    "shift-chain-coefficient-digits": ["shift-chain", "--file", "{huge}"],
    "shift-chain-common-denominator": ["shift-chain", "--file", "{wide}"],
    "p-limit-t-digits": ["p-limit", "--t", "1e100000000"],
    "bessel-u-10000001": ["bessel", "--k", "0", "--u", "1000000000"],
    "cm-check-r-numerator-101": ["cm-check", "--alpha", "1", "--beta", "1",
                                 "--r", "100000"],
    "cm-check-r-denominator-11": ["cm-check", "--alpha", "1", "--beta", "1",
                                  "--r", "1/1000"],
    "kernel-ineq-k-7": ["kernel-ineq", "--k", "7"],
    "polygamma-n-1001": ["polygamma", "--n", "100000", "--x", "1"],
    "polygamma-size": ["polygamma", "--n", "1000", "--x", f"1/{10 ** 100}"],
    "polygamma-denominator-bits": ["--precision", "1000", "polygamma",
                                   "--n", "1", "--x", f"1/{2 ** 1000}"],
    "bessel-k-100001": ["bessel", "--k", "1000000", "--u", "1"],
    "bessel-size": ["bessel", "--k", "0", "--u", "9999999." + "9" * 16],
    "ktail-exp-out-of-reach": ["ktail", "--ell", "100", "--a", "1e-3000"],
    "p-limit-t-count": ["p-limit", "--t", P_LIMIT_POINTS],
    "budget-ratio-mono": ["ratio-mono", "--which", "C", "--count", "1500",
                          "--beta", f"{10 ** 100 - 1}/{10 ** 100 + 1}"],
    "budget-certify-poly": ["certify-poly", "--file", "{f4}",
                            "--interval", "0,1e3000", "--step", "1e2997"],
    "budget-cm-check": ["cm-check", "--alpha", "1", "--beta", "1",
                        "--r", "-100", "--orders", "90"],
}
# Option values that start with "-", and the parse order: a config error
# (exit 65) is reported before an error in the command's own options.
GOLDEN_PARSE = {
    "certify-poly-negative-interval": ["certify-poly", "--file", "{good}",
                                       "--interval", "-1,1"],
    "cm-check-negative-r": ["--grid", "linear:1/2,4,3", "--precision", "15",
                            "cm-check", "--alpha", "1", "--beta", "1",
                            "--r", "-1/2", "--orders", "2"],
    "ratio-mono-negative-beta": ["ratio-mono", "--which", "c",
                                 "--beta", "-1/2", "--count", "3"],
    "config-error-before-option-error": ["--precision", "2", "bessel",
                                         "--k", "x", "--u", "1"],
}


def golden_cases() -> dict:
    cases = {}
    for name, args in GOLDEN_COMMANDS.items():
        for fmt, flags in GOLDEN_FORMATS.items():
            cases[f"{name}/{fmt}"] = flags + args
    cases.update(GOLDEN_SINGLE)
    cases.update(GOLDEN_USAGE_ERRORS)
    cases.update(GOLDEN_PARSE)
    return cases


def run_golden_case(args, tmp_dir) -> dict:
    paths = {}
    for name, lines in GOLDEN_POLYS.items():
        paths[name] = str(Path(tmp_dir) / f"{name}.poly")
        Path(paths[name]).write_text("\n".join(lines) + "\n")
    args = [a.format(**paths) for a in args]
    result = invoke(*args)
    stderr = result.stderr  # a file's error names it as its case does
    for name, path in paths.items():
        stderr = stderr.replace(path, f"{{{name}}}")
    return {"stdout": result.stdout, "stderr": stderr,
            "exit": result.exit_code}


@pytest.mark.parametrize("case", sorted(golden_cases()))
def test_golden_bytes(case, tmp_path):
    expected = json.loads(GOLDEN_FILE.read_text())[case]
    assert run_golden_case(golden_cases()[case], tmp_path) == expected


# a text interval is [lo, hi] in decimals (or exact rationals); the JSON
# form of the same call prints exact "lo"/"hi" fields or [lo, hi] pairs
TEXT_INTERVAL = re.compile(r"\[(-?[0-9./]+), (-?[0-9./]+)\]")


def json_intervals(doc) -> list:
    """The exact intervals of a JSON document, in document order."""
    if isinstance(doc, dict):
        if "lo" in doc and "hi" in doc:
            return [(Fraction(doc["lo"]), Fraction(doc["hi"]))]
        return [i for value in doc.values() for i in json_intervals(value)]
    if isinstance(doc, list):
        if len(doc) == 2 and all(isinstance(x, str) for x in doc):
            return [(Fraction(doc[0]), Fraction(doc[1]))]
        return [i for value in doc for i in json_intervals(value)]
    return []


def test_text_intervals_contain_the_json_intervals():
    # text rounds each end outward, so it never excludes the value; it
    # prints the JSON form's intervals, or (cm-check) the failing cells'
    # ones, in the same order
    recorded = json.loads(GOLDEN_FILE.read_text())
    checked = 0
    for name in GOLDEN_COMMANDS:
        try:
            doc = json.loads(recorded[f"{name}/json"]["stdout"])
        except json.JSONDecodeError:
            continue  # no JSON form: reproduce-paper prints text
        rest = iter(json_intervals(doc))
        text = recorded[f"{name}/text"]["stdout"]
        for lo, hi in TEXT_INTERVAL.findall(text):
            lo, hi = Fraction(lo), Fraction(hi)
            assert any(lo <= e_lo and e_hi <= hi for e_lo, e_hi in rest), \
                (name, lo, hi)
            checked += 1
    assert checked >= 20


# -- golden intervals against mpmath -------------------------------------------
# i_k(u) = I_k(2 sqrt u)/u^(k/2); K_ell(a) = Li_{-ell}(e^-a); kernel(u) =
# u/(1 - e^-u) = u + u K_0(u), so kernel^(m) = u' + u (-1)^m K_m + m
# (-1)^(m-1) K_(m-1); p(t) = -t h'(t)/h(t) with h = e^(1/t) - psi'(t) - 1.


def _mp_oracles(mp):
    def i(k, u):
        return mp.besseli(k, 2 * mp.sqrt(u)) / u ** (mp.mpf(k) / 2)

    def K(ell, a):
        return mp.polylog(-ell, mp.exp(-a))

    def kernel(m, u):
        value = u * (-1) ** m * K(m, u) + (u if m == 0 else m == 1)
        return value + m * (-1) ** (m - 1) * K(m - 1, u) if m else value

    def p(t):
        e = mp.exp(1 / t)
        return t * (e / t ** 2 + mp.polygamma(2, t)) / (
            e - mp.polygamma(1, t) - 1)

    return {"i": i, "K": K, "psi": mp.polygamma,
            "margin": lambda k, u: i(k, u) - kernel(k - 1, u), "p": p}


def _assert_mp_contains(mp, lo, hi, value, arg, case):
    """lo <= value(arg) <= hi, at a working precision sized from the ends'
    magnitude and resolution and from arg's decades, which the kernel
    derivatives at small u and p(t) at large t lose to cancellation."""
    lo, hi, arg = Fraction(lo), Fraction(hi), Fraction(arg)
    digits = max(len(str(abs(end.numerator))) + len(str(end.denominator))
                 for end in (lo, hi))
    decades = abs(len(str(arg.numerator)) - len(str(arg.denominator)))
    with mp.workdps(30 + digits + 8 * decades):
        v = value(_mpq(mp, arg))
        assert _mpq(mp, lo) <= v <= _mpq(mp, hi), (case, arg, lo, hi, v)


def _mpq(mp, q):
    """The rational q (a Fraction or its text) at mpmath's precision."""
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


GOLDEN_LABEL = re.compile(r"(i|K)_(\d+)\(([0-9/]+)\)|psi\^\((\d+)\)\(([0-9/]+)\)")


def _golden_cells(case, recorded, f):
    """(value, argument, lo, hi) for each interval of a golden case that an
    oracle of `_mp_oracles` covers: a value case's labelled interval, read
    from its text when the case has no JSON form, p-limit's rows, the
    kernel-ineq margins and K_4(7), and the conjecture-scan counterexample."""
    name, _, fmt = case.partition("/")
    out = recorded[case]["stdout"]
    if recorded[case]["exit"] not in (0, 1) or fmt == "csv":
        return []
    if name.startswith(("bessel", "polygamma", "ktail")):
        if fmt == "json":
            doc = json.loads(out)
            label, ends = doc["label"], (doc["lo"], doc["hi"])
        elif f"{name}/json" not in recorded:
            label, ends = out.split(" = ")[0], TEXT_INTERVAL.findall(out)[0]
        else:
            return []
        kind, k, u, n, x = GOLDEN_LABEL.fullmatch(label).groups()
        if kind:
            return [(functools.partial(f[kind], int(k)), u, *ends)]
        return [(functools.partial(f["psi"], int(n)), x, *ends)]
    if fmt != "json" or not name.startswith(("p-limit", "kernel-ineq",
                                              "conjecture-scan")):
        return []
    doc = json.loads(out)
    if name.startswith("p-limit"):
        return [(f["p"], c["t"], c["lo"], c["hi"]) for c in doc]
    if name.startswith("kernel-ineq"):
        margin = functools.partial(f["margin"], doc["k"])
        cells = [(margin, c["u"], c["lo"], c["hi"]) for c in doc["cells"]]
        if doc["ray"]:
            cells.append((functools.partial(f["K"], 4), doc["ray"]["from"],
                          *doc["ray"]["K4_at_7"]))
        return cells
    if name.startswith("conjecture-scan") and "counterexample" in doc:
        k = int(re.match(r"i_(\d+)", doc["claim"]).group(1))
        ce = doc["counterexample"]
        return [(functools.partial(f["margin"], k), ce["u"], *ce["margin"])]
    return []


def test_golden_intervals_contain_the_mpmath_values():
    # bessel, polygamma, ktail and p-limit values, kernel-ineq margins and
    # K_4(7), and the conjecture-scan counterexample margin; text ends are
    # outward decimals, so a case with no JSON form is read from its text
    mp = pytest.importorskip("mpmath")
    f = _mp_oracles(mp)
    recorded = json.loads(GOLDEN_FILE.read_text())
    cells = [(case, cell) for case in sorted(recorded)
             for cell in _golden_cells(case, recorded, f)]
    for case, (value, arg, lo, hi) in cells:
        _assert_mp_contains(mp, lo, hi, value, arg, case)
    assert len(cells) >= 45


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12 (b): unimodal_max "
                   "returns the hull of f at its final probes, whose high "
                   "end is below the maximum")
def test_unimodal_max_golden_interval_contains_the_maximum():
    mp = pytest.importorskip("mpmath")
    f = _mp_oracles(mp)
    doc = json.loads(json.loads(GOLDEN_FILE.read_text())
                     ["unimodal-max/json"]["stdout"])
    beta = Fraction(doc["beta"])
    assert (doc["function"], beta) == ("F", Fraction(1, 2))
    with mp.workdps(40):
        ratio = lambda u: (u + u * f["K"](0, u)) / f["i"](1, u * _mpq(mp, beta))
        lo, hi = (_mpq(mp, e) for e in doc["argmax"])
        top = ratio(mp.findroot(lambda u: mp.diff(ratio, u), (lo + hi) / 2))
        assert _mpq(mp, doc["max"][0]) <= top <= _mpq(mp, doc["max"][1]), top


ENCLOSURE_OPERATORS = ("__neg__", "__add__", "__radd__", "__sub__",
                       "__rsub__", "__mul__", "__rmul__", "inverse",
                       "__truediv__", "__rtruediv__", "__pow__")


def test_no_command_runs_an_enclosure_operator(monkeypatch, tmp_path):
    # every certification path rounds on integer triples; the operators
    # remain only as the tests' reference arithmetic
    x = Fraction(-37, 7)
    exp_x = specfun.exp_enclosure(x, 30)
    slopes = seriesratio.slope_sign_changes(
        lambda u, d: seriesratio.g_beta(u, 1, d), [1, 2, 3], 12)

    def stub(*args):
        raise AssertionError("an Enclosure operator ran")

    for name in ENCLOSURE_OPERATORS:
        monkeypatch.setattr(Enclosure, name, stub)
    assert specfun.exp_enclosure(x, 30) == exp_x
    assert seriesratio.slope_sign_changes(
        lambda u, d: seriesratio.g_beta(u, 1, d), [1, 2, 3], 12) == slopes
    recorded = json.loads(GOLDEN_FILE.read_text())
    for case, args in sorted(golden_cases().items()):
        result = run_golden_case(args, tmp_path)
        assert (result["exit"], result["stdout"]) == \
            (recorded[case]["exit"], recorded[case]["stdout"]), case


def test_text_and_csv_do_not_build_the_json_document(monkeypatch):
    def unused(report, name):
        raise AssertionError("the JSON document was built")

    monkeypatch.setattr(cli_cmdegree, "_degree_json", unused)
    for fmt in ("text", "csv"):
        result = invoke("--format", fmt, *GOLDEN_COMMANDS["cm-check"])
        assert (result.exit_code, result.stderr) == (0, ""), fmt


# The cm-scan benchmark's seed-0 invocations on the default geometric grid:
# sha256 of stdout and the exit code.  A faster evaluation of the same sums
# must not move a byte of them.
CM_SCAN_BYTES = {
    ("1", "1", "4", 16): (
        "bbdc30f7b8d974cfbe92034d646153defe9cefac0c4d98a1c7fc5b518b7d6d9e", 0),
    ("1/2", "2", "2", 16): (
        "5a7a17df24094abfe90b7315c1b0ae94f097d848a14e3d9fc472311a33e0309f", 0),
    ("2", "1", "1", 16): (
        "91677dcd4a5bce03cbeebda7a6e6c9b9ad7e4805fcfc3eee3476691d7995b7f1", 0),
    ("1", "1", "9/2", 8): (
        "eadd9e0636821b6b26c804f9a7adb6f9a92e16ce8c5bcb81c621f006a66821dc", 1),
}


@pytest.mark.parametrize("alpha,beta,r,orders", sorted(CM_SCAN_BYTES))
def test_cm_scan_benchmark_bytes(alpha, beta, r, orders):
    result = invoke("--format", "json", "cm-check", "--alpha", alpha,
                    "--beta", beta, "--r", r, "--orders", str(orders))
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert (digest, result.exit_code) == \
        CM_SCAN_BYTES[alpha, beta, r, orders]


# sha256 of `reproduce-paper`'s stdout, recorded once text intervals were
# rounded outward; the battery's degree evidence must keep every byte, as
# the golden case does
PAPER_BYTES = \
    "5f1aff6641fc09a23644dac6c0ae5e946a3ee80dad2bf445054ea2944fbfd365"


def test_reproduce_paper_bytes():
    result = invoke("reproduce-paper")
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert (digest, result.exit_code) == (PAPER_BYTES, 0)
