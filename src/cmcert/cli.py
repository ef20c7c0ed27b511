"""Command-line front end for the certification toolkit.

Every certification and scan is a subcommand; reports are deterministic and
stream as text, JSON or CSV.  Exit codes: 0 certified/pass, 1 falsified,
2 inconclusive, 64 usage error or out-of-range argument, 65 config error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .enclosure import Enclosure, Record, check_range, format_rational
from . import cmdegree, expring, poly, seriesratio, specfun

EX_USAGE = 64
EX_CONFIG = 65
# the highest --precision: on 2 vCPUs polygamma --n 1 took 6.9 s at 3,000
# digits, and ktail --ell 100 0.11 s at 1,000 and 0.25 s at 2,000
MAX_PRECISION = 1000
# the most digits of an option value's numerator or denominator: those of
# 2**specfun.EXP_BITS_CAP, past which no exp enclosure is computed
RATIONAL_MAX_DIGITS = 9865


class RunConfig(Record):
    __slots__ = _fields = ("precision", "grid", "fmt")


def _build_config(config_path, flags: dict) -> RunConfig:
    """The defaults, overridden by the config file, then by the flags."""
    values = {"precision": 60, "grid": "geometric:0.01,1000,25",
              "format": "text"}
    try:
        if config_path:
            with open(config_path) as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ValueError(f"line {lineno}: expected key=value")
                    key, _, val = map(str.strip, line.partition("="))
                    if key in values:
                        values[key] = int(val) if key == "precision" else val
        values.update((k, v) for k, v in flags.items() if v is not None)
        if values["precision"] < 10:
            raise ValueError("precision must be >= 10")
        if values["precision"] > MAX_PRECISION:
            raise ValueError(f"precision must be <= {MAX_PRECISION}")
        if values["format"] not in ("text", "json", "csv"):
            raise ValueError(f"unknown format {values['format']!r}")
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(EX_CONFIG)
    return RunConfig(values["precision"], values["grid"], values["format"])


def _rat(value: str, what="rational", cap=RATIONAL_MAX_DIGITS) -> Fraction:
    """Fraction(value), refused first if value's digits plus its exponent's
    size, a bound on those of its numerator and denominator, pass cap."""
    mantissa, _, exponent = value.lower().partition("e")
    try:
        if len(exponent) <= cap and abs(int(exponent or 0)) + sum(
                map(str.isdigit, mantissa)) <= cap:
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad {what} {value!r}")
    raise ValueError(f"{what} {value!r:.40} needs more than {cap} digits")


def _parse_grid(spec: str):
    try:
        scale, _, rest = spec.partition(":")
        lo_s, hi_s, count_s = rest.split(",")
        lo, hi, count = _rat(lo_s), _rat(hi_s), int(count_s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad grid spec {spec!r}; expected scale:lo,hi,count")
    if scale not in ("geometric", "linear"):
        raise ValueError(f"unknown grid scale {scale!r}")
    return getattr(cmdegree, f"{scale}_grid")(lo, hi, count)


# the most coefficients in a polynomial file: cold on 2 vCPUs (medians of
# 5), 40 ones or 40 coefficients of 30 digits took 1.2-1.4 s and 15-20 MB
# of output at shift-chain --shifts 5000, and 1.7-1.9 s at certify-poly
# with 2,000 pieces on [0, 1] or [0, 6]; the 29-coefficient F4 1.1-1.5 s
POLY_MAX_COEFFS = 40
# the most digits of a coefficient, and of the coefficients over one common
# denominator, which the algebra runs on: as above, 40 of 100 nines took
# 1.3-1.9 s and 1.7-2.4 s, 40 over 3-digit denominators at the cap 1.6-1.9 s
# and 2.2-2.3 s, and 40 of 30 digits over distinct 30-digit ones 21 s and 19 s
POLY_MAX_DIGITS = 100


def _read_poly_file(path: str) -> poly.Polynomial:
    coeffs = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror}")
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                coeffs.append(_rat(line, "coefficient", POLY_MAX_DIGITS))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
            check_range("coefficients --file", len(coeffs), 0, POLY_MAX_COEFFS)
    nums, den = poly._common_numerators(p := poly.Polynomial.of(coeffs))
    check_range("digits --file", len(str(max(map(abs, [den, *nums])))), 0,
                POLY_MAX_DIGITS)
    return p


def _pair(value: str, name: str) -> tuple[Fraction, Fraction]:
    """The rationals of a "lo,hi" option value."""
    if value.count(",") != 1:
        raise ValueError(f"{name} must be lo,hi")
    return tuple(map(_rat, value.split(",")))


def _read_options(spec: dict, words: list, prog: str, doc: str) -> dict:
    """Take spec's options off the front of words and return their values:
    "--flag value" or "--flag=value", where the value may start with "-";
    the last of a repeated option wins.  --help prints usage and exits 0."""
    flags = {"--" + dest.replace("_", "-"): dest for dest in spec}
    values = {dest: keys.get("default") for dest, keys in spec.items()}
    while words and words[0][:2] == "--":
        flag, eq, value = words.pop(0).partition("=")
        if flag + eq == "--help":
            rows = {"--help": "show this help"} | {
                f"{f} {'|'.join(k.get('choices', [d.upper()]))}":
                "(required) " * bool(k.get("required")) + k.get("help", "")
                for f, d in flags.items() for k in [spec[d]]}
            print(f"usage: {prog} [--flag VALUE ...]\n\n{doc}\n\noptions:", *(
                f"  {w:21}  {t}".rstrip() for w, t in rows.items()), sep="\n")
            sys.exit(0)
        if flag not in flags:
            raise ValueError(f"unrecognized option {flag!r}")
        if not eq and not words:
            raise ValueError(f"{flag} expects one value")
        keys, value = spec[flags[flag]], value if eq else words.pop(0)
        try:
            values[flags[flag]] = keys.get("type", str)(value)
        except ValueError:
            raise ValueError(f"{flag} {value!r} is not an integer")
        if value not in keys.get("choices", [value]):
            raise ValueError(f"{flag} {value!r} is not in {keys['choices']}")
    for flag, dest in flags.items():
        if spec[dest].get("required") and values[dest] is None:
            raise ValueError(f"{flag} is required")
    return values


_GLOBAL_OPTIONS = {
    "config": dict(help="key=value config file"),
    "precision": dict(type=int, help="target enclosure digits (default 60)"),
    "format": dict(help="output format: text, json or csv"),
    "grid": dict(help="grid spec scale:lo,hi,count")}
_COMMANDS = {}


def _command(name: str, **options):
    """Register the decorated function as the command `name`."""
    def register(fn):
        _COMMANDS[name] = fn, options
        return fn
    return register


def main(args=None, prog_name: str = "cmcert"):
    """Certification toolkit for exponential/trigamma gap analysis."""
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7 and later
        sys.set_int_max_str_digits(0)  # exact outputs may pass 4,300 digits
    words = list(sys.argv[1:] if args is None else args)
    try:
        # an unknown command exits 64 before a config error (65), and a
        # config error before an error in the command's own options
        opts = _read_options(
            _GLOBAL_OPTIONS, words, f"{prog_name} [--flag VALUE ...] command",
            main.__doc__ + "\n\ncommands:" + "".join(
                f"\n  {c:15}  {f.__doc__}" for c, (f, _) in _COMMANDS.items()))
        name = words.pop(0) if words else None
        if name not in _COMMANDS:
            raise ValueError("no command given" if name is None
                             else f"unknown command {name!r}")
        cfg = _build_config(opts.pop("config"), opts)
        fn, spec = _COMMANDS[name]
        kwargs = _read_options(spec, words, f"{prog_name} {name}", fn.__doc__)
        if words:
            raise ValueError(f"unexpected argument {words[0]!r}")
        fn(cfg, **kwargs)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EX_USAGE)
    except KeyboardInterrupt:
        print(file=sys.stderr)  # end the line that shows the ^C
        sys.exit(EX_USAGE)


# perfbench/child.py calls cli.main.main(args=..., prog_name="cmcert")
main.main = main


def _emit(cfg: RunConfig, doc, text, rows=None, code: int = 0):
    """Print one report in the configured format, then exit with code.

    doc returns the report's JSON text, called only under --format json,
    and rows are its CSV records, header first.  A command with no JSON or
    CSV form passes None, and its text lines print under that format too.
    """
    if cfg.fmt == "json" and doc is not None:
        lines = [doc()]
    elif cfg.fmt == "csv" and rows is not None:
        lines = [",".join(row) for row in rows]
    else:
        lines = text
    print(*lines, sep="\n")
    sys.exit(code)


def _ends(enc: Enclosure) -> list:
    return [format_rational(enc.lo), format_rational(enc.hi)]


def _emit_enclosure(cfg: RunConfig, label: str, enc: Enclosure):
    lo, hi = _ends(enc)
    _emit(cfg, lambda: json.dumps({"label": label, "lo": lo, "hi": hi}),
          [f"{label} = {enc.decimal_str(min(cfg.precision, 40))}"],
          [("label", "lo", "hi"), (label, lo, hi)])


@_command("certify-poly", file=dict(required=True),
          interval=dict(required=True, help="lo,hi rationals"),
          step=dict(default="1", help="shift step for the piece chain"))
def certify_poly(cfg, file, interval, step):
    """Certify strict positivity of a polynomial on an open interval."""
    p = _read_poly_file(file)
    lo, hi = _pair(interval, "interval")
    cert = poly.certify_positive_on_interval(p, lo, hi, _rat(step))
    text = [f"verdict: {cert.verdict}"] + [
        f"  shift {format_rational(piece.shift)}: "
        f"min_bk {format_rational(piece.min_bk)} (argmin {piece.argmin}), "
        f"max_bk {format_rational(piece.max_bk)}" for piece in cert.pieces]
    if cert.witness is not None:
        text.append(f"  witness: {format_rational(cert.witness)} -> "
                    f"{format_rational(cert.witness_value)}")
    _emit(cfg, cert.to_json, text,
          code={"certified": 0, "falsified": 1}.get(cert.verdict, 2))


# the most --shifts: cold on 2 vCPUs, 5,000 shifts took 0.20 s for 1 + x^2
# and 0.77 s, with 8 MB of output, for the degree-28 F4 (20,000 shifts of
# 1 + x^2: 0.49 s and 589 KB)
SHIFT_CHAIN_MAX = 5000


@_command("shift-chain", file=dict(required=True),
          shifts=dict(default=1, type=int, help="number of unit shifts"))
def shift_chain(cfg, file, shifts):
    """Print the polynomial after successive unit Taylor shifts."""
    check_range("count --shifts", shifts, 0, SHIFT_CHAIN_MAX)
    p = _read_poly_file(file)
    chain = [[format_rational(c) for c in p.coeffs]]
    for _ in range(shifts):
        p = poly.taylor_shift(p, 1)
        chain.append([format_rational(c) for c in p.coeffs])
    _emit(cfg, lambda: json.dumps([{"shift": str(i), "coeffs": coeffs}
                                   for i, coeffs in enumerate(chain)]),
          [f"shift {i}: {' '.join(coeffs)}" for i, coeffs in enumerate(chain)])


@_command("lemma1-bounds", m=dict(default=2, type=int),
          n=dict(default=3, type=int))
def lemma1_bounds(cfg, m, n):
    """Print the two-sided exponential bound numerators and their range."""
    (low, low_alt), (up, up_alt), limit = poly.lemma1_exp_bounds(m, n)
    payload = {key: [format_rational(c) for c in p.coeffs] for key, p in (
        ("lower_numerator", low), ("upper_numerator", up),
        ("lower_alternating", low_alt), ("upper_alternating", up_alt))}
    payload["valid_on"] = f"(0, {format_rational(1 / limit)})"
    _emit(cfg, lambda: json.dumps(payload, indent=2),
          [f"{key}: {val}" for key, val in payload.items()])


@_command("bessel", k=dict(required=True, type=int), u=dict(required=True))
def bessel(cfg, k, u):
    """Enclosure of the normalized Bessel series at order k."""
    _emit_enclosure(cfg, f"i_{k}({u})",
                    specfun.bessel_ratio(k, _rat(u), cfg.precision))


@_command("polygamma", n=dict(required=True, type=int),
          x=dict(required=True))
def polygamma_cmd(cfg, n, x):
    """Enclosure of the n-th polygamma derivative at x."""
    _emit_enclosure(cfg, f"psi^({n})({x})",
                    specfun.polygamma(n, _rat(x), cfg.precision))


@_command("ktail", ell=dict(required=True, type=int), a=dict(required=True))
def ktail(cfg, ell, a):
    """Enclosure of the exponential tail sum K_ell(a)."""
    _emit_enclosure(cfg, f"K_{ell}({a})",
                    specfun.k_tail(ell, _rat(a), cfg.precision))


@_command("kernel-ineq", k=dict(required=True, type=int))
def kernel_ineq(cfg, k):
    """Grid certificate of the order-k Bessel/kernel inequality."""
    grid = _parse_grid(cfg.grid)
    rep = cmdegree.kernel_certificate(k, grid, digits=min(cfg.precision, 40))
    header = ("u", "lo", "hi", "verdict")
    rows = [(format_rational(c["u"]), *_ends(c["margin"]), c["verdict"])
            for c in rep["cells"]]
    doc = {"k": k, "passed": rep["passed"],
           "cells": [dict(zip(header, row)) for row in rows], "ray": None}
    text = [f"u={format_rational(c['u'])}: "
            f"margin {c['margin'].decimal_str(12)} {c['verdict']}"
            for c in rep["cells"]]
    verdicts = {c["verdict"] for c in rep["cells"]}
    code = 1 if "fail" in verdicts else 2 if "indeterminate" in verdicts else 0
    if "ray" in rep:
        ray = rep["ray"]
        doc["ray"] = {"from": format_rational(ray["from"]),
                      "K4_at_7": _ends(ray["K4_at_7"]),
                      "threshold": format_rational(ray["threshold"]),
                      "certified": ray["certified"]}
        text.append(f"ray [{format_rational(ray['from'])}, inf): "
                    f"K_4(7) = {ray['K4_at_7'].decimal_str(12)} "
                    f"< 1/720: {ray['certified']}")
        if not ray["certified"]:
            code = max(code, 2)
    _emit(cfg, lambda: json.dumps(doc, indent=2), text, [header] + rows, code)


@_command("ratio-mono", which=dict(choices=["c", "C"], required=True),
          beta=dict(required=True), count=dict(default=50, type=int))
def ratio_mono(cfg, which, beta, count):
    """Exact coefficient-ratio sequence with a monotonicity verdict."""
    beta_f = _rat(beta)
    rep = getattr(seriesratio, f"{which}_ratio_sequence")(beta_f, count)
    values = [format_rational(v) for v in rep.values]
    _emit(cfg, lambda: json.dumps({
        "sequence": which, "beta": beta, "values": values,
        "strictly_increasing": rep.strictly_increasing,
        "first_violation": rep.first_violation}, indent=2),
        [f"{which}_k({beta}), k = 0..{count}"]
        + [f"  {k}: {v}" for k, v in enumerate(values)]
        + [f"strictly increasing: {rep.strictly_increasing}"],
        [("k", "value")] + [(str(k), v) for k, v in enumerate(values)],
        0 if rep.strictly_increasing else 1)


@_command("ladder", k_max=dict(default=50, type=int))
def ladder(cfg, k_max):
    """Exact verification of the coefficient-ladder inequalities."""
    rep = seriesratio.ladder_check(k_max)
    _emit(cfg, lambda: json.dumps({
        "k_max": rep["k_max"], "passed": rep["passed"],
        "failures": rep["failures"],
        "C_values": {str(m): v for m, v in rep["C_values"].items()}},
        indent=2),
        [f"k_max {rep['k_max']}: "
         f"{'all inequalities hold' if rep['passed'] else 'FAILED'}"]
        + [f"  C({m}) = {v}" for m, v in rep["C_values"].items()]
        + [f"  failure: {f}" for f in rep["failures"]],
        code=0 if rep["passed"] else 1)


@_command("unimodal-max", function=dict(choices=["F", "G"], required=True),
          beta=dict(required=True), bracket=dict(default="0.1,60"),
          tol=dict(default="0.05"))
def unimodal_max_cmd(cfg, function, beta, bracket, tol):
    """Enclose the maximizer of a unimodal ratio function."""
    beta_f = _rat(beta)
    lo, hi = _pair(bracket, "bracket")
    base = seriesratio.f_beta if function == "F" else seriesratio.g_beta
    res = seriesratio.unimodal_max(
        lambda u, d: base(u, beta_f, d), (lo, hi), _rat(tol),
        digits=min(cfg.precision, 40))
    _emit(cfg, lambda: json.dumps({
        "function": function, "beta": beta, "argmax": _ends(res.argmax),
        "max": _ends(res.value), "resolved": res.resolved}, indent=2),
        [f"argmax in {res.argmax.decimal_str(8)}",
         f"max in {res.value.decimal_str(8)}",
         f"resolved: {res.resolved}"],
        code=0 if res.resolved else 2)


@_command("cm-check", alpha=dict(required=True), beta=dict(required=True),
          r=dict(required=True), orders=dict(default=8, type=int))
def cm_check_cmd(cfg, alpha, beta, r, orders):
    """Sign-enclosure degree evidence for the exponential/trigamma gap."""
    grid = _parse_grid(cfg.grid)
    rep = cmdegree.cm_check(
        cmdegree.h_expression(_rat(alpha), _rat(beta)), _rat(r), orders,
        grid, digits=min(cfg.precision, 40),
        name=f"gap(alpha={alpha},beta={beta})")
    _emit(cfg, rep.to_json,
          [f"{rep.function} at degree {format_rational(rep.r)}, "
           f"orders 0..{rep.N}: {rep.summary}"]
          + [f"  n={c.n} t={format_rational(c.t)}: {c.verdict} "
             f"{c.value.decimal_str(10)}"
             for c in rep.cells if c.verdict != "pass"],
          code=rep.exit_code())


@_command("p-limit", t=dict(required=True,
                            help="comma-separated rational evaluation points"))
def p_limit(cfg, t):
    """Enclosures of the first-derivative degree bound p(t)."""
    pts = [_rat(s) for s in t.split(",")]
    encs = [cmdegree.p_value(t, min(cfg.precision, 30)) for t in pts]
    header = ("t", "lo", "hi")
    rows = [(format_rational(t), *_ends(e)) for t, e in zip(pts, encs)]
    _emit(cfg, lambda: json.dumps([dict(zip(header, row)) for row in rows]),
          [f"p({row[0]}) = {e.decimal_str(12)}" for row, e in zip(rows, encs)],
          [header] + rows)


@_command("verify-identity", k=dict(default=0, type=int),
          terms=dict(default=40, type=int))
def verify_identity_cmd(cfg, k, terms):
    """Exact termwise check of the truncated-exponential transforms."""
    rep = cmdegree.verify_identity(k, terms)
    constant = format_rational(rep["constant"])
    _emit(cfg, lambda: json.dumps({
        "k": k, "N": terms, "passed": rep["passed"], "constant": constant,
        "mismatches": rep["mismatches"]}),
        [f"k={k}, N={terms}: "
         f"{'all coefficients match' if rep['passed'] else 'MISMATCH'}"
         f" (constant {constant})"],
        code=0 if rep["passed"] else 1)


@_command("conjecture-scan", k=dict(required=True, type=int))
def conjecture_scan_cmd(cfg, k):
    """Search for sign-definite counterexamples to the order-k inequality."""
    grid = _parse_grid(cfg.grid)
    rep = cmdegree.conjecture_scan(k, grid, digits=min(cfg.precision, 40))
    payload = {
        "claim": f"i_{k}(u) >= kernel^({k - 1})(u) on the grid",
        "grid": [format_rational(u) for u in grid],
        "precision": min(cfg.precision, 40),
    }
    ce = rep["counterexample"]
    if ce is None:
        text = [f"no counterexample found on grid at precision "
                f"{payload['precision']}"]
    else:
        payload["counterexample"] = {"u": format_rational(ce["u"]),
                                     "margin": _ends(ce["margin"])}
        text = [f"counterexample at u = {format_rational(ce['u'])}: "
                f"margin [{', '.join(_ends(ce['margin']))}]"]
    _emit(cfg, lambda: json.dumps(payload, indent=2), text,
          code=0 if ce is None else 1)


def paper_battery():
    """The paper's checks in order, each as (name, passed, detail).

    `reproduce-paper` prints them and tests/test_acceptance.py gates them.
    Every function is looked up through its module when its check runs.
    """
    f4 = poly.Polynomial.of(expring.F4_REFERENCE_COEFFS)
    bks = poly.cargo_shisha_bounds(f4)
    yield ("sandwich coefficients",
           bks[0] == expring.F4_REFERENCE_COEFFS[0]
           and bks[-1] == sum(expring.F4_REFERENCE_COEFFS, Fraction(0))
           and min(bks) > 0, f"b_0 = {format_rational(bks[0])}")

    cert = poly.certify_positive_on_interval(f4, 0, 6, 1)
    yield ("degree-28 positivity", cert.verdict == "certified",
           f"{len(cert.pieces)} pieces")

    chain = expring.build_F_chain()
    yield "derivative chain origin zeros", chain[3]["verified"], ""
    _, pade = expring.build_f4_via_pade()
    yield ("two-sided bound reconstruction",
           pade["matches_reference"]
           and pade["sextic_factor_positive_on_0_6"] == "certified"
           and pade["negated_quintic_positive_on_0_6"] == "certified", "")

    k5 = cmdegree.kernel_certificate(
        5, cmdegree.geometric_grid(Fraction(1, 100), 6, 40), digits=20)
    yield "order-5 kernel inequality + ray", k5["passed"], ""

    # c_0(1) = c_1(1) = 1 exactly, then strictly increasing
    c = seriesratio.c_ratio_sequence(1, 201).values
    yield ("ratio monotonicity",
           c[0] == c[1] == 1 and all(c[k + 1] > c[k] for k in range(1, 201))
           and seriesratio.C_ratio_sequence(
               Fraction(1, 2), 101).strictly_increasing, "")

    yield "integer ladder", seriesratio.ladder_check(50)["passed"], ""

    fsmall = seriesratio.f_beta(Fraction(1, 10 ** 6), 1, 10)
    flarge = seriesratio.f_beta(100, 1, 10)
    h100 = cmdegree.h_expression().evaluate(100, 16)
    p5 = cmdegree.p_value(10 ** 5, 10)
    yield ("limit battery",
           1 - Fraction(1, 10 ** 4) < fsmall.lo
           and fsmall.hi < 1 + Fraction(1, 10 ** 4)
           and flarge.hi < Fraction(1, 10 ** 3)
           and 0 < h100.lo and h100.hi < Fraction(1, 100)
           and 4 - Fraction(1, 10 ** 3) < p5.lo
           and p5.hi < 4 + Fraction(1, 10 ** 3), "")

    grid25 = cmdegree.geometric_grid(Fraction(1, 100), 1000, 25)
    deg = cmdegree.cm_check(cmdegree.h_expression(1, 1), 4, 8, grid25,
                            digits=25)
    viol = cmdegree.find_degree_violation(cmdegree.h_expression(1, 1),
                                          Fraction(9, 2), 1, 10 ** 7)
    yield ("degree evidence at (1,1)",
           deg.summary == "pass" and viol is not None and viol[1].lo > 0, "")

    yield ("transform identities",
           all(cmdegree.verify_identity(k, 40)["passed"] for k in range(7)),
           "")

    mf = seriesratio.unimodal_max(
        lambda u, d: seriesratio.f_beta(u, Fraction(1, 2), d),
        (Fraction(1, 10), 60), Fraction(1, 20), digits=20)
    yield ("unimodal maximum exceeds 1", mf.resolved and mf.value.lo > 1,
           f"max in {mf.value.decimal_str(6)}")


@_command("reproduce-paper")
def reproduce_paper(cfg):
    """Run the full certification battery and emit one summary document."""
    lines = []
    ok = True
    for name, passed, detail in paper_battery():
        ok = ok and passed
        lines.append(f"[{'pass' if passed else 'FAIL'}] {name}"
                     + (f": {detail}" if detail else ""))
    _emit(cfg, None, lines + ["summary: " + ("all checks passed" if ok
                                             else "some checks FAILED")],
          code=0 if ok else 1)


if __name__ == "__main__":
    main()
