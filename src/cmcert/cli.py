"""Command-line front end for the certification toolkit.

Every certification and scan is a subcommand; reports are deterministic and
stream as text, JSON or CSV.  Exit codes: 0 certified/pass, 1 falsified,
2 inconclusive, 64 usage error or out-of-range argument, 65 config error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import click

from .enclosure import Enclosure, format_rational, to_fraction
from . import cmdegree, expring, poly, seriesratio, specfun

EX_USAGE = 64
EX_CONFIG = 65


@dataclass
class RunConfig:
    precision: int = 60
    grid: str = "geometric:0.01,1000,25"
    fmt: str = "text"


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except (OSError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EX_CONFIG)
    return values


def _build_config(config_path, precision, fmt, grid) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        raw = _parse_config_file(config_path)
        try:
            if "precision" in raw:
                cfg.precision = int(raw["precision"])
            if "grid" in raw:
                cfg.grid = raw["grid"]
            if "format" in raw:
                cfg.fmt = raw["format"]
        except ValueError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EX_CONFIG)
    if precision is not None:
        cfg.precision = precision
    if fmt is not None:
        cfg.fmt = fmt
    if grid is not None:
        cfg.grid = grid
    if cfg.precision < 10:
        click.echo("config error: precision must be >= 10", err=True)
        sys.exit(EX_CONFIG)
    if cfg.fmt not in ("text", "json", "csv"):
        click.echo(f"config error: unknown format {cfg.fmt!r}", err=True)
        sys.exit(EX_CONFIG)
    return cfg


def _parse_grid(spec: str):
    try:
        scale, _, rest = spec.partition(":")
        lo_s, hi_s, count_s = rest.split(",")
        lo, hi, count = Fraction(lo_s), Fraction(hi_s), int(count_s)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad grid spec {spec!r}; "
                               "expected scale:lo,hi,count")
    if scale == "geometric":
        return seriesratio.geometric_grid(lo, hi, count)
    if scale == "linear":
        return seriesratio.linear_grid(lo, hi, count)
    raise click.UsageError(f"unknown grid scale {scale!r}")


def _read_poly_file(path: str) -> poly.Polynomial:
    coeffs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                coeffs.append(Fraction(line))
            except (ValueError, ZeroDivisionError):
                raise click.UsageError(
                    f"{path}:{lineno}: bad coefficient {line!r}")
    return poly.Polynomial.of(coeffs)


def _rat(value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad rational {value!r}")


class _Group(click.Group):
    """Group whose usage failures and out-of-range arguments exit with 64."""

    def main(self, *args, **kwargs):
        kwargs.setdefault("standalone_mode", False)
        try:
            return super().main(*args, **kwargs)
        except click.UsageError as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            if exc.ctx is not None:
                click.echo(exc.ctx.get_help(), err=True)
            sys.exit(EX_USAGE)
        except click.ClickException as exc:
            exc.show()
            sys.exit(EX_USAGE)
        except click.exceptions.Abort:
            sys.exit(EX_USAGE)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EX_USAGE)


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="key=value config file")
@click.option("--precision", type=int, default=None,
              help="target enclosure digits (default 60)")
@click.option("--format", "fmt", type=str, default=None,
              help="output format: text, json or csv")
@click.option("--grid", type=str, default=None,
              help="grid spec scale:lo,hi,count")
@click.pass_context
def main(ctx, config_path, precision, fmt, grid):
    """Certification toolkit for exponential/trigamma gap analysis."""
    ctx.obj = _build_config(config_path, precision, fmt, grid)


def _emit_enclosure(cfg: RunConfig, label: str, enc: Enclosure):
    if cfg.fmt == "json":
        click.echo(json.dumps({"label": label,
                               "lo": format_rational(enc.lo),
                               "hi": format_rational(enc.hi)}))
    elif cfg.fmt == "csv":
        click.echo("label,lo,hi")
        click.echo(f"{label},{format_rational(enc.lo)},"
                   f"{format_rational(enc.hi)}")
    else:
        click.echo(f"{label} = {enc.decimal_str(min(cfg.precision, 40))}")


@main.command("certify-poly")
@click.option("--file", "path", required=True, type=click.Path(exists=True))
@click.option("--interval", required=True, help="lo,hi rationals")
@click.option("--step", default="1", help="shift step for the piece chain")
@click.pass_obj
def certify_poly(cfg, path, interval, step):
    """Certify strict positivity of a polynomial on an open interval."""
    p = _read_poly_file(path)
    try:
        lo_s, hi_s = interval.split(",")
    except ValueError:
        raise click.UsageError("interval must be lo,hi")
    cert = poly.certify_positive_on_interval(p, _rat(lo_s), _rat(hi_s),
                                             _rat(step))
    if cfg.fmt == "json":
        click.echo(cert.to_json())
    else:
        click.echo(f"verdict: {cert.verdict}")
        for piece in cert.pieces:
            click.echo(f"  shift {format_rational(piece.shift)}: "
                       f"min_bk {format_rational(piece.min_bk)} "
                       f"(argmin {piece.argmin}), "
                       f"max_bk {format_rational(piece.max_bk)}")
        if cert.witness is not None:
            click.echo(f"  witness: {format_rational(cert.witness)} -> "
                       f"{format_rational(cert.witness_value)}")
    sys.exit({"certified": 0, "falsified": 1}.get(cert.verdict, 2))


@main.command("shift-chain")
@click.option("--file", "path", required=True, type=click.Path(exists=True))
@click.option("--shifts", default=1, type=int, help="number of unit shifts")
@click.pass_obj
def shift_chain(cfg, path, shifts):
    """Print the polynomial after successive unit Taylor shifts."""
    p = _read_poly_file(path)
    rows = [("0", p)]
    for i in range(1, shifts + 1):
        p = poly.taylor_shift(p, 1)
        rows.append((str(i), p))
    if cfg.fmt == "json":
        click.echo(json.dumps([
            {"shift": s, "coeffs": [format_rational(c) for c in q.coeffs]}
            for s, q in rows]))
    else:
        for s, q in rows:
            coeffs = " ".join(format_rational(c) for c in q.coeffs)
            click.echo(f"shift {s}: {coeffs}")
    sys.exit(0)


@main.command("lemma1-bounds")
@click.option("--m", default=2, type=int)
@click.option("--n", default=3, type=int)
@click.pass_obj
def lemma1_bounds(cfg, m, n):
    """Print the two-sided exponential bound numerators and their range."""
    (low, low_alt), (up, up_alt), limit = poly.lemma1_exp_bounds(m, n)
    payload = {
        "lower_numerator": [format_rational(c) for c in low.coeffs],
        "upper_numerator": [format_rational(c) for c in up.coeffs],
        "lower_alternating": [format_rational(c) for c in low_alt.coeffs],
        "upper_alternating": [format_rational(c) for c in up_alt.coeffs],
        "valid_on": f"(0, {format_rational(1 / limit)}]"
        if limit else "(0, inf)",
    }
    if cfg.fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    else:
        for key, val in payload.items():
            click.echo(f"{key}: {val}")
    sys.exit(0)


@main.command("bessel")
@click.option("--k", required=True, type=int)
@click.option("--u", required=True)
@click.pass_obj
def bessel(cfg, k, u):
    """Enclosure of the normalized Bessel series at order k."""
    _emit_enclosure(cfg, f"i_{k}({u})",
                    specfun.bessel_ratio(k, _rat(u), cfg.precision))
    sys.exit(0)


@main.command("polygamma")
@click.option("--n", required=True, type=int)
@click.option("--x", required=True)
@click.pass_obj
def polygamma_cmd(cfg, n, x):
    """Enclosure of the n-th polygamma derivative at x."""
    _emit_enclosure(cfg, f"psi^({n})({x})",
                    specfun.polygamma(n, _rat(x), cfg.precision))
    sys.exit(0)


@main.command("ktail")
@click.option("--ell", required=True, type=int)
@click.option("--a", required=True)
@click.pass_obj
def ktail(cfg, ell, a):
    """Enclosure of the exponential tail sum K_ell(a)."""
    _emit_enclosure(cfg, f"K_{ell}({a})",
                    specfun.k_tail(ell, _rat(a), cfg.precision))
    sys.exit(0)


def _scan_exit(verdicts) -> int:
    if any(v == "fail" for v in verdicts):
        return 1
    if any(v == "indeterminate" for v in verdicts):
        return 2
    return 0


@main.command("kernel-ineq")
@click.option("--k", required=True, type=int)
@click.pass_obj
def kernel_ineq(cfg, k):
    """Grid certificate of the order-k Bessel/kernel inequality."""
    grid = _parse_grid(cfg.grid)
    rep = cmdegree.kernel_certificate(k, grid, digits=min(cfg.precision, 40))
    verdicts = [c["verdict"] for c in rep["cells"]]
    if cfg.fmt == "csv":
        click.echo("u,lo,hi,verdict")
        for c in rep["cells"]:
            m = c["margin"]
            click.echo(f"{format_rational(c['u'])},{format_rational(m.lo)},"
                       f"{format_rational(m.hi)},{c['verdict']}")
    elif cfg.fmt == "json":
        click.echo(json.dumps({
            "k": k,
            "passed": rep["passed"],
            "cells": [{"u": format_rational(c["u"]),
                       "lo": format_rational(c["margin"].lo),
                       "hi": format_rational(c["margin"].hi),
                       "verdict": c["verdict"]} for c in rep["cells"]],
            "ray": None if "ray" not in rep else {
                "from": format_rational(rep["ray"]["from"]),
                "K4_at_7": [format_rational(rep["ray"]["K4_at_7"].lo),
                            format_rational(rep["ray"]["K4_at_7"].hi)],
                "threshold": format_rational(rep["ray"]["threshold"]),
                "certified": rep["ray"]["certified"],
            }}, indent=2))
    else:
        for c in rep["cells"]:
            click.echo(f"u={format_rational(c['u'])}: "
                       f"margin {c['margin'].decimal_str(12)} {c['verdict']}")
        if "ray" in rep:
            ray = rep["ray"]
            click.echo(f"ray [{format_rational(ray['from'])}, inf): "
                       f"K_4(7) = {ray['K4_at_7'].decimal_str(12)} "
                       f"< 1/720: {ray['certified']}")
    code = _scan_exit(verdicts)
    if "ray" in rep and not rep["ray"]["certified"]:
        code = max(code, 2)
    sys.exit(code)


@main.command("ratio-mono")
@click.option("--which", type=click.Choice(["c", "C"]), required=True)
@click.option("--beta", required=True)
@click.option("--count", "K", default=50, type=int)
@click.pass_obj
def ratio_mono(cfg, which, beta, K):
    """Exact coefficient-ratio sequence with a monotonicity verdict."""
    beta_f = _rat(beta)
    fn = seriesratio.c_ratio_sequence if which == "c" \
        else seriesratio.C_ratio_sequence
    rep = fn(beta_f, K)
    if cfg.fmt == "csv":
        click.echo("k,value")
        for k, v in enumerate(rep.values):
            click.echo(f"{k},{format_rational(v)}")
    elif cfg.fmt == "json":
        click.echo(json.dumps({
            "sequence": which, "beta": beta,
            "values": [format_rational(v) for v in rep.values],
            "strictly_increasing": rep.strictly_increasing,
            "first_violation": rep.first_violation}, indent=2))
    else:
        click.echo(f"{which}_k({beta}), k = 0..{K}")
        for k, v in enumerate(rep.values):
            click.echo(f"  {k}: {format_rational(v)}")
        click.echo(f"strictly increasing: {rep.strictly_increasing}")
    sys.exit(0 if rep.strictly_increasing else 1)


@main.command("ladder")
@click.option("--k-max", default=50, type=int)
@click.pass_obj
def ladder(cfg, k_max):
    """Exact verification of the coefficient-ladder inequalities."""
    rep = seriesratio.ladder_check(k_max)
    if cfg.fmt == "json":
        click.echo(json.dumps({
            "k_max": rep["k_max"], "passed": rep["passed"],
            "failures": rep["failures"],
            "C_values": {str(m): v for m, v in rep["C_values"].items()}},
            indent=2))
    else:
        click.echo(f"k_max {rep['k_max']}: "
                   f"{'all inequalities hold' if rep['passed'] else 'FAILED'}")
        for m, v in rep["C_values"].items():
            click.echo(f"  C({m}) = {v}")
        for f in rep["failures"]:
            click.echo(f"  failure: {f}")
    sys.exit(0 if rep["passed"] else 1)


@main.command("unimodal-max")
@click.option("--function", "which", type=click.Choice(["F", "G"]),
              required=True)
@click.option("--beta", required=True)
@click.option("--bracket", default="0.1,60")
@click.option("--tol", default="0.05")
@click.pass_obj
def unimodal_max_cmd(cfg, which, beta, bracket, tol):
    """Enclose the maximizer of a unimodal ratio function."""
    beta_f = _rat(beta)
    try:
        lo_s, hi_s = bracket.split(",")
    except ValueError:
        raise click.UsageError("bracket must be lo,hi")
    base = seriesratio.f_beta if which == "F" else seriesratio.g_beta
    res = seriesratio.unimodal_max(
        lambda u, d: base(u, beta_f, d),
        (_rat(lo_s), _rat(hi_s)), _rat(tol),
        digits=min(cfg.precision, 40))
    if cfg.fmt == "json":
        click.echo(json.dumps({
            "function": which, "beta": beta,
            "argmax": [format_rational(res.argmax.lo),
                       format_rational(res.argmax.hi)],
            "max": [format_rational(res.value.lo),
                    format_rational(res.value.hi)],
            "resolved": res.resolved}, indent=2))
    else:
        click.echo(f"argmax in {res.argmax.decimal_str(8)}")
        click.echo(f"max in {res.value.decimal_str(8)}")
        click.echo(f"resolved: {res.resolved}")
    sys.exit(0 if res.resolved else 2)


@main.command("cm-check")
@click.option("--alpha", required=True)
@click.option("--beta", required=True)
@click.option("--r", required=True)
@click.option("--orders", default=8, type=int)
@click.pass_obj
def cm_check_cmd(cfg, alpha, beta, r, orders):
    """Sign-enclosure degree evidence for the exponential/trigamma gap."""
    grid = _parse_grid(cfg.grid)
    rep = cmdegree.cm_check(
        cmdegree.h_expression(_rat(alpha), _rat(beta)), _rat(r), orders,
        grid, digits=min(cfg.precision, 40),
        name=f"gap(alpha={alpha},beta={beta})")
    if cfg.fmt == "json":
        click.echo(rep.to_json())
    else:
        click.echo(f"{rep.function} at degree {format_rational(rep.r)}, "
                   f"orders 0..{rep.N}: {rep.summary}")
        for c in rep.cells:
            if c.verdict != "pass":
                click.echo(f"  n={c.n} t={format_rational(c.t)}: {c.verdict} "
                           f"{c.value.decimal_str(10)}")
    sys.exit(rep.exit_code())


@main.command("p-limit")
@click.option("--t", "t_values", required=True,
              help="comma-separated rational evaluation points")
@click.pass_obj
def p_limit(cfg, t_values):
    """Enclosures of the first-derivative degree bound p(t)."""
    pts = [_rat(s) for s in t_values.split(",")]
    encs = cmdegree.p_limit_scan(pts, digits=min(cfg.precision, 30))
    if cfg.fmt == "csv":
        click.echo("t,lo,hi")
        for t, e in zip(pts, encs):
            click.echo(f"{format_rational(t)},{format_rational(e.lo)},"
                       f"{format_rational(e.hi)}")
    elif cfg.fmt == "json":
        click.echo(json.dumps([
            {"t": format_rational(t), "lo": format_rational(e.lo),
             "hi": format_rational(e.hi)} for t, e in zip(pts, encs)]))
    else:
        for t, e in zip(pts, encs):
            click.echo(f"p({format_rational(t)}) = {e.decimal_str(12)}")
    sys.exit(0)


@main.command("verify-identity")
@click.option("--k", default=0, type=int)
@click.option("--terms", "N", default=40, type=int)
@click.pass_obj
def verify_identity_cmd(cfg, k, N):
    """Exact termwise check of the truncated-exponential transforms."""
    rep = cmdegree.verify_identity(k, N)
    if cfg.fmt == "json":
        click.echo(json.dumps({
            "k": k, "N": N, "passed": rep["passed"],
            "constant": format_rational(rep["constant"]),
            "mismatches": rep["mismatches"]}))
    else:
        click.echo(f"k={k}, N={N}: "
                   f"{'all coefficients match' if rep['passed'] else 'MISMATCH'}"
                   f" (constant {format_rational(rep['constant'])})")
    sys.exit(0 if rep["passed"] else 1)


@main.command("conjecture-scan")
@click.option("--k", required=True, type=int)
@click.pass_obj
def conjecture_scan_cmd(cfg, k):
    """Search for sign-definite counterexamples to the order-k inequality."""
    grid = _parse_grid(cfg.grid)
    rep = cmdegree.conjecture_scan(k, grid, digits=min(cfg.precision, 40))
    payload = {
        "claim": f"i_{k}(u) >= kernel^({k - 1})(u) on the grid",
        "grid": [format_rational(u) for u in grid],
        "precision": min(cfg.precision, 40),
    }
    if rep["counterexample"] is not None:
        ce = rep["counterexample"]
        payload["counterexample"] = {
            "u": format_rational(ce["u"]),
            "margin": [format_rational(ce["margin"].lo),
                       format_rational(ce["margin"].hi)]}
    if cfg.fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    else:
        if "counterexample" in payload:
            ce = payload["counterexample"]
            click.echo(f"counterexample at u = {ce['u']}: "
                       f"margin [{ce['margin'][0]}, {ce['margin'][1]}]")
        else:
            click.echo(f"no counterexample found on grid at precision "
                       f"{payload['precision']}")
    sys.exit(1 if "counterexample" in payload else 0)


@main.command("reproduce-paper")
@click.pass_obj
def reproduce_paper(cfg):
    """Run the full certification battery and emit one summary document."""
    lines = []
    ok = True

    def record(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok = ok and passed
        status = "pass" if passed else "FAIL"
        lines.append(f"[{status}] {name}" + (f": {detail}" if detail else ""))

    f4 = poly.Polynomial.of(expring.F4_REFERENCE_COEFFS)
    bks = poly.cargo_shisha_bounds(f4)
    record("sandwich coefficients",
           bks[0] == expring.F4_REFERENCE_COEFFS[0]
           and bks[-1] == sum(expring.F4_REFERENCE_COEFFS, Fraction(0))
           and min(bks) > 0, f"b_0 = {format_rational(bks[0])}")

    cert = poly.certify_positive_on_interval(f4, 0, 6, 1)
    record("degree-28 positivity", cert.verdict == "certified",
           f"{len(cert.pieces)} pieces")

    chain = expring.build_F_chain()
    record("derivative chain origin zeros", chain[3]["verified"])
    _, _, pade = expring.build_f4_via_pade()
    record("two-sided bound reconstruction",
           pade["matches_reference"]
           and pade["sextic_factor_positive_on_0_6"] == "certified"
           and pade["negated_quintic_positive_on_0_6"] == "certified")

    k5 = cmdegree.kernel_certificate(
        5, seriesratio.geometric_grid(Fraction(1, 100), 6, 40), digits=20)
    record("order-5 kernel inequality + ray", k5["passed"])

    cmono = seriesratio.c_ratio_sequence(1, 200)
    Cmono = seriesratio.C_ratio_sequence(Fraction(1, 2), 100)
    record("ratio monotonicity",
           cmono.first_violation in (None, 0) and cmono.nondecreasing
           and Cmono.strictly_increasing)

    lad = seriesratio.ladder_check(50)
    record("integer ladder", lad["passed"])

    fsmall = seriesratio.f_beta(Fraction(1, 10 ** 6), 1, 10)
    flarge = seriesratio.f_beta(100, 1, 10)
    h100 = specfun.exp_enclosure(Fraction(1, 100), 16) \
        - specfun.polygamma(1, 100, 16) - 1
    p5 = cmdegree.p_value(10 ** 5, 10)
    record("limit battery",
           abs(fsmall.mid - 1) < Fraction(1, 10 ** 4)
           and flarge.hi < Fraction(1, 10 ** 3)
           and 0 < h100.lo and h100.hi < Fraction(1, 100)
           and abs(p5.mid - 4) < Fraction(1, 10 ** 3))

    grid25 = seriesratio.geometric_grid(Fraction(1, 100), 1000, 25)
    deg = cmdegree.cm_check(cmdegree.h_expression(1, 1), 4, 8, grid25,
                            digits=25)
    viol = cmdegree.find_degree_violation(cmdegree.h_expression(1, 1),
                                          Fraction(9, 2), 1, 10 ** 7)
    record("degree evidence at (1,1)",
           deg.summary == "pass" and viol is not None)

    idents = all(cmdegree.verify_identity(k, 40)["passed"]
                 for k in range(7))
    record("transform identities", idents)

    mf = seriesratio.unimodal_max(
        lambda u, d: seriesratio.f_beta(u, Fraction(1, 2), d),
        (Fraction(1, 10), 60), Fraction(1, 20), digits=20)
    record("unimodal maximum exceeds 1", mf.value.lo > 1,
           f"max in {mf.value.decimal_str(6)}")

    for line in lines:
        click.echo(line)
    click.echo("summary: " + ("all checks passed" if ok
                              else "some checks FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
