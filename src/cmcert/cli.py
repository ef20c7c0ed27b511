"""Command-line front end for the certification toolkit.

Every certification and scan is a subcommand; reports are deterministic and
stream as text, JSON or CSV.  Exit codes: EXIT_CODES of the verdict, 64
usage error or out-of-range argument, 65 config error.  This module reads
the command line and holds what every command shares; each command's
handler lives in the cli_* module of the domain module it formats, and
only the module of the command that runs is imported.
"""

from __future__ import annotations

import importlib
import os
import sys
from fractions import Fraction

from .enclosure import Enclosure, Record, check_range
from . import cmdegree

# the exit code of each verdict word, ordered by enclosure.VERDICT_RANK
EXIT_CODES = {"pass": 0, "certified": 0, "fail": 1, "falsified": 1,
              "indeterminate": 2, "inconclusive": 2}
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
                        values[key] = (_int(val, "precision")
                                       if key == "precision" else val)
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


def _int(value: str, what: str) -> int:
    """int(value), once its digits are within RATIONAL_MAX_DIGITS: int()
    reads every one of them before any range check."""
    check_range(f"digits {what}", sum(map(str.isdigit, value)), 0,
                RATIONAL_MAX_DIGITS)
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{what} {value!r:.40} is not an integer")


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
        lo, hi, count = _rat(lo_s), _rat(hi_s), _int(count_s, "count")
    except ValueError:
        raise ValueError(f"bad grid spec {spec!r:.40}; "
                         "expected scale:lo,hi,count")
    builders = {"geometric": cmdegree.geometric_grid,
                "linear": cmdegree.linear_grid}
    if scale not in builders:
        raise ValueError(f"unknown grid scale {scale!r}")
    return builders[scale](lo, hi, count)


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
        values[flags[flag]] = _int(value, flag) if keys.get("type") else value
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


class Command(Record):
    # `function` of the module cmcert.<module>, called as
    # function(cfg, **options) once `options` are read
    __slots__ = _fields = ("module", "function", "doc", "options")


_COMMANDS = {
    "certify-poly": Command(
        "cli_poly", "certify_poly",
        "Certify p > 0 for a polynomial p on the closed interval [lo, hi].",
        dict(file=dict(required=True),
             interval=dict(required=True, help="lo,hi rationals"),
             step=dict(default="1", help="shift step for the piece chain"))),
    "shift-chain": Command(
        "cli_poly", "shift_chain",
        "Print the polynomial after successive unit Taylor shifts.",
        dict(file=dict(required=True),
             shifts=dict(default=1, type=int, help="number of unit shifts"))),
    "lemma1-bounds": Command(
        "cli_poly", "lemma1_bounds",
        "Print the two-sided exponential bound numerators and their range.",
        dict(m=dict(default=2, type=int), n=dict(default=3, type=int))),
    "bessel": Command(
        "cli_specfun", "bessel",
        "Enclosure of the normalized Bessel series at order k.",
        dict(k=dict(required=True, type=int), u=dict(required=True))),
    "polygamma": Command(
        "cli_specfun", "polygamma_cmd",
        "Enclosure of the n-th polygamma derivative at x.",
        dict(n=dict(required=True, type=int), x=dict(required=True))),
    "ktail": Command(
        "cli_specfun", "ktail",
        "Enclosure of the exponential tail sum K_ell(a).",
        dict(ell=dict(required=True, type=int), a=dict(required=True))),
    "kernel-ineq": Command(
        "cli_cmdegree", "kernel_ineq",
        "Grid certificate of the order-k Bessel/kernel inequality.",
        dict(k=dict(required=True, type=int))),
    "ratio-mono": Command(
        "cli_seriesratio", "ratio_mono",
        "Exact coefficient-ratio sequence with a monotonicity verdict.",
        dict(which=dict(choices=["c", "C"], required=True),
             beta=dict(required=True), count=dict(default=50, type=int))),
    "ladder": Command(
        "cli_seriesratio", "ladder",
        "Exact verification of the coefficient-ladder inequalities.",
        dict(k_max=dict(default=50, type=int))),
    "unimodal-max": Command(
        "cli_seriesratio", "unimodal_max_cmd",
        "Enclose the maximizer of a unimodal ratio function.",
        dict(function=dict(choices=["F", "G"], required=True),
             beta=dict(required=True), bracket=dict(default="0.1,60"),
             tol=dict(default="0.05"))),
    "cm-check": Command(
        "cli_cmdegree", "cm_check_cmd",
        "Sign-enclosure degree evidence for the exponential/trigamma gap.",
        dict(alpha=dict(required=True), beta=dict(required=True),
             r=dict(required=True), orders=dict(default=8, type=int))),
    "p-limit": Command(
        "cli_cmdegree", "p_limit",
        "Enclosures of the first-derivative degree bound p(t).",
        dict(t=dict(required=True,
                    help="comma-separated rational evaluation points"))),
    "verify-identity": Command(
        "cli_cmdegree", "verify_identity_cmd",
        "Exact termwise check of the truncated-exponential transforms.",
        dict(k=dict(default=0, type=int), terms=dict(default=40, type=int))),
    "conjecture-scan": Command(
        "cli_cmdegree", "conjecture_scan_cmd",
        "Search for sign-definite counterexamples to the order-k inequality.",
        dict(k=dict(required=True, type=int))),
    "reproduce-paper": Command(
        "cli_paper", "reproduce_paper",
        "Run the full certification battery and emit one summary document.",
        {}),
}


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
                f"\n  {c:15}  {cmd.doc}" for c, cmd in _COMMANDS.items()))
        name = words.pop(0) if words else None
        if name not in _COMMANDS:
            raise ValueError("no command given" if name is None
                             else f"unknown command {name!r}")
        cfg = _build_config(opts.pop("config"), opts)
        cmd = _COMMANDS[name]
        kwargs = _read_options(cmd.options, words, f"{prog_name} {name}",
                               cmd.doc)
        if words:
            raise ValueError(f"unexpected argument {words[0]!r}")
        handlers = importlib.import_module(f"cmcert.{cmd.module}")
        getattr(handlers, cmd.function)(cfg, **kwargs)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EX_USAGE)
    except KeyboardInterrupt:
        print(file=sys.stderr)  # end the line that shows the ^C
        sys.exit(EX_USAGE)


# perfbench/child.py calls cli.main.main(args=..., prog_name="cmcert")
main.main = main


def _emit(cfg: RunConfig, doc, text, rows=None, verdict: str = "pass"):
    """Print one report in the configured format; exit EXIT_CODES[verdict].

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
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:  # the reader left: the signal docs' SIGPIPE note
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(EXIT_CODES[verdict])


def _ends(enc: Enclosure) -> list:
    return [str(enc.lo), str(enc.hi)]


if __name__ == "__main__":
    sys.modules["cmcert.cli"] = sys.modules[__name__]  # one copy for handlers
    main()
