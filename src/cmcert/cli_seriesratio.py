"""Handlers of the coefficient-ratio commands: ratio-mono, ladder and
unimodal-max.  Each command's doc and options are its `cli._COMMANDS`
entry, and `cli.main` imports this module only to run one of them.
"""

from __future__ import annotations

import json

from .cli import _emit, _ends, _pair, _rat
from . import seriesratio


def ratio_mono(cfg, which, beta, count):
    sequence = {"c": seriesratio.c_ratio_sequence,
                "C": seriesratio.C_ratio_sequence}[which]
    rep = sequence(_rat(beta), count)
    values = [str(v) for v in rep.values]
    _emit(cfg, lambda: json.dumps({
        "sequence": which, "beta": beta, "values": values,
        "strictly_increasing": rep.strictly_increasing,
        "first_violation": rep.first_violation}, indent=2),
        [f"{which}_k({beta}), k = 0..{count}"]
        + [f"  {k}: {v}" for k, v in enumerate(values)]
        + [f"strictly increasing: {rep.strictly_increasing}"],
        [("k", "value")] + [(str(k), v) for k, v in enumerate(values)],
        "pass" if rep.strictly_increasing else "fail")


def ladder(cfg, k_max):
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
        verdict="pass" if rep["passed"] else "fail")


def unimodal_max_cmd(cfg, function, beta, bracket, tol):
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
        verdict="pass" if res.resolved else "indeterminate")
