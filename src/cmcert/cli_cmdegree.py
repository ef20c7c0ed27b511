"""Handlers of the degree and kernel commands: kernel-ineq, cm-check,
p-limit, verify-identity and conjecture-scan.  Each command's doc and
options are its `cli._COMMANDS` entry, and `cli.main` imports this module
only to run one of them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str

from .cli import _emit, _ends, _parse_grid, _rat
from . import cmdegree


def kernel_ineq(cfg, k):
    rep = cmdegree.kernel_certificate(k, _parse_grid(cfg.grid),
                                      digits=min(cfg.precision, 40))
    header = ("u", "lo", "hi", "verdict")
    rows = [(str(c["u"]), *_ends(c["margin"]), c["verdict"])
            for c in rep["cells"]]
    doc = {"k": k, "passed": rep["passed"],
           "cells": [dict(zip(header, row)) for row in rows], "ray": None}
    text = [f"u={c['u']}: margin {c['margin'].decimal_str(12)} {c['verdict']}"
            for c in rep["cells"]]
    if "ray" in rep:
        ray = rep["ray"]
        doc["ray"] = {"from": str(ray["from"]),
                      "K4_at_7": _ends(ray["K4_at_7"]),
                      "threshold": str(ray["threshold"]),
                      "certified": ray["certified"]}
        text.append(f"ray [{ray['from']}, inf): "
                    f"K_4(7) = {ray['K4_at_7'].decimal_str(12)} "
                    f"< 1/720: {ray['certified']}")
    _emit(cfg, lambda: json.dumps(doc, indent=2), text, [header] + rows,
          rep["verdict"])


def _degree_json(rep, name: str) -> str:
    """json.dumps(..., indent=2) of the report, written directly: with
    an indent, json.dumps always runs the pure-Python encoder."""
    grid = [f'"{t}"' for t in rep.grid]
    cells = [f'{{\n      "n": {c.n},\n      "t": "{c.t}",\n'
             f'      "lo": "{c.value.lo}",\n      "hi": "{c.value.hi}",\n'
             f'      "verdict": {_json_str(c.verdict)}\n    }}'
             for c in rep.cells]
    return (f'{{\n  "function": {_json_str(name)},\n'
            f'  "r": "{rep.r}",\n  "N": {rep.N},\n'
            f'  "grid": {_json_list(grid)},\n'
            f'  "cells": {_json_list(cells)},\n'
            f'  "summary": {_json_str(rep.summary)},\n'
            f'  "note": "finite-order evidence only, not a proof of '
            f'complete monotonicity"\n}}')


def _json_list(items: list) -> str:
    """A JSON list of encoded items at the second level of indent=2."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def cm_check_cmd(cfg, alpha, beta, r, orders):
    rep = cmdegree.cm_check(
        cmdegree.h_expression(_rat(alpha), _rat(beta)), _rat(r), orders,
        _parse_grid(cfg.grid), digits=min(cfg.precision, 40))
    name = f"gap(alpha={alpha},beta={beta})"
    _emit(cfg, lambda: _degree_json(rep, name),
          [f"{name} at degree {rep.r}, orders 0..{rep.N}: {rep.summary}"]
          + [f"  n={c.n} t={c.t}: {c.verdict} {c.value.decimal_str(10)}"
             for c in rep.cells if c.verdict != "pass"],
          verdict=rep.summary)


def p_limit(cfg, t):
    digits, h = min(cfg.precision, 30), cmdegree.h_expression()
    pts = cmdegree.scan_points([_rat(s) for s in t.split(",")], lambda x:
                               cmdegree.column_work(h, 0, 1, x, digits), "--t")
    encs = [cmdegree.p_value(t, digits) for t in pts]
    header = ("t", "lo", "hi")
    rows = [(str(t), *_ends(e)) for t, e in zip(pts, encs)]
    _emit(cfg, lambda: json.dumps([dict(zip(header, row)) for row in rows]),
          [f"p({row[0]}) = {e.decimal_str(12)}" for row, e in zip(rows, encs)],
          [header] + rows)


def verify_identity_cmd(cfg, k, terms):
    rep = cmdegree.verify_identity(k, terms)
    constant = str(rep["constant"])
    _emit(cfg, lambda: json.dumps({
        "k": k, "N": terms, "passed": rep["passed"], "constant": constant,
        "mismatches": rep["mismatches"]}),
        [f"k={k}, N={terms}: "
         f"{'all coefficients match' if rep['passed'] else 'MISMATCH'}"
         f" (constant {constant})"],
        verdict="pass" if rep["passed"] else "fail")


def conjecture_scan_cmd(cfg, k):
    rep = cmdegree.conjecture_scan(k, _parse_grid(cfg.grid),
                                   digits=min(cfg.precision, 40))
    payload = {
        "claim": f"i_{k}(u) >= kernel^({k - 1})(u) on the grid",
        "grid": [str(u) for u in rep["grid"]],
        "precision": min(cfg.precision, 40),
    }
    ce = rep["counterexample"]
    if ce is None:
        text = [f"no counterexample found on grid at precision "
                f"{payload['precision']}"]
    else:
        payload["counterexample"] = {"u": str(ce["u"]),
                                     "margin": _ends(ce["margin"])}
        text = [f"counterexample at u = {ce['u']}: "
                f"margin [{', '.join(_ends(ce['margin']))}]"]
    _emit(cfg, lambda: json.dumps(payload, indent=2), text,
          verdict="pass" if ce is None else "fail")
