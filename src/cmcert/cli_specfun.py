"""Handlers of the special-function commands: bessel, polygamma and ktail.
Each command's doc and options are its `cli._COMMANDS` entry, and
`cli.main` imports this module only to run one of them.
"""

from __future__ import annotations

import json

from .cli import _emit, _ends, _rat
from .enclosure import Enclosure
from . import specfun


def _emit_enclosure(cfg, label: str, enc: Enclosure):
    lo, hi = _ends(enc)
    _emit(cfg, lambda: json.dumps({"label": label, "lo": lo, "hi": hi}),
          [f"{label} = {enc.decimal_str(min(cfg.precision, 40))}"],
          [("label", "lo", "hi"), (label, lo, hi)])


def bessel(cfg, k, u):
    _emit_enclosure(cfg, f"i_{k}({u})",
                    specfun.bessel_ratio(k, _rat(u), cfg.precision))


def polygamma_cmd(cfg, n, x):
    _emit_enclosure(cfg, f"psi^({n})({x})",
                    specfun.polygamma(n, _rat(x), cfg.precision))


def ktail(cfg, ell, a):
    _emit_enclosure(cfg, f"K_{ell}({a})",
                    specfun.k_tail(ell, _rat(a), cfg.precision))
