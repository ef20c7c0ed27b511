"""Certification toolkit for exponential/trigamma gap analysis.

Exact polynomial positivity certificates, rigorous series enclosures for the
special functions involved, monotonicity and unimodality analysis of the
Bessel-kernel ratio functions, and completely-monotonic-degree evidence for
the gap between a stretched exponential and the trigamma function.
"""

import importlib.util
import sys

__version__ = "1.0.0"

_EXPORTS = {
    "enclosure": ("Enclosure", "format_rational", "to_fraction"),
    "poly": ("PieceReport", "Polynomial", "PositivityCertificate",
             "cargo_shisha_bounds", "certify_positive_on_interval",
             "compose_affine", "descartes_sign_changes", "isolate_root",
             "lemma1_exp_bounds", "taylor_shift"),
    "specfun": ("bernoulli", "bessel_ratio", "exp_enclosure", "k_tail",
                "polygamma"),
    "expring": ("ExpPoly", "ExpPolyQuotient", "build_F_chain",
                "build_f4_via_pade", "eval_enclosure", "kernel_derivative",
                "series_at_zero"),
    "seriesratio": ("C_ratio_sequence", "c_ratio_sequence", "f_beta",
                    "g_beta", "ladder_check", "unimodal_max"),
    "cmdegree": ("CMExpression", "DegreeReport", "cm_check", "h_expression",
                 "kernel_certificate", "verify_identity"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]

# Each submodule is registered in sys.modules and bound here now, but runs
# on its first attribute access, so a command compiles only what it uses.
# LazyLoader, not a PEP 562 __getattr__ alone, because perfbench's tracer
# finds the modules it rebinds in sys.modules.
for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    globals()[_name] = _module


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
