"""Certification toolkit for exponential/trigamma gap analysis.

Exact polynomial positivity certificates, rigorous series enclosures for the
special functions involved, monotonicity and unimodality analysis of the
Bessel-kernel ratio functions, and completely-monotonic-degree evidence for
the gap between a stretched exponential and the trigamma function.
"""

from .enclosure import Enclosure, format_rational, to_fraction
from .poly import (PieceReport, Polynomial, PositivityCertificate,
                   cargo_shisha_bounds, certify_positive_on_interval,
                   compose_affine, descartes_sign_changes, isolate_root,
                   lemma1_exp_bounds, taylor_shift)
from .specfun import bernoulli, bessel_ratio, exp_enclosure, k_tail, polygamma
from .expring import (ExpPoly, ExpPolyQuotient, build_F_chain,
                      build_f4_via_pade, eval_enclosure, kernel_derivative,
                      series_at_zero)
from .seriesratio import (C_ratio_sequence, c_ratio_sequence, f_beta, g_beta,
                          ladder_check, unimodal_max)
from .cmdegree import (CMExpression, DegreeReport, cm_check, h_expression,
                       kernel_certificate, verify_identity)

__version__ = "1.0.0"

__all__ = [
    "Enclosure", "format_rational", "to_fraction",
    "PieceReport", "Polynomial", "PositivityCertificate",
    "cargo_shisha_bounds", "certify_positive_on_interval", "compose_affine",
    "descartes_sign_changes", "isolate_root", "lemma1_exp_bounds",
    "taylor_shift",
    "bernoulli", "bessel_ratio", "exp_enclosure", "k_tail", "polygamma",
    "ExpPoly", "ExpPolyQuotient", "build_F_chain", "build_f4_via_pade",
    "eval_enclosure", "kernel_derivative", "series_at_zero",
    "C_ratio_sequence", "c_ratio_sequence", "f_beta", "g_beta",
    "ladder_check", "unimodal_max",
    "CMExpression", "DegreeReport", "cm_check", "h_expression",
    "kernel_certificate", "verify_identity",
]
