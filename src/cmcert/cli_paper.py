"""The paper's battery and its command, reproduce-paper.  The command's doc
is its `cli._COMMANDS` entry, and `cli.main` imports this module only to
run it.
"""

from __future__ import annotations

from fractions import Fraction

from .cli import _emit
from . import cmdegree, expring, poly, seriesratio


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
           and min(bks) > 0, f"b_0 = {bks[0]}")

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


def reproduce_paper(cfg):
    lines = []
    ok = True
    for name, passed, detail in paper_battery():
        ok = ok and passed
        lines.append(f"[{'pass' if passed else 'FAIL'}] {name}"
                     + (f": {detail}" if detail else ""))
    _emit(cfg, None, lines + ["summary: " + ("all checks passed" if ok
                                             else "some checks FAILED")],
          verdict="pass" if ok else "fail")
