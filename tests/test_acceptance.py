"""End-to-end acceptance battery.

`test_paper_battery` runs the checks `cmcert reproduce-paper` prints,
`cli.paper_battery()`, each under a wall-clock bound.  The other tests
reproduce the headline results beyond that battery at the stated scale and
tolerance.
"""

import time
from fractions import Fraction

import pytest

from cmcert import cli, cmdegree, expring, poly, seriesratio
from cmcert.poly import Polynomial

from reference_values import (LADDER_QUARTIC_1, LADDER_QUARTIC_2,
                              LADDER_QUINTIC_3, ROOT_QUINTIC,
                              SANDWICH_BOUNDS)

F4 = Polynomial.of(expring.F4_REFERENCE_COEFFS)

# each battery check in order, with its wall-clock bound in seconds
BATTERY_BOUNDS = {
    "sandwich coefficients": 1.0,
    "degree-28 positivity": 5.0,
    "derivative chain origin zeros": 10.0,
    "two-sided bound reconstruction": 10.0,
    "order-5 kernel inequality + ray": 30.0,
    "ratio monotonicity": 20.0,
    "integer ladder": 30.0,
    "limit battery": 30.0,
    "degree evidence at (1,1)": 180.0,
    "transform identities": 1.0,
    "unimodal maximum exceeds 1": 60.0,
}


def test_paper_battery():
    names = []
    start = time.monotonic()
    for name, passed, detail in cli.paper_battery():
        elapsed = time.monotonic() - start
        names.append(name)
        assert passed, (name, detail)
        assert elapsed < BATTERY_BOUNDS[name], (name, elapsed)
        start = time.monotonic()
    assert names == list(BATTERY_BOUNDS)


def test_sandwich_coefficients_reproduced_exactly():
    start = time.monotonic()
    bounds = poly.cargo_shisha_bounds(F4)
    assert bounds == SANDWICH_BOUNDS
    assert min(bounds) > 0
    assert time.monotonic() - start < 1.0


def test_degree28_positivity_chain():
    start = time.monotonic()
    # unit-shift composition: shifting twice by 1 equals shifting once by 2
    double = poly.taylor_shift(poly.taylor_shift(F4, 1), 1)
    assert double == poly.taylor_shift(F4, 2)
    chain = F4
    for k in range(1, 6):
        chain = poly.taylor_shift(chain, 1)
        assert chain == poly.taylor_shift(F4, k)
    assert time.monotonic() - start < 5.0


def test_kernel_inequality_orders_1_to_5():
    start = time.monotonic()
    grid = list(cmdegree.geometric_grid(Fraction(1, 100), Fraction(699, 100),
                                        40))
    for k in range(1, 6):
        report = cmdegree.kernel_certificate(k, grid, digits=20)
        assert report["passed"], f"order {k} failed"
        assert all(c["verdict"] == "pass" for c in report["cells"])
    ray = cmdegree.kernel_certificate(5, [Fraction(1)], digits=20)["ray"]
    assert ray["certified"]
    assert ray["K4_at_7"].hi < Fraction(1, 720)
    assert time.monotonic() - start < 30.0


def test_ratio_monotonicity():
    start = time.monotonic()
    for beta in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
        assert seriesratio.c_ratio_sequence(beta, 2).values[1] == \
            (3 + beta) / 4
        C = seriesratio.C_ratio_sequence(beta, 4).values
        assert C[0] == (beta - 1) / 3
        assert C[1] == (beta * beta + 4 * beta - 4) / 20
    assert time.monotonic() - start < 20.0


@pytest.mark.xfail(reason="the k = 0 step is an equality: both initial ratio "
                          "values are exactly 1, so strict growth starts at "
                          "k = 1", strict=True)
def test_ratio_monotonicity_strict_from_zero():
    c = seriesratio.c_ratio_sequence(1, 2)
    assert c.values[1] > c.values[0]


def test_integer_ladder():
    start = time.monotonic()
    report = seriesratio.ladder_check(50)
    assert report["C_values"] == {0: 181440, 1: 10160640, 2: 252316512,
                                  3: 4549288320, 4: 68981774400,
                                  5: 939390217920}
    assert time.monotonic() - start < 30.0


def test_degree_evidence_pairs():
    start = time.monotonic()
    grid = list(cmdegree.geometric_grid(Fraction(1, 100), 1000, 25))
    cases = [
        ((Fraction(1, 2), Fraction(2)), Fraction(2)),
        ((Fraction(2), Fraction(1)), Fraction(1)),
    ]
    for (alpha, beta), degree in cases:
        gap = cmdegree.h_expression(alpha, beta)
        report = cmdegree.cm_check(gap, degree, 8, grid, digits=25)
        assert report.summary == "pass", (alpha, beta, degree)
        violation = cmdegree.find_degree_violation(
            gap, degree + Fraction(1, 2), 1, 10 ** 7)
        assert violation is not None, (alpha, beta)
        _, slope = violation
        assert slope.lo > 0
    assert time.monotonic() - start < 180.0


def test_unimodality_and_conditions():
    start = time.monotonic()
    down_grid = cmdegree.geometric_grid(Fraction(1, 10), 30, 12)
    signs, changes = seriesratio.slope_sign_changes(
        lambda u, d: seriesratio.g_beta(u, 1, d), down_grid, digits=12)
    assert all(s == -1 for s in signs)
    assert changes == 0

    log_grid = cmdegree.geometric_grid(Fraction(1, 100), 50, 60)
    signs, changes = seriesratio.slope_sign_changes(
        lambda u, d: seriesratio.g_beta(u, Fraction(1, 2), d), log_grid,
        digits=12)
    assert changes == 1
    assert 0 not in signs
    assert time.monotonic() - start < 60.0


def test_root_and_sign_remarks():
    start = time.monotonic()
    f6 = Polynomial.of(ROOT_QUINTIC)
    assert f6(6) == -864
    assert f6(8) == 608

    p1 = Polynomial.of(LADDER_QUARTIC_1)
    p2 = Polynomial.of(LADDER_QUARTIC_2)
    p3 = Polynomial.of(LADDER_QUINTIC_3)
    assert p1(0) == -756
    assert p1(2) == 864
    assert p2(0) == 252
    assert p2(3) == -216
    assert p2(6) == 288
    assert poly.descartes_sign_changes(p1) == 1
    assert poly.descartes_sign_changes(p2) == 2
    assert poly.descartes_sign_changes(p3) == 1

    # the value 1530 belongs to argument 2; at 1 the quintic is still
    # negative, so its unique positive root lies in (1, 2)
    assert p3(0) == -1728
    assert p3(1) == -1806
    assert p3(2) == 1530
    lo, hi = poly.isolate_root(p3, 0, 6, Fraction(1, 64))
    assert 1 < lo < hi < 2
    assert time.monotonic() - start < 1.0


@pytest.mark.xfail(reason="the quoted bracketing value 1530 is attained at "
                          "argument 2, not 1; the exact value at 1 is -1806",
                   strict=True)
def test_root_remark_quoted_value_at_one():
    p3 = Polynomial.of(LADDER_QUINTIC_3)
    assert p3(1) == 1530
