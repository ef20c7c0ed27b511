import functools
import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cmcert import cmdegree, specfun
from cmcert.cmdegree import CMExpression
from cmcert.enclosure import Enclosure, format_rational
from cmcert.expring import eval_enclosure, kernel_derivative

import reference_values
from reference_values import (polygamma_hurwitz, polygamma_per_order,
                              rational_power_enclosure, round_out_fraction)


def _float_at(expr: CMExpression, t: Fraction) -> float:
    e = expr.evaluate(t, 30)
    return float((e.lo + e.hi) / 2)


def test_expression_derivative_matches_finite_difference():
    expr = CMExpression.of([
        (Fraction(3, 2), Fraction(3, 2), ("exp", Fraction(2))),
        (Fraction(-1), Fraction(-1), ("psi", 1)),
        (Fraction(5), Fraction(2), ("const",)),
    ])
    d = expr.derivative()
    h = Fraction(1, 10 ** 5)
    for t in (Fraction(1), Fraction(3)):
        fd = (_float_at(expr, t + h) - _float_at(expr, t - h)) / float(2 * h)
        assert abs(fd - _float_at(d, t)) < 1e-4


def _combine(*parts) -> CMExpression:
    """sum of c * expr over the (c, expr) parts, merged by CMExpression.of."""
    return CMExpression.of([(c * k, p, a) for c, expr in parts
                            for k, p, a in expr.terms])


def test_expression_algebra():
    a = CMExpression.of([(1, 0, ("const",))])
    assert _combine((1, a), (-1, a)).terms == ()
    tripled = _combine((3, a)).evaluate(2, 10)
    assert tripled.lo <= 3 <= tripled.hi
    shifted = a.mul_power(Fraction(2)).evaluate(3, 10)
    assert shifted.lo <= 9 <= shifted.hi
    assert CMExpression.of([]).derivative().terms == ()


@functools.lru_cache(maxsize=4096)
def _eval_atom(atom, t: Fraction, digits: int) -> Enclosure:
    if atom[0] == "exp":
        return specfun.exp_enclosure(atom[1] / t, digits)
    if atom[0] == "psi":
        return specfun.polygamma(atom[1], t, digits)
    return Enclosure.point(1)


def _fraction_evaluate(expr: CMExpression, t: Fraction, digits: int):
    """Reference: the exact Enclosure sum that evaluate's integer sums
    replaced, with the same atoms and t^p enclosures."""
    total = Enclosure.point(0)
    for c, p, atom in expr.terms:
        tp = rational_power_enclosure(t, p, digits + 8)
        total = total + tp * _eval_atom(atom, t, digits + 8) * c
    return total.round_out(digits + 1)


# (alpha, beta, r) of the benchmark's cm-check runs: the three theorem
# pairs at their degrees and the violation at (1, 1), r = 9/2
@pytest.mark.parametrize("alpha,beta,r", [
    (1, 1, 4), (Fraction(1, 2), 2, 2), (2, 1, 1), (1, 1, Fraction(9, 2))])
def test_evaluate_matches_fraction_summation(alpha, beta, r):
    grid = cmdegree.geometric_grid(Fraction(1, 100), 1000, 25)
    expr = cmdegree.h_expression(alpha, beta).mul_power(r)
    for n in range(17):
        if n:
            expr = expr.derivative()
        for t in grid:
            assert expr.evaluate(t, 40) == _fraction_evaluate(expr, t, 40), \
                (n, t)


# sha256 of to_json() of the cm-scan benchmark's four cm_check calls on the
# default grid at 40 digits, recorded before the columns were summed on
# pre-scaled atoms from the integer derivative tower: a faster column must
# not move a byte
CM_SCAN_JSON = {
    (1, 1, 4, 16):
        "ad6a9d1af289e78db10cd44b2171c6b7b2c0220ef5e1e806c897527b50acbc19",
    (Fraction(1, 2), 2, 2, 16):
        "1062fe474cd39e4511cf3fa56bc1fffc371ede482d214af34ba221960c0b1f36",
    (2, 1, 1, 16):
        "92b78c994b387fe6aadd276fdba7e9c7b06d6214ce42c428470973324fa8aae0",
    (1, 1, Fraction(9, 2), 8):
        "e806ac2a332d224c5ec6419f8dccb9fe57545d929494dc619517e58759352fb3",
}


@pytest.mark.parametrize("alpha,beta,r,orders", list(CM_SCAN_JSON),
                         ids=str)
def test_cm_scan_reports_keep_their_bytes(alpha, beta, r, orders):
    grid = cmdegree.geometric_grid(Fraction(1, 100), 1000, 25)
    report = cmdegree.cm_check(cmdegree.h_expression(alpha, beta), r,
                               orders, grid, digits=40)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == CM_SCAN_JSON[alpha, beta, r, orders]


def _term_rationals(terms):
    """{(power, atom): coefficient} with exp atoms spelt as rows spell them."""
    return {(p, ("exp", a[1].numerator, a[1].denominator)
             if a[0] == "exp" else a): c for c, p, a in terms}


def _assert_rows_are_the_derivative_terms(f, r, N):
    """Each order's rows, reduced, are the terms of repeated derivative(),
    and the column's psi_top is that of the last order."""
    tower = cmdegree._derivative_rows(f, Fraction(r), N)
    expr = f.mul_power(r)
    for n, rows in enumerate(tower):
        if n:
            expr = expr.derivative()
        assert all(math.gcd(c, d) == 1 and d > 0 and math.gcd(u, v) == 1
                   for c, d, (_, u, v), _ in rows), n
        assert {(Fraction(u, v), a): Fraction(c, d)
                for c, d, (_, u, v), a in rows} == \
            _term_rationals(expr.terms), n
        assert len(rows) == len(expr.terms), n
    top = max([a[1] for _, _, a in expr.terms if a[0] == "psi"] + [0])
    assert cmdegree._psi_top(tower[-1]) == top


@pytest.mark.parametrize("alpha,beta,r", [
    (1, 1, 4), (Fraction(1, 2), 2, 2), (2, 1, 1), (1, 1, Fraction(9, 2)),
    (1, 1, Fraction(-1, 2)), (1, 1, Fraction(7, 3)),
    (Fraction(3, 2), -3, Fraction(5, 2))])
def test_derivative_rows_are_the_derivative_terms(alpha, beta, r):
    _assert_rows_are_the_derivative_terms(
        cmdegree.h_expression(alpha, beta), r, 30)


def test_derivative_rows_of_mixed_power_denominators():
    # powers over 2, 4 and 3 and exp atoms over 3 and 2: V = 12, L = 6
    f = CMExpression.of([
        (Fraction(3, 2), Fraction(3, 2), ("exp", Fraction(2, 3))),
        (7, -1, ("exp", Fraction(-1, 2))),
        (Fraction(-1, 5), Fraction(-1, 4), ("psi", 2)),
        (5, 2, ("const",))])
    _assert_rows_are_the_derivative_terms(f, Fraction(1, 3), 30)


def _per_cell_paths(expr, n, t, digits):
    """The cell at (n, t) from a fresh table per evaluation and from the
    Enclosure-sum reference, each escalating like cm_check, and the digit
    counts the fresh-table path used."""
    sign = (-1) ** n
    used = []

    def fresh(d):
        used.append(d)
        return expr.evaluate(t, d) * sign

    cell = cmdegree._sign_definite(fresh, digits)
    reference = cmdegree._sign_definite(
        lambda d: _fraction_evaluate(expr, t, d) * sign, digits)
    return cell, reference, used


def _assert_column_matches_per_cell(f, r, N, grid, digits):
    report = cmdegree.cm_check(f, r, N, grid, digits=digits)
    assert [(c.n, c.t) for c in report.cells] == \
        [(n, t) for n in range(N + 1) for t in report.grid]
    expr = f.mul_power(r)
    width = len(report.grid)
    escalated = False
    for n in range(N + 1):
        if n:
            expr = expr.derivative()
        for cell in report.cells[n * width:(n + 1) * width]:
            fresh, reference, used = _per_cell_paths(expr, n, cell.t, digits)
            assert (cell.value, cell.verdict) == fresh == reference, \
                (n, cell.t)
            escalated |= len(used) > 1
    return escalated


_points = st.one_of(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 100),
                 max_denominator=10 ** 4),
    st.fractions(min_value=Fraction(1, 100), max_value=1000,
                 max_denominator=100),
    st.fractions(min_value=1000, max_value=10 ** 5, max_denominator=10))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=8),
       st.fractions(min_value=-2, max_value=2, max_denominator=8),
       st.integers(min_value=-4, max_value=10).map(lambda k: Fraction(k, 2)),
       st.integers(min_value=1, max_value=12),
       st.lists(_points, min_size=1, max_size=2, unique=True),
       st.integers(min_value=10, max_value=40))
@example(Fraction(1), Fraction(1), Fraction(4), 12,
         [Fraction(1, 200), Fraction(1000)], 10)
def test_column_table_matches_per_cell_evaluation(alpha, beta, r, N, grid,
                                                  digits):
    f = cmdegree.h_expression(alpha, beta)
    _assert_column_matches_per_cell(f, r, N, grid, digits)


def test_column_escalation_matches_per_cell_evaluation():
    # the cm-scan benchmark's one escalation: (1, 1), r = 4, order 16 at
    # t = 1000 meets 0 at 40 digits and is settled at 80
    f = cmdegree.h_expression(1, 1)
    assert _assert_column_matches_per_cell(f, 4, 16, [Fraction(1000)], 40)


def _assert_psi_entries_match_per_order(table, digits, orders):
    """Each psi entry of the table at `digits`, times 10**-(digits+12), is
    the endpoints of the per-order reference polygamma at digits + 8, and no
    entry is missing."""
    scale = 10 ** (digits + 12)
    for n in orders:
        key = (digits, ("psi", n))
        assert key in table, n
        lo, hi = table[key]
        ref = polygamma_per_order(n, table.t, digits + 8)
        assert (Fraction(lo, scale), Fraction(hi, scale)) == \
            (ref.lo, ref.hi), (n, table.t, digits)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=12),
       st.one_of(
           st.integers(min_value=1, max_value=10 ** 5).map(Fraction),
           st.fractions(min_value=Fraction(1, 10 ** 4), max_value=10 ** 5,
                        max_denominator=10 ** 9)),
       st.integers(min_value=5, max_value=90))
def test_point_table_psi_jet_matches_per_order_polygamma(n, span, t, digits):
    # the first psi miss fills orders n..top from one jet; each order's
    # endpoints must be those of its own per-order sum and escalation
    top = min(n + span, 30)
    table = cmdegree.PointTable(t, top)
    table[digits, ("psi", n)]
    _assert_psi_entries_match_per_order(table, digits, range(n, top + 1))


def test_point_table_psi_escalation_matches_per_order_polygamma(monkeypatch):
    # orders whose asymptotic terms stop decreasing at the first lift are
    # planted, with a gap, in the jet and in the per-order reference alike:
    # only they are summed again, at twice the lift target, and orders 6-8
    # keep their first result although the second jet runs over them
    t, digits = Fraction(7, 3), 30
    first_m = math.ceil(max(20, digits + 8) - t)
    planted = {5, 9, 14, 15, 16}
    jet = specfun._polygamma_mantissas
    per_order = reference_values.polygamma_mantissas_per_order
    calls = []

    def planted_jet(n0, N, a, b, m, tol_den, guard=64):
        calls.append((n0, N, m))
        bodies = jet(n0, N, a, b, m, tol_den, guard)
        return [None if m == first_m and n in planted else body
                for n, body in enumerate(bodies, n0)]

    def planted_per_order(n, a, b, m, tol_den, p):
        if m == first_m and n in planted:
            return None
        return per_order(n, a, b, m, tol_den, p)

    monkeypatch.setattr(specfun, "_polygamma_mantissas", planted_jet)
    monkeypatch.setattr(reference_values, "polygamma_mantissas_per_order",
                        planted_per_order)
    table = cmdegree.PointTable(t, 16)
    table[digits, ("psi", 1)]
    assert calls == [(1, 16, first_m),
                     (5, 16, math.ceil(2 * max(20, digits + 8) - t))]
    _assert_psi_entries_match_per_order(table, digits, range(1, 17))

    monkeypatch.setattr(specfun, "_polygamma_mantissas",
                        lambda n0, N, *args: [None] * (N - n0 + 1))
    with pytest.raises(RuntimeError):
        cmdegree.PointTable(t, 3)[digits, ("psi", 1)]


def test_point_table_integer_powers_are_exact():
    table = cmdegree.PointTable(Fraction(3, 7), 0)
    assert table[10, ("pow", 3, 1)] == (27, 27, 343)
    assert table[10, ("pow", -2, 1)] == (49, 49, 9)
    assert table[10, ("pow", 0, 1)] == (1, 1, 1)


def test_point_table_atoms_are_the_enclosure_ratios():
    # exp and const entries times 10**-(digits+12) are the rationals of
    # Enclosure.ratio() of the enclosures at digits + 8
    t, digits = Fraction(3, 7), 20
    table = cmdegree.PointTable(t, 0)
    scale = 10 ** (digits + 12)

    def rationals(key):
        return tuple(Fraction(end, scale) for end in table[digits, key])

    def ratio(e):
        lo, hi, den = e.ratio()
        return Fraction(lo, den), Fraction(hi, den)

    assert rationals(("exp", 2, 5)) == \
        ratio(specfun.exp_enclosure(Fraction(2, 5) / t, digits + 8))
    assert rationals(("exp", -3, 1)) == \
        ratio(specfun.exp_enclosure(-3 / t, digits + 8))
    assert rationals(("const",)) == ratio(Enclosure.point(1))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10 ** 4), max_value=10 ** 4,
                    max_denominator=10 ** 6),
       st.integers(min_value=-40, max_value=40),
       st.sampled_from([2, 3]),
       st.integers(min_value=10, max_value=60))
@example(Fraction(3, 7), 5, 2, 20)
@example(Fraction(3, 7), -3, 2, 20)
def test_point_table_roots_are_the_rational_power_enclosures(t, u, v, digits):
    # a root entry is [r, r + 1] 10**-(digits+8) from the integer root of
    # floor(t^u 10**(v(digits+8))): the rational power oracle's enclosure;
    # power keys are reduced, so u/v is too
    assume(math.gcd(u, v) == 1)
    lo, hi, den = cmdegree.PointTable(t, 0)[digits, ("pow", u, v)]
    e = rational_power_enclosure(t, Fraction(u, v), digits + 8)
    assert (Fraction(lo, den), Fraction(hi, den)) == (e.lo, e.hi)


def _report_json(report) -> str:
    """The report's document as json.dumps(..., indent=2) writes it."""
    fmt = format_rational
    return json.dumps({
        "function": report.function, "r": fmt(report.r), "N": report.N,
        "grid": [fmt(t) for t in report.grid],
        "cells": [{"n": c.n, "t": fmt(c.t), "lo": fmt(c.value.lo),
                   "hi": fmt(c.value.hi), "verdict": c.verdict}
                  for c in report.cells],
        "summary": report.summary,
        "note": "finite-order evidence only, not a proof of complete "
                "monotonicity"}, indent=2)


_rationals = st.fractions(max_denominator=10 ** 12)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.text(), _rationals, st.integers(min_value=0, max_value=10 ** 6),
       st.lists(_rationals, max_size=4),
       st.lists(st.tuples(st.integers(min_value=-5, max_value=100),
                          _rationals, _rationals, _rationals,
                          st.sampled_from(["pass", "fail", "indeterminate"])
                          | st.text()), max_size=4),
       st.text())
def test_report_json_is_the_indented_json_dump(name, r, N, grid, cells,
                                               summary):
    # quotes, backslashes, control characters and non-ASCII names must be
    # escaped as json.dumps escapes them; empty lists print as []
    report = cmdegree.DegreeReport(
        name, r, N, grid, [cmdegree.DegreeCell(n, t, Enclosure(*sorted(e)),
                                               verdict)
                           for n, t, *e, verdict in cells], summary)
    assert report.to_json() == _report_json(report)


def test_report_json_of_a_scan_is_the_indented_json_dump():
    grid = cmdegree.geometric_grid(Fraction(1, 100), 1000, 25)
    report = cmdegree.cm_check(cmdegree.h_expression(1, 1), Fraction(9, 2),
                               3, grid, digits=20, name='gap "1/1"\\')
    assert report.summary == "fail"
    assert report.to_json() == _report_json(report)


@pytest.mark.parametrize("N", [0, -1, cmdegree.CM_CHECK_MAX_ORDER + 1])
def test_cm_check_refuses_orders_out_of_range(N):
    # refused before any work: the empty grid is not reached
    with pytest.raises(ValueError, match=rf"--orders {N} .* range 1\.\.90$"):
        cmdegree.cm_check(cmdegree.h_expression(1, 1), 4, N, [], 15)


@pytest.mark.parametrize("r, part", [
    (cmdegree.CM_CHECK_MAX_R_NUM + 1, r"\|numerator\|"),
    (-cmdegree.CM_CHECK_MAX_R_NUM - 1, r"\|numerator\|"),
    (10 ** 5, r"\|numerator\|"),
    (Fraction(1, cmdegree.CM_CHECK_MAX_R_DEN + 1), "denominator"),
    (Fraction(-7, 1000), "denominator")])
def test_cm_check_refuses_a_degree_out_of_range(r, part):
    # refused before any work: the empty grid is not reached
    with pytest.raises(ValueError, match=rf"^{part} --r .* supported range"):
        cmdegree.cm_check(cmdegree.h_expression(1, 1), r, 2, [], 15)


def test_cm_check_runs_at_the_ends_of_its_degree_range():
    top = Fraction(-cmdegree.CM_CHECK_MAX_R_NUM, cmdegree.CM_CHECK_MAX_R_DEN)
    for r in (top, -top, cmdegree.CM_CHECK_MAX_R_NUM):
        report = cmdegree.cm_check(cmdegree.h_expression(1, 1), r, 1, [2], 10)
        assert len(report.cells) == 2, r


def test_cm_check_runs_at_its_highest_order():
    report = cmdegree.cm_check(cmdegree.h_expression(1, 1), 4,
                               cmdegree.CM_CHECK_MAX_ORDER, [2], 10)
    assert len(report.cells) == cmdegree.CM_CHECK_MAX_ORDER + 1
    assert report.summary == "pass"


def test_evaluation_without_a_table_runs_one_jet(monkeypatch):
    # psi' and psi'' of (t^(9/2) h)' come from one jet at the point, with
    # the values of one jet per order
    jet = specfun.polygamma_jet
    calls = []

    def recording(n0, N, x, digits):
        calls.append((n0, N))
        return jet(n0, N, x, digits)

    dh = cmdegree.h_expression(1, 1).mul_power(Fraction(9, 2)).derivative()
    per_order = dh.evaluate(1, 30, cmdegree.PointTable(Fraction(1), 0))
    monkeypatch.setattr(specfun, "polygamma_jet", recording)
    assert dh.evaluate(1, 30) == per_order
    assert calls == [(1, 2)]
    calls.clear()
    t, _ = cmdegree.find_degree_violation(cmdegree.h_expression(1, 1),
                                          Fraction(9, 2), 1, 1)
    assert (t, calls) == (1, [(1, 2)])


def test_cm_check_zero_expression_trivially_passes():
    report = cmdegree.cm_check(CMExpression.of([]), 0, 3, [1, 2], digits=10)
    assert report.summary == "pass"
    assert report.exit_code() == 0


def test_cm_check_exponential_is_completely_monotonic():
    expr = CMExpression.of([(1, 0, ("exp", Fraction(1)))])
    report = cmdegree.cm_check(expr, 0, 3, [Fraction(1, 2), 1, 5], digits=15)
    assert report.summary == "pass"


def test_cm_check_detects_failure():
    # -e^(1/t) has positive derivative at order 1, so the signed derivative
    # test fails immediately
    expr = CMExpression.of([(-1, 0, ("exp", Fraction(1)))])
    report = cmdegree.cm_check(expr, 0, 2, [1, 2], digits=15)
    assert report.summary == "fail"
    assert report.exit_code() == 1


def test_cm_check_monotone_in_degree():
    gap = cmdegree.h_expression(1, 1)
    grid = [Fraction(1, 2), 1, 3, 10]
    for r in (Fraction(4), Fraction(2), Fraction(0)):
        report = cmdegree.cm_check(gap, r, 4, grid, digits=20)
        assert report.summary == "pass", r


def test_degree_report_json_schema():
    gap = cmdegree.h_expression(1, 1)
    report = cmdegree.cm_check(gap, 4, 2, [1, 2], digits=15, name="gap")
    data = json.loads(report.to_json())
    assert data["function"] == "gap"
    assert data["summary"] == "pass"
    assert data["N"] == 2
    assert len(data["cells"]) == 2 * (2 + 1)
    for cell in data["cells"]:
        assert set(cell) == {"n", "t", "lo", "hi", "verdict"}
    assert "not a proof" in data["note"]


def test_find_degree_violation_above_true_degree():
    gap = cmdegree.h_expression(1, 1)
    hit = cmdegree.find_degree_violation(gap, Fraction(9, 2), 1, 10 ** 7,
                                         digits=25)
    assert hit is not None
    t, slope = hit
    assert slope.lo > 0


def test_p_value_limit():
    assert cmdegree.p_value(1, 12).lo > 0
    far = cmdegree.p_value(10 ** 4, 10)
    assert abs((far.lo + far.hi) / 2 - 4) < Fraction(1, 100)
    for t in (1, 10, 100):
        assert cmdegree.p_value(t, 10).width <= Fraction(1, 10 ** 10)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.one_of(
           st.fractions(min_value=Fraction(1, 100), max_value=100,
                        max_denominator=1000),
           st.fractions(min_value=100, max_value=10 ** 4,
                        max_denominator=10)),
       st.integers(min_value=5, max_value=30))
def test_p_value_differential_against_mpmath(t, digits):
    mpmath = pytest.importorskip("mpmath")
    p = cmdegree.p_value(t, digits)
    assert p.width <= Fraction(1, 10 ** digits), (t, digits, p.width)
    # the numerator cancels to O(t^-3) and the bracket to O(t^-4), and the
    # value is about 1/t <= 100 at small t, so 40 digits plus 6 per decade
    # of t resolve it far below 10**-digits
    decades = max(0, len(str(math.ceil(t))) - 1)
    with mpmath.workdps(digits + 40 + 6 * decades):
        x = mpmath.mpf(t.numerator) / t.denominator
        e = mpmath.exp(1 / x)
        value = ((x * x * mpmath.psi(2, x) + e)
                 / (x * (e - mpmath.psi(1, x) - 1)))
        lo = mpmath.mpf(p.lo.numerator) / p.lo.denominator
        hi = mpmath.mpf(p.hi.numerator) / p.hi.denominator
        assert lo <= value <= hi, (t, digits, p)


def test_p_value_stops_at_its_precision_cap(monkeypatch):
    # a divisor enclosure that always meets 0 is refined up to exactly
    # DIGIT_CAP + digits, where p_value gives up
    seen = []

    def straddling(rows, d, table, negate=False):
        seen.append(d)
        return Enclosure(-1, 1)

    monkeypatch.setattr(cmdegree, "_cell", straddling)
    cap = cmdegree.DIGIT_CAP + 15
    with pytest.raises(ArithmeticError, match=f" at {cap} digits$"):
        cmdegree.p_value(Fraction(1, 100000), 15)
    assert seen == [25, 50, 100, cap]


def test_p_value_meets_its_width_at_large_t():
    # the numerator cancels to O(t^-3): 4 digits per decade of t left a
    # width of 4.8e10 here
    p = cmdegree.p_value(10 ** 50, 30)
    assert p.width <= Fraction(1, 10 ** 30)
    assert abs((p.lo + p.hi) / 2 - 4) < Fraction(1, 10 ** 29)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.fractions(min_value=0, max_value=50,
                    max_denominator=1000).filter(lambda u: u > 0),
       st.integers(min_value=5, max_value=40))
def test_kernel_margin_is_the_rounded_enclosure_difference(k, u, digits):
    ik = specfun.bessel_ratio(k, u, digits + 4)
    kd = eval_enclosure(kernel_derivative(k - 1), u, digits + 4)
    assert cmdegree.kernel_margin(k, u, digits) == \
        round_out_fraction(ik - kd, digits + 1)


def test_kernel_margin_and_certificates():
    # margin must be positive across orders on interior points
    for k in (1, 3, 5):
        assert cmdegree.kernel_margin(k, Fraction(1, 2), 15).lo > 0
        assert cmdegree.kernel_margin(k, 3, 15).lo > 0
    grid = [Fraction(1, 2), 1, 2, 4, 6]
    rep = cmdegree.kernel_certificate(2, grid, digits=15)
    assert rep["passed"]
    ray = cmdegree.kernel_certificate(5, [1], digits=15)["ray"]
    assert ray["certified"]
    assert ray["K4_at_7"].hi < Fraction(1, 720)


def test_conjecture_scan_finds_order_six_counterexample():
    grid = cmdegree.linear_grid(Fraction(10, 10), Fraction(22, 10), 13)
    scan = cmdegree.conjecture_scan(6, grid, digits=15)
    assert scan["counterexample"] is not None
    assert scan["counterexample"]["margin"].hi < 0


@pytest.mark.parametrize("k", [0, -1, cmdegree.CONJECTURE_MAX_ORDER + 1,
                               1200])
def test_conjecture_scan_refuses_orders_out_of_range(k):
    # refused before any work: the empty grid is not reached
    with pytest.raises(ValueError, match=rf"--k {k} .* range 1\.\.50$"):
        cmdegree.conjecture_scan(k, [], digits=15)


def test_conjecture_scan_runs_at_its_highest_order():
    scan = cmdegree.conjecture_scan(cmdegree.CONJECTURE_MAX_ORDER, [1], 10)
    assert scan["counterexample"]["margin"].hi < 0


@pytest.mark.parametrize("scan", [
    lambda: cmdegree.cm_check(cmdegree.h_expression(1, 1), 0, 2, [], 15),
    lambda: cmdegree.kernel_certificate(5, [], digits=15),
    lambda: cmdegree.conjecture_scan(6, [], digits=15),
])
def test_empty_grid_is_rejected(scan):
    # zero cells would make every cell pass vacuously
    with pytest.raises(ValueError, match="no points"):
        scan()


def test_verify_identity_small_orders():
    for k in range(4):
        rep = cmdegree.verify_identity(k, 25)
        assert rep["passed"]
        assert rep["mismatches"] == []


def _hyp1f2_partial_sum_and_tail(a, b1, b2, u: Fraction, tol: Fraction):
    """(S, T): S sums 1F2(a; b1, b2; u) exactly, term by term from the term
    ratio r_n = (a+n) u / ((b1+n) (b2+n) (n+1)), until T = t_N / (1 - r_N)
    is below tol.  T bounds the tail sum_{n>=N} t_n when the ratios do not
    increase from N on and r_N < 1, as for a = b1 = 1, b2 > 0 and u >= 0,
    where r_n = u / ((b2+n) (n+1))."""
    total, term, n = Fraction(0), Fraction(1), 0
    while True:
        ratio = (a + n) * u / ((b1 + n) * (b2 + n) * (n + 1))
        if ratio < 1 and term / (1 - ratio) < tol:
            return total, term / (1 - ratio)
        total += term
        term *= ratio
        n += 1


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("u", [Fraction(0), Fraction(1, 3), Fraction(7, 2),
                               Fraction(25), Fraction(100, 7)])
def test_hyp1f2_partial_sums_overlap_the_bessel_ratio(k, u):
    # 1F2(1; 1, k+1; u) = k! sum_n u^n / (n! (n+k)!) = k! bessel_ratio(k, u):
    # the exact partial sum with its proven tail must meet the enclosure
    digits = 30
    s, tail = _hyp1f2_partial_sum_and_tail(1, 1, k + 1, u,
                                           Fraction(1, 10 ** (digits + 5)))
    ik = specfun.bessel_ratio(k, u, digits) * math.factorial(k)
    assert ik.lo <= s + tail and s <= ik.hi, (k, u)
    assert ik.width <= Fraction(math.factorial(k), 10 ** digits)


@pytest.mark.parametrize("weight", ["m!", "(m+1)!"])
@pytest.mark.parametrize("k, N", [(0, 40), (3, 25), (6, 200), (1600, 1),
                                  (6, 1000), (0, 1)])
def test_verify_identity_equals_the_fraction_loop(monkeypatch, weight, k, N):
    # the integer comparisons give the report of the Fraction loop, also
    # under a wrong transform rule, mismatch for mismatch
    rule = {"m!": math.factorial,
            "(m+1)!": lambda m: math.factorial(m + 1)}[weight]
    monkeypatch.setattr(cmdegree, "_transform_weight", rule)
    assert cmdegree.verify_identity(k, N) == \
        reference_values.verify_identity_fraction(k, N, rule)


def test_verify_identity_fails_under_a_wrong_transform_rule(monkeypatch):
    # t^m -> (m+1)!/z^(m+1) breaks both forms, so the check is not a
    # comparison of a formula with itself
    monkeypatch.setattr(cmdegree, "_transform_weight",
                        lambda m: math.factorial(m + 1))
    rep = cmdegree.verify_identity(3, 20)
    assert rep["passed"] is False
    kinds = {kind for kind, _ in rep["mismatches"]}
    assert kinds == {"bessel", "hyp"}


def _laplace_tail_sum(t: Fraction, digits: int) -> Enclosure:
    """sum_{n>=1} 1/(n! t^n) = e^(1/t) - 1 by direct summation."""
    tol = Fraction(1, 10 ** (digits + 1))
    term = Fraction(1)
    total = Fraction(0)
    n = 0
    while True:
        n += 1
        term /= n * t
        total += term
        ratio = Fraction(1, (n + 1) * t)
        if ratio < Fraction(1, 2) and term * ratio / (1 - ratio) < tol:
            return Enclosure(total, total + term * ratio / (1 - ratio))


def test_h_kernel_two_path_agreement():
    # h(t) = e^(1/t) - psi'(t) exceeds 1 at small t, and h(t) - 1 from
    # exp_enclosure and polygamma meets the termwise transform route
    # sum 1/(n! t^n) - [Hurwitz series for psi'(t)] within 10^-6
    for t in (Fraction(1, 2), Fraction(1), Fraction(5)):
        h = specfun.exp_enclosure(1 / t, 18) - specfun.polygamma(1, t, 18)
        assert h.lo > 1, t
    for t in (Fraction(1), Fraction(2)):
        direct = specfun.exp_enclosure(1 / t, 14) \
            - specfun.polygamma(1, t, 14) - 1
        series = _laplace_tail_sum(t, 14) - polygamma_hurwitz(1, t, 4000)
        assert series.lo <= direct.hi and direct.lo <= series.hi, t
        assert series.width < Fraction(1, 10 ** 6), t


def _remark_functions():
    """The two remark expressions and the residue of their bookkeeping.

    x^4[e^(1/x) - 1 - psi'(x)] minus the transform image of the order-3
    remainder kernel plus the eight-term truncated exponential must leave
    -1/24 - 1/(24x) - 1/(720x^2) + 17/(720x^3) exactly.
    """
    one = CMExpression.of([(1, 0, ("const",))])
    exp_part = CMExpression.of([(1, 0, ("exp", Fraction(1)))])
    psi1 = CMExpression.of([(1, 0, ("psi", 1))])
    # e^(1/x) - 1 - psi'(x)
    core = _combine((1, exp_part), (-1, one), (-1, psi1))
    g4_raw = core.mul_power(4)
    series_part = _combine((1, CMExpression.of(
        [(1, -1, ("const",)), (Fraction(1, 2), -2, ("const",)),
         (Fraction(1, 6), -3, ("const",)), (Fraction(-1, 30), -5, ("const",)),
         (Fraction(1, 42), -7, ("const",))])), (-1, psi1))
    trunc = CMExpression.of(
        [(Fraction(-1, math.factorial(m)), -m, ("const",))
         for m in range(1, 8)])
    # e^(1/x) - sum_{m<=7} x^-m/m!
    exp_tail = _combine((1, exp_part), (-1, one), (1, trunc))
    residue = _combine(
        (1, _combine((1, series_part), (1, exp_tail)).mul_power(4)),
        (-1, g4_raw))
    g4 = _combine((1, g4_raw), (1, CMExpression.of(
        [(Fraction(-1, 24), 0, ("const",)),
         (Fraction(17, 720), -3, ("const",))])))
    return core.mul_power(2), g4, residue


def test_remark_functions_bookkeeping():
    _, _, residue = _remark_functions()
    expected = CMExpression.of([
        (Fraction(-1, 24), 0, ("const",)),
        (Fraction(-1, 24), -1, ("const",)),
        (Fraction(-1, 720), -2, ("const",)),
        (Fraction(17, 720), -3, ("const",)),
    ])
    assert _combine((1, residue), (-1, expected)).terms == ()


def test_remark_vn_degree_check():
    # degree-0 evidence, orders 0..6, for x^2[e^(1/x) - 1 - psi'(x)] and the
    # shifted x^4 variant
    g2, g4, _ = _remark_functions()
    grid = cmdegree.geometric_grid(Fraction(1, 2), 20, 7)
    assert cmdegree.cm_check(g2, 0, 6, grid, digits=15).summary == "pass"
    assert cmdegree.cm_check(g4, 0, 6, grid, digits=15).summary == "pass"


def test_cm_check_stops_at_the_precision_cap(monkeypatch):
    # 2 - sqrt(t) vanishes at t = 4, so its enclosure meets 0 at every
    # precision: the order-0 cell doubles its digits up to DIGIT_CAP and
    # is left indeterminate
    expr = CMExpression.of([(2, 0, ("const",)),
                            (-1, Fraction(1, 2), ("const",))])
    ends = cmdegree._ends
    digits = []

    def recording(rows, d, table):
        if set(rows) == set(expr._rows):
            digits.append(d)
        return ends(rows, d, table)

    monkeypatch.setattr(cmdegree, "_ends", recording)
    report = cmdegree.cm_check(expr, 0, 1, [4], digits=40)
    cell = next(c for c in report.cells if c.n == 0)
    assert cell.verdict == "indeterminate"
    assert cell.value.lo <= 0 <= cell.value.hi
    assert report.summary == "indeterminate"
    assert report.exit_code() == 2
    assert digits == [40, 80, cmdegree.DIGIT_CAP]
