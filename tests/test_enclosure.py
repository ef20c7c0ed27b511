from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cmcert.cli import RunConfig, _rat
from cmcert.cmdegree import CMExpression, DegreeCell
from cmcert.enclosure import (Enclosure, divide_round_out, integer_nth_root,
                              to_fraction)
from cmcert.expring import _taylor_table
from cmcert.poly import PieceReport, Polynomial, PositivityCertificate
from cmcert.seriesratio import MaxResult

from reference_values import (ExpPoly, as_table, integer_nth_root_newton,
                              mul_four_products, nth_root_enclosure,
                              rational_power_enclosure, round_out_fraction)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def interval(lo, hi):
    return Enclosure(Fraction(lo), Fraction(hi))


def test_point_and_width():
    e = Enclosure.point(Fraction(3, 7))
    assert e.width == 0
    assert e.lo == e.hi == Fraction(3, 7)


def test_float_endpoints_are_refused():
    # Enclosure(0.1, 1) would start at the double nearest 1/10, which is
    # above it, so the enclosure would exclude 1/10
    for build in (lambda: Enclosure(0.1, 1), lambda: Enclosure(0, 0.5),
                  lambda: Enclosure.point(0.5)):
        with pytest.raises(TypeError, match="exact rational"):
            build()
    assert Enclosure(0, 1) == Enclosure.point(0).hull(Enclosure.point(1))
    assert Enclosure(Fraction(1, 10), 1).lo == Fraction(1, 10)


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        interval(1, 0)
    with pytest.raises(ValueError):
        Enclosure(2, 1)


def test_division_by_zero_straddling_interval():
    with pytest.raises(ZeroDivisionError):
        interval(-1, 1).inverse()
    with pytest.raises(ZeroDivisionError):
        divide_round_out((1, 1, 1), interval(-1, 1).ratio(), 3)


def test_round_out_widens():
    e = interval(Fraction(1, 3), Fraction(2, 3)).round_out(2)
    assert e.lo <= Fraction(1, 3) and e.hi >= Fraction(2, 3)
    assert e.lo.denominator <= 100 and e.hi.denominator <= 100


def test_power_even_straddling():
    e = interval(-2, 3) ** 2
    assert e.lo == 0 and e.hi == 9


@given(rationals, rationals)
def test_point_arithmetic_is_exact(x, y):
    ex, ey = Enclosure.point(x), Enclosure.point(y)
    assert (ex + ey).lo == x + y
    assert (ex - ey).hi == x - y
    assert (ex * ey).lo == x * y


@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_interval_arithmetic_contains_point_images(a, wa, x, b, wb, y):
    # build intervals around x and y and check closure under + - *
    lo1, hi1 = min(a, x), max(a, x)
    lo2, hi2 = min(b, y), max(b, y)
    e1, e2 = Enclosure(lo1, hi1), Enclosure(lo2, hi2)
    for e, value in [(e1 + e2, x + y), (e1 - e2, x - y), (e1 * e2, x * y),
                     (e1 ** 3, x ** 3)]:
        assert e.lo <= value <= e.hi


@given(st.integers(min_value=0, max_value=10 ** 12),
       st.integers(min_value=1, max_value=6))
def test_integer_nth_root_floor(a, n):
    r = integer_nth_root(a, n)
    assert r ** n <= a < (r + 1) ** n


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.one_of(st.integers(min_value=0, max_value=2 ** 64),
                 st.integers(min_value=0, max_value=2 ** 4000)))
def test_integer_square_root_matches_the_newton_loop(a):
    assert integer_nth_root(a, 2) == integer_nth_root_newton(a, 2)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                    max_denominator=10 ** 6),
       st.integers(min_value=2, max_value=5))
def test_nth_root_enclosure_brackets(x, n):
    e = nth_root_enclosure(x, n, 12)
    assert e.lo ** n <= x <= e.hi ** n
    assert e.width <= Fraction(1, 10 ** 12)


def test_rational_power_integer_exponent_exact():
    e = rational_power_enclosure(Fraction(2, 3), -2, 10)
    assert e.lo == e.hi == Fraction(9, 4)


def test_rational_power_half():
    e = rational_power_enclosure(2, Fraction(1, 2), 20)
    assert e.lo ** 2 <= 2 <= e.hi ** 2


def test_text_is_parsed_by_the_cli_alone():
    assert _rat("3/7") == Fraction(3, 7)
    assert _rat("0.25") == Fraction(1, 4)
    for value in ("3/7", 0.25):
        with pytest.raises(TypeError):
            to_fraction(value)


# -- product against the four-product min/max -------------------------------
# Each factor is negative, positive or straddles 0; "negative" and "positive"
# include a zero endpoint, and a point 0 falls in both.

def _rationals(least: int):
    return st.builds(Fraction, st.integers(least, 10 ** 12),
                     st.integers(1, 10 ** 6))


SIGN_CLASSES = {
    "nonneg": st.builds(lambda lo, w: Enclosure(lo, lo + w),
                        _rationals(0), _rationals(0)),
    "nonpos": st.builds(lambda hi, w: Enclosure(-hi - w, -hi),
                        _rationals(0), _rationals(0)),
    "straddle": st.builds(lambda lo, hi: Enclosure(-lo, hi),
                          _rationals(1), _rationals(1)),
}


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SIGN_CLASSES)).flatmap(
           lambda a: SIGN_CLASSES[a]),
       st.sampled_from(sorted(SIGN_CLASSES)).flatmap(
           lambda b: SIGN_CLASSES[b]))
def test_mul_equals_the_four_product_hull(x, y):
    assert x * y == mul_four_products(x, y)
    assert y * x == mul_four_products(y, x)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SIGN_CLASSES)).flatmap(
           lambda a: SIGN_CLASSES[a]),
       SIGN_CLASSES["nonneg"].filter(lambda y: y.lo > 0),
       st.integers(min_value=0, max_value=30))
def test_integer_rounding_equals_the_enclosure_arithmetic(x, y, digits):
    # quotient by a positive interval, difference and plain rounding, each
    # floored and ceiled once on integers, against Enclosure arithmetic
    # rounded by Fraction floor and ceiling
    (a, b, q), (c, d, r) = x.ratio(), y.ratio()
    assert Enclosure(Fraction(a, q), Fraction(b, q)) == x
    assert divide_round_out(x.ratio(), y.ratio(), digits) == \
        round_out_fraction(x / y, digits)
    assert divide_round_out((a * r - d * q, b * r - c * q, q * r), (1, 1, 1),
                            digits) == round_out_fraction(x - y, digits)
    assert x.round_out(digits) == round_out_fraction(x, digits)


def test_mul_all_nine_sign_cases_with_zero_endpoints():
    values = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
              Fraction(2)]
    boxes = [Enclosure(lo, hi) for lo in values for hi in values if lo <= hi]
    def sign_class(x):
        return 1 if x.lo >= 0 else -1 if x.hi <= 0 else 0

    cases = set()
    for x in boxes:
        for y in boxes:
            assert x * y == mul_four_products(x, y), (x, y)
            cases.add((sign_class(x), sign_class(y)))
    assert len(cases) == 9


def test_value_fields_cannot_be_assigned():
    cell = DegreeCell(0, Fraction(1), interval(0, 1), "pass")
    for value, name in [(interval(0, 1), "lo"),
                        (Polynomial.of([0, 1]), "coeffs"),
                        (cell, "verdict"), (CMExpression.of([]), "terms"),
                        (RunConfig(60, "linear:1,2,3", "text"), "fmt")]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_equal_values_hash_equal_and_share_cache_entries():
    def build():
        return ExpPoly.of({1: Polynomial.of([0, 1]), 2: Polynomial.of([3])})

    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert Polynomial.of([1, 2]) == Polynomial.of([Fraction(1), 2, 0])
    assert hash(Polynomial.of([1, 2])) == \
        hash(Polynomial.of([Fraction(1), Fraction(2)]))
    table = lru_cache(lambda p, order: _taylor_table(as_table(p), order))
    first = table(a, 7)
    hits = table.cache_info().hits
    assert table(b, 7) is first
    assert table.cache_info().hits == hits + 1


def test_values_of_different_types_are_never_equal():
    # both hold the single field value ()
    assert Polynomial.zero() != ExpPoly(())
    assert Polynomial.zero() == Polynomial.zero()
    assert interval(0, 1) != (Fraction(0), Fraction(1))


def test_value_construction_by_position_and_keyword():
    piece = PieceReport(Fraction(0), min_bk=Fraction(1), argmin=0,
                        max_bk=Fraction(2), certified=True)
    assert piece == PieceReport(Fraction(0), Fraction(1), 0, Fraction(2), True)
    cert = PositivityCertificate("certified", (0, 1), (piece,),
                                 witness_value=None, witness=None)
    assert cert.witness is None and cert.witness_value is None
    assert Enclosure(hi=2, lo=1) == interval(1, 2)
    assert RunConfig(precision=80, grid="linear:1,2,3", fmt="text") == \
        RunConfig(80, fmt="text", grid="linear:1,2,3")
    with pytest.raises(TypeError):  # no field has a default
        PositivityCertificate("certified", (0, 1), (piece,))
    assert repr(DegreeCell(1, Fraction(1, 2), interval(0, 1), "fail")) == \
        "DegreeCell(n=1, t=Fraction(1, 2), value=[0, 1], verdict='fail')"
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"lo": 1}),
                         ((1,), {"middle": 1})]:
        with pytest.raises(TypeError):
            MaxResult(*args, **kwargs)
