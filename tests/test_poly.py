from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cmcert import poly, specfun
from cmcert.poly import Polynomial
from reference_values import (cargo_shisha_bounds_fraction,
                              compose_affine_fraction,
                              polynomial_product_fraction,
                              taylor_shift_fraction)

coeff_lists = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=100),
    min_size=1, max_size=8)
unit_points = st.fractions(min_value=0, max_value=1, max_denominator=500)
shifts = st.fractions(min_value=-10, max_value=10, max_denominator=50)
# degrees 0-30 with mixed denominators: integers, small and large fractions
mixed_coeffs = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-10 ** 4, max_value=10 ** 4,
                 max_denominator=10 ** 6))
degree_0_to_30 = st.lists(mixed_coeffs, min_size=1, max_size=31)
# zero, negative and non-integer shifts and scales
affine_params = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-20, max_value=20).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=1000))


def test_polynomial_basics():
    p = Polynomial.of([1, 2, 3])
    assert len(p.coeffs) - 1 == 2
    assert p(2) == 17
    assert p.derivative().coeffs == (2, 6)
    assert (p * Polynomial.x()).coeffs == (0, 1, 2, 3)
    assert p[5] == 0


@given(coeff_lists | degree_0_to_30, unit_points)
@settings(deadline=None, derandomize=True, max_examples=500)
def test_sandwich_bounds_contain_values_on_unit_interval(coeffs, x):
    # independent of how the bounds are summed: p(x) by Horner's rule at a
    # drawn point and at both endpoints
    p = Polynomial.of(coeffs)
    if p.is_zero():
        return
    bks = poly.cargo_shisha_bounds(p)
    assert len(bks) == len(p.coeffs)
    for y in (x, 0, 1):
        assert min(bks) <= p(y) <= max(bks)


@given(coeff_lists)
def test_sandwich_bounds_endpoints(coeffs):
    p = Polynomial.of(coeffs)
    if p.is_zero():
        return
    bks = poly.cargo_shisha_bounds(p)
    assert bks[0] == p[0]
    assert bks[-1] == p(1)


@given(coeff_lists, shifts)
def test_taylor_shift_roundtrip(coeffs, a):
    p = Polynomial.of(coeffs)
    assert poly.taylor_shift(poly.taylor_shift(p, a), -a) == p


@given(coeff_lists, shifts, unit_points)
def test_taylor_shift_evaluates_correctly(coeffs, a, x):
    p = Polynomial.of(coeffs)
    assert poly.taylor_shift(p, a)(x) == p(x + a)


@given(coeff_lists, shifts, shifts, unit_points)
def test_compose_affine_evaluates_correctly(coeffs, a, s, x):
    p = Polynomial.of(coeffs)
    assert poly.compose_affine(p, a, s)(x) == p(a + s * x)


@given(degree_0_to_30, affine_params, affine_params)
@settings(deadline=None, derandomize=True, max_examples=1000)
def test_integer_algebra_equals_the_fraction_loops(coeffs, a, s):
    p = Polynomial.of(coeffs)
    assert poly.taylor_shift(p, a) == taylor_shift_fraction(p, a)
    local = poly.compose_affine(p, a, s)
    assert local == compose_affine_fraction(p, a, s)
    for q in (p, local):
        if q.is_zero():
            with pytest.raises(ValueError):
                poly.cargo_shisha_bounds(q)
        else:
            assert poly.cargo_shisha_bounds(q) == \
                cargo_shisha_bounds_fraction(q)


@given(st.lists(mixed_coeffs, max_size=31),
       st.lists(mixed_coeffs, max_size=12))
@settings(deadline=None, derandomize=True, max_examples=500)
def test_integer_product_equals_the_fraction_schoolbook(a, b):
    # zero polynomials, negative and non-integer coefficients, unequal lengths
    p, q = Polynomial.of(a), Polynomial.of(b)
    product = polynomial_product_fraction(p, q)
    assert p * q == product
    assert q * p == product
    assert q ** 2 == polynomial_product_fraction(q, q)


def test_descartes_counts():
    assert poly.descartes_sign_changes(Polynomial.of([1, 0, -3, 2])) == 2
    assert poly.descartes_sign_changes(Polynomial.of([1, 1, 1])) == 0
    assert poly.descartes_sign_changes(Polynomial.of([-1, 0, 1])) == 1


def test_certify_positive_certifies_simple_polynomial():
    # (x - 10)**2 + 1 > 0 everywhere
    p = Polynomial.of([101, -20, 1])
    cert = poly.certify_positive_on_interval(p, 0, 6, 1)
    assert cert.verdict == "certified"
    assert len(cert.pieces) == 6
    assert cert.witness is None


def test_certify_positive_finds_counterexample():
    # x**2 - 2 dips below zero inside [0, 6]
    p = Polynomial.of([-2, 0, 1])
    cert = poly.certify_positive_on_interval(p, 0, 6, 1)
    assert cert.verdict == "falsified"
    assert cert.witness is not None
    assert p(cert.witness) == cert.witness_value
    assert cert.witness_value <= 0


def test_certificate_json_roundtrip():
    import json
    p = Polynomial.of([101, -20, 1])
    cert = poly.certify_positive_on_interval(p, 0, 6, 1)
    data = json.loads(cert.to_json())
    assert data["verdict"] == "certified"
    assert len(data["pieces"]) == 6


def test_witness_in_right_half_after_inconclusive_left_half():
    # the double root at sqrt(2) keeps the left half inconclusive; the
    # negative dip around 301/100 lies in the right half of [0, 4]
    c = Fraction(301, 100)
    p = (Polynomial.of([-2, 0, 1]) * Polynomial.of([-2, 0, 1])
         * Polynomial.of([c * c - Fraction(1, 10 ** 6), -2 * c, 1]))
    cert = poly.certify_positive_on_interval(p, 0, 4, 4)
    assert cert.verdict == "falsified"
    assert 2 < cert.witness < 4
    assert p(cert.witness) <= 0
    assert cert.witness_value == p(cert.witness)


def test_isolate_root_brackets_sqrt2():
    p = Polynomial.of([-2, 0, 1])
    lo, hi = poly.isolate_root(p, 1, 2, Fraction(1, 1024))
    assert lo ** 2 < 2 < hi ** 2
    assert hi - lo <= Fraction(1, 1024)


def test_isolate_root_rejects_same_sign_endpoints():
    p = Polynomial.of([1, 0, 1])
    with pytest.raises(ValueError):
        poly.isolate_root(p, 0, 1, Fraction(1, 64))


def test_exp_bound_polynomial_small_cases():
    # n = 1: coefficients (2n-k)! C(n,k)/n! -> [2, 1]
    assert poly.exp_bound_polynomial(1).coeffs == (2, 1)
    assert poly.exp_bound_polynomial(2).coeffs == (12, 6, 1)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=3),
       st.fractions(min_value=Fraction(1, 10), max_value=2, max_denominator=20))
def test_lemma1_bounds_sandwich_exp(m, n, u):
    assume(u < 2 * (m + 1))  # upper bound has a pole at the range endpoint
    (low_n, low_d), (up_n, up_d), threshold = poly.lemma1_exp_bounds(m, n)
    assert threshold == Fraction(1, 2 * (m + 1))
    e = specfun.exp_enclosure(u, 30)
    lo = Fraction(low_n(u), low_d(u))
    hi = Fraction(up_n(u), up_d(u))
    assert lo < e.lo
    assert e.hi < hi


def test_lemma1_upper_bound_has_a_pole_at_the_open_end():
    # m = 0: e**u < (2 + u)/(2 - u), whose denominator is 0 at u = 2, so
    # the range lemma1-bounds prints is open there
    _, (up_n, up_d), threshold = poly.lemma1_exp_bounds(0, 1)
    assert 1 / threshold == 2
    assert up_d(2) == 0 and up_n(2) == 4
