import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cmcert import enclosure, specfun
from cmcert.enclosure import Enclosure
from cmcert.cmdegree import geometric_grid

from reference_values import (bernoulli_recurrence, bessel_ratio_fraction,
                              polygamma_hurwitz, polygamma_mantissas_exact)

# frozen 30-digit oracle values (mpmath, independent implementation)
E_ORACLE = Fraction("2.71828182845904523536028747135")
EXP_HALF_ORACLE = Fraction("1.64872127070012814684865078781")
PSI1_AT_1 = Fraction("1.64493406684822643647241516665")    # pi^2/6
PSI1_AT_3 = Fraction("0.394934066848226436472415166646")
PSI2_AT_2 = Fraction("-0.404113806319188570799476323023")
I1_RATIO_AT_1 = Fraction("1.59063685463732906338225442450")  # I_1(2)
K_TAIL_3_AT_1 = Fraction("6.00651279663676014827329730290")

TOL = Fraction(1, 10 ** 25)


def close(e: Enclosure, target: Fraction, tol=TOL) -> bool:
    return e.lo - tol <= target <= e.hi + tol


def test_bernoulli_values():
    assert specfun.bernoulli(0) == 1
    assert specfun.bernoulli(1) == Fraction(-1, 2)
    assert specfun.bernoulli(2) == Fraction(1, 6)
    assert specfun.bernoulli(3) == 0
    assert specfun.bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_the_fraction_recurrence():
    for n in range(301):
        assert specfun.bernoulli(n) == bernoulli_recurrence(n), n


def test_exp_enclosure_matches_oracle():
    assert close(specfun.exp_enclosure(1, 28), E_ORACLE)
    assert close(specfun.exp_enclosure(Fraction(1, 2), 28), EXP_HALF_ORACLE)
    recip = specfun.exp_enclosure(-1, 28) * specfun.exp_enclosure(1, 28)
    assert recip.lo <= 1 <= recip.hi


@given(st.fractions(min_value=-5, max_value=5, max_denominator=100))
def test_exp_enclosure_width_meets_request(x):
    e = specfun.exp_enclosure(x, 15)
    assert e.width <= Fraction(1, 10 ** 15)
    assert e.lo > 0


@given(st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=50),
       st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=50))
def test_exp_enclosure_multiplicative(x, y):
    prod = specfun.exp_enclosure(x, 20) * specfun.exp_enclosure(y, 20)
    assert prod.lo <= specfun.exp_enclosure(x + y, 20).hi
    assert prod.hi >= specfun.exp_enclosure(x + y, 20).lo


def _mpf(q: Fraction):
    import mpmath
    return mpmath.mpf(q.numerator) / q.denominator


def _assert_exp_matches_mpmath(x: Fraction, digits: int):
    mpmath = pytest.importorskip("mpmath")
    e = specfun.exp_enclosure(x, digits)
    assert e.width <= Fraction(1, 10 ** digits)
    # |x|/2 > |x|/ln 10 digits cover the size of e**x, so the oracle
    # resolves 10**-(digits+30) in absolute terms
    with mpmath.workdps(digits + 40 + int(abs(x)) // 2):
        assert _mpf(e.lo) <= mpmath.exp(_mpf(x)) <= _mpf(e.hi), (x, digits, e)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.one_of(
           st.fractions(min_value=-1000, max_value=1000,
                        max_denominator=10 ** 6),
           st.sampled_from(
               list(geometric_grid(Fraction(1, 100), 1000, 25)))),
       st.integers(min_value=10, max_value=60))
def test_exp_enclosure_differential_against_mpmath(x, digits):
    _assert_exp_matches_mpmath(x, digits)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10 ** 6), max_value=1000,
                    max_denominator=10 ** 6),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=2, max_value=200))
def test_exp_mantissas_bracket_at_their_own_resolution(x, extra_k, bits):
    # small p makes every floor/ceil step visible; any k with x/2**k <= 1/2
    # must give a sound bracket, not only the smallest one
    mpmath = pytest.importorskip("mpmath")
    k = (-(-2 * x.numerator // x.denominator) - 1).bit_length() + extra_k
    p = k + bits
    lo, hi = specfun._exp_mantissas(x.numerator, x.denominator, k, p)
    with mpmath.workprec(p + 2 * int(x) + 64):
        scaled = mpmath.exp(_mpf(x)) * 2 ** p
        assert lo <= scaled <= hi, (x, k, p, lo, hi)


# both signs, and for each every k from 0 to 11 that brings |x|/2**k to
# <= 1/2: the upper squarings and the inverted bracket of x < 0 each have
# their own floor or ceiling to get wrong
OWN_RESOLUTION_X = [Fraction(sign * n, d) for sign in (1, -1)
                    for n, d in ((1, 3), (1, 2), (7, 5), (37, 7), (1000, 3))]


@pytest.mark.parametrize("x", OWN_RESOLUTION_X, ids=str)
def test_exp_mantissas_bracket_both_signs_at_their_own_resolution(x):
    # at 1 to 40 bits past the k squarings every rounding step is visible;
    # mpmath resolves e**x 2**p at 4p bits, plus the bits of e**x for x > 0
    mpmath = pytest.importorskip("mpmath")
    for k in range(12):
        if 2 * abs(x) > 2 ** k:
            continue
        for p in range(k + 1, k + 41):
            lo, hi = specfun._exp_mantissas(x.numerator, x.denominator, k, p)
            with mpmath.workprec(4 * p + 2 * max(0, math.ceil(x))):
                scaled = mpmath.exp(_mpf(x)) * 2 ** p
                assert lo <= scaled <= hi, (x, k, p, lo, hi)


def test_exp_enclosure_retries_a_too_wide_bracket(monkeypatch):
    calls = []
    kernel = specfun._exp_mantissas

    def first_call_too_wide(num, den, k, p):
        calls.append(p)
        lo, hi = kernel(num, den, k, p)
        return (lo // 2, hi) if len(calls) == 1 else (lo, hi)

    monkeypatch.setattr(specfun, "_exp_mantissas", first_call_too_wide)
    e = specfun.exp_enclosure(Fraction(7, 3), 30)
    assert len(calls) == 2 and calls[1] > calls[0]
    assert e.width <= Fraction(1, 10 ** 30)
    assert close(e, Fraction("10.3122585013257650270155721085"))  # e**(7/3)


@pytest.mark.parametrize("x", [10 ** 12])
def test_exp_enclosure_out_of_reach_raises_before_any_sum(monkeypatch, x):
    # about 1.5 x bits, a mantissa of some 190 GB
    monkeypatch.setattr(specfun, "_exp_mantissas",
                        lambda *args: pytest.fail("summed"))
    with pytest.raises(ArithmeticError, match=f"at [|]x[|] = {abs(x)} needs "
                       f".* bits, over the limit of {specfun.EXP_BITS_CAP}"):
        specfun.exp_enclosure(x, 10)


def test_exp_enclosure_of_a_far_negative_argument_is_computed(monkeypatch):
    # e**-x is e**(-x/2**k) squared k times at the absolute precision asked
    # for, so its mantissas keep the bits of the digits, plus k, whatever x
    precisions = []
    kernel = specfun._exp_mantissas
    monkeypatch.setattr(specfun, "_exp_mantissas", lambda num, den, k, p: (
        precisions.append(p), kernel(num, den, k, p))[1])
    assert specfun.exp_enclosure(-10 ** 12, 10) == \
        Enclosure(0, Fraction(1, 10 ** 11))
    assert len(precisions) == 1 and precisions[0] < 128
    # with no cap to raise at, its work at 10^4 digits is charged in full
    assert specfun.exp_work(Fraction(-1), 10 ** 4) > enclosure.WORK_MAX


def test_exp_enclosure_stops_adding_guard_bits_at_the_cap(monkeypatch):
    calls = []

    def never_narrow(num, den, k, p):
        # without the cap p doubles on until 1 << p exhausts memory
        if p > 2 ** 26:
            pytest.fail(f"working precision grew to {p} bits")
        calls.append(p)
        return 0, 1 << (p + 1)

    monkeypatch.setattr(specfun, "_exp_mantissas", never_narrow)
    with pytest.raises(ArithmeticError, match="over the limit"):
        specfun.exp_enclosure(Fraction(7, 3), 30)
    assert len(calls) > 10 and max(calls) <= specfun.EXP_BITS_CAP


@pytest.mark.parametrize("digits", [10, 52, 60])
def test_exp_enclosure_on_the_default_grid(digits):
    for u in geometric_grid(Fraction(1, 100), 1000, 25):
        _assert_exp_matches_mpmath(u, digits)
        _assert_exp_matches_mpmath(-u, digits)


def test_bessel_ratio_oracle_and_edges():
    assert close(specfun.bessel_ratio(1, 1, 28), I1_RATIO_AT_1)
    assert specfun.bessel_ratio(3, 0, 10).lo == Fraction(1, 6)
    with pytest.raises(ValueError):
        specfun.bessel_ratio(-1, 1, 10)
    with pytest.raises(ValueError):
        specfun.bessel_ratio(1, -1, 10)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=8),
       st.one_of(
           st.just(Fraction(0)),
           st.fractions(min_value=0, max_value=200, max_denominator=10 ** 6),
           st.sampled_from([u for u in geometric_grid(Fraction(1, 100), 1000,
                                                      25) if u <= 200])),
       st.integers(min_value=5, max_value=50))
def test_bessel_ratio_differential_against_mpmath(k, u, digits):
    # sum_n u^n/(n! (n+k)!) = 0F1(; k+1; u)/k!, which mpmath sums on its own
    mpmath = pytest.importorskip("mpmath")
    e = specfun.bessel_ratio(k, u, digits)
    assert e.width <= Fraction(1, 10 ** digits)
    # the value is below e^(2 sqrt(200)) < 10^13, so the oracle resolves
    # 10**-(digits+37) in absolute terms
    with mpmath.workdps(digits + 50):
        value = mpmath.hyp0f1(k + 1, _mpf(u)) / mpmath.factorial(k)
        assert _mpf(e.lo) <= value <= _mpf(e.hi), (k, u, digits, e)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=8),
       st.one_of(
           st.just(Fraction(0)),
           st.fractions(min_value=0, max_value=1000, max_denominator=10 ** 6),
           st.sampled_from(
               list(geometric_grid(Fraction(1, 100), 1000, 25)))),
       st.integers(min_value=5, max_value=60))
def test_bessel_ratio_equals_the_fraction_loop(k, u, digits):
    assert specfun.bessel_ratio(k, u, digits) == \
        bessel_ratio_fraction(k, u, digits, specfun.TERM_CAP)


def test_bessel_ratio_refuses_an_argument_past_its_cap():
    # about 3 sqrt(u) terms of growing integers: past the work budget, an
    # argument is refused before any work
    assert specfun.bessel_ratio(0, Fraction(10 ** 7 - 1, 10 ** 6), 10).lo > 0
    for u in (10 ** 8, Fraction(10 ** 9 + 1, 10), 10 ** 9):
        with pytest.raises(ValueError, match=r"^work --k/--u/--grid .* 0\.\."):
            specfun.bessel_ratio(1, u, 10)


def test_bessel_ratio_refuses_an_order_or_a_size_past_its_cap():
    # the order's factorial, and terms that grow by the bits of u's
    # numerator and denominator, about 3 isqrt(u) of them: the work budget
    # admits the old ends of the order and argument ranges, and refuses a
    # larger order or argument at once
    assert specfun.bessel_ratio(10 ** 5, 1, 10).hi > 0
    assert specfun.bessel_ratio(0, 10 ** 7, 10).lo > 0
    with pytest.raises(ValueError, match=r"^work --k/--u/--grid \d+ .* "
                       rf"0\.\.{enclosure.WORK_MAX}$"):
        specfun.bessel_ratio(10 ** 6, 1, 10)
    with pytest.raises(ValueError, match=r"^order --k -1 "):
        specfun.bessel_ratio(-1, 1, 10)
    for u in (Fraction(10 ** 23 - 1, 10 ** 16), 1 + Fraction(1, 10 ** 31000)):
        with pytest.raises(ValueError, match=r"^work --k/--u/--grid .* 0\.\."):
            specfun.bessel_ratio(0, u, 10)


def test_polygamma_refuses_an_order_or_a_size_past_its_cap():
    # the work budget admits the old top order at x = 10^-6 and a
    # 1,000-bit denominator at 10 digits, and refuses at once a higher
    # order, larger powers of x and, at 1,000 digits, long exact
    # Bernoulli terms on a denominator's powers
    top = 1000
    assert specfun.polygamma(top, Fraction(1, 10 ** 6), 10).hi < 0
    assert specfun.polygamma(1, Fraction(1, 2 ** 1000 - 1), 10).lo > 0
    with pytest.raises(ValueError, match=r"^order --n 0 .*\.\.$"):
        specfun.polygamma(0, 1, 10)
    over = r"^work --n/--x/--t/--grid .* 0\.\."
    for n in (10 ** 5, 20 * top):
        with pytest.raises(ValueError, match=over):
            specfun.polygamma(n, 1, 10)
    with pytest.raises(ValueError, match=over):
        specfun.polygamma_jet(1, 10 ** 5, 1, 10)
    # psi^(n)(x) ~ n!/x^(n+1) at small x, and long fixed points at large x
    for n, x in ((top, Fraction(1, 10 ** 100)), (top, 10 ** 9000)):
        with pytest.raises(ValueError, match=over):
            specfun.polygamma(n, x, 60)
    # exact Bernoulli terms take powers of the denominator
    for x in (Fraction(1, 2 ** 1000), 1 + Fraction(1, 2 ** 1000)):
        with pytest.raises(ValueError, match=over):
            specfun.polygamma(1, x, 1000)


def test_bessel_ratio_raises_at_term_cap(monkeypatch):
    # the series of I_2(2 sqrt(1000))/1000 needs about 45 terms before its
    # ratios drop below 1/2; stopping at 10 has no proven tail bound
    monkeypatch.setattr(specfun, "TERM_CAP", 10)
    with pytest.raises(RuntimeError):
        specfun.bessel_ratio(2, 1000, 10)


def test_polygamma_matches_oracles():
    assert close(specfun.polygamma(1, 1, 28), PSI1_AT_1)
    assert close(specfun.polygamma(1, 3, 28), PSI1_AT_3)
    assert close(specfun.polygamma(2, 2, 28), PSI2_AT_2)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.one_of(
           st.fractions(min_value=Fraction(1, 100), max_value=1000,
                        max_denominator=10 ** 6),
           st.sampled_from(
               list(geometric_grid(Fraction(1, 100), 1000, 25)))),
       st.integers(min_value=5, max_value=60))
def test_polygamma_differential_against_mpmath(n, x, digits):
    mpmath = pytest.importorskip("mpmath")
    e = specfun.polygamma(n, x, digits)
    assert e.width <= Fraction(1, 10 ** digits)
    # |psi^(n)(x)| <= 2 n! / x**(n+1) < 10**(2n+21) for x >= 1/100, so the
    # oracle resolves 10**-(digits+39) in absolute terms
    with mpmath.workdps(digits + 60 + 2 * n):
        value = mpmath.psi(n, _mpf(x))
        assert _mpf(e.lo) <= value <= _mpf(e.hi), (n, x, digits, e)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.fractions(min_value=Fraction(1, 100), max_value=1000,
                    max_denominator=1000),
       st.integers(min_value=5, max_value=40),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=2, max_value=100))
def test_polygamma_mantissas_bracket_at_their_own_resolution(n, x, digits,
                                                             extra_m, p):
    # a coarse scale 2**-p makes the floor/ceil steps visible, and x up to
    # 1000 gives lifts m = 0 where no shift terms add slack; any lift at or
    # above the one polygamma starts from must give a sound bracket
    mpmath = pytest.importorskip("mpmath")
    m = max(0, math.ceil(max(20, digits) - x)) + extra_m
    tol_den = 10 ** (digits + 1)
    a, b = x.numerator, x.denominator
    guard = p - tol_den.bit_length() - n * (m + a // b).bit_length()
    (body,) = specfun._polygamma_mantissas(n, n, a, b, m, tol_den, guard)
    assert body is not None and body[0] == p
    _, lo, hi = body
    # |psi^(n)(x)| < 2**210 for x >= 1/100 and n <= 20
    with mpmath.workprec(p + 300):
        scaled = abs(mpmath.psi(n, _mpf(x))) * 2 ** p
        assert lo <= scaled <= hi, (n, x, digits, m, p, lo, hi)


# x from 10**-6 to 10**6, spread over the decades
_wide_points = st.builds(
    lambda mantissa, e: mantissa * Fraction(10) ** e,
    st.fractions(min_value=1, max_value=10, max_denominator=1000),
    st.integers(min_value=-6, max_value=5))


def _jet_case(n0, span, x, digits, lift):
    """Jet arguments: orders n0..N within 1..40, and the lift m that
    polygamma_jet takes at target max(20, digits) * 2 / 2**lift; lifts
    below the first make orders whose terms stop decreasing (None)."""
    target = max(20, digits) * 2 >> lift
    return (n0, min(n0 + span, 40), x.numerator, x.denominator,
            max(0, math.ceil(target - x)), 10 ** (digits + 1))


def _rounded(body, tol_den):
    """A jet entry rounded outward at 1/tol_den, as polygamma_jet does."""
    if body is None:
        return None
    p, lo, hi = body
    return p, lo * tol_den >> p, -(-hi * tol_den >> p)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=39), _wide_points,
       st.integers(min_value=5, max_value=158),
       st.integers(min_value=0, max_value=4))
def test_polygamma_jet_rounds_like_the_exact_jet(n0, span, x, digits, lift):
    # the fixed-point mantissas keep the stop rule, None orders and p of
    # the exact-rational jet at each lift, and round to the same endpoints;
    # so does polygamma_jet, which retries at these digits only at high
    # orders (next test)
    args = _jet_case(n0, span, x, digits, lift)
    tol_den = args[-1]
    assert [_rounded(body, tol_den)
            for body in specfun._polygamma_mantissas(*args)] == \
        [_rounded(body, tol_den) for body in polygamma_mantissas_exact(*args)]
    n0, N = args[:2]
    jet = specfun.polygamma_jet(n0, N, x, digits)
    with mock.patch.object(specfun, "_polygamma_mantissas",
                           polygamma_mantissas_exact):
        assert jet == specfun.polygamma_jet(n0, N, x, digits)


@pytest.mark.parametrize("n0,N,x,digits", [
    (300, 300, Fraction(3), 30), (120, 122, Fraction(1, 1000), 60),
    (1000, 1000, Fraction(1, 3), 20), (90, 100, Fraction(7, 2), 40)])
def test_polygamma_jet_matches_the_exact_jet_at_high_orders(n0, N, x,
                                                             digits):
    # high orders retry at larger lifts, and a jet that starts high floors
    # its first lift powers from exact ratios
    jet = specfun.polygamma_jet(n0, N, x, digits)
    with mock.patch.object(specfun, "_polygamma_mantissas",
                           polygamma_mantissas_exact):
        assert jet == specfun.polygamma_jet(n0, N, x, digits)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=39), _wide_points,
       st.integers(min_value=5, max_value=158),
       st.integers(min_value=0, max_value=4))
def test_polygamma_jet_brackets_contain_mpmath(n0, span, x, digits, lift):
    mpmath = pytest.importorskip("mpmath")
    args = _jet_case(n0, span, x, digits, lift)
    a, b = args[2:4]
    for n, body in enumerate(specfun._polygamma_mantissas(*args), n0):
        if body is None:
            continue
        p, lo, hi = body
        # |psi^(n)(x)| < n! (x**-(n+1) + 2) <= n! (floor(x**-(n+1)) + 3)
        size = math.factorial(n) * (b ** (n + 1) // a ** (n + 1) + 3)
        with mpmath.workprec(p + size.bit_length() + 64):
            scaled = abs(mpmath.psi(n, _mpf(x))) * 2 ** p
            assert lo <= scaled <= hi, (n, x, digits, args[4], p)


def test_polygamma_recurrence():
    # psi'(x+1) = psi'(x) - 1/x^2
    for x in (Fraction(1, 2), 2, Fraction(7, 3), 40):
        a = specfun.polygamma(1, Fraction(x) + 1, 20)
        b = specfun.polygamma(1, x, 20) - Fraction(1, Fraction(x) ** 2)
        assert a.lo <= b.hi and a.hi >= b.lo


def test_polygamma_series_consistent_with_recurrence_path():
    # direct Hurwitz-sum truncation brackets the same value
    val = specfun.polygamma(1, 5, 18)
    series = polygamma_hurwitz(1, Fraction(5), 4000)
    assert series.lo <= val.hi and series.hi >= val.lo


def test_k_tail_closed_forms():
    # ell = 0: q/(1-q); ell = 1: q/(1-q)^2 with q = e^-a
    q = specfun.exp_enclosure(-2, 25)
    t0 = specfun.k_tail(0, 2, 20)
    assert t0.lo <= (q / (1 - q)).hi and t0.hi >= (q / (1 - q)).lo
    t1 = specfun.k_tail(1, 2, 20)
    expect = q / ((1 - q) * (1 - q))
    assert t1.lo <= expect.hi and t1.hi >= expect.lo
    assert close(specfun.k_tail(3, 1, 28), K_TAIL_3_AT_1)
    with pytest.raises(ValueError):
        specfun.k_tail(2, 0, 10)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=8),
       st.fractions(min_value=Fraction(1, 1000), max_value=50,
                    max_denominator=1000),
       st.integers(min_value=5, max_value=50))
def test_k_tail_differential_against_mpmath(ell, a, digits):
    # sum_k k^ell q^k = Li_{-ell}(q) with q = e^-a, a rational function of q
    # that mpmath evaluates on its own
    mpmath = pytest.importorskip("mpmath")
    e = specfun.k_tail(ell, a, digits)
    assert e.width <= Fraction(1, 10 ** digits), (ell, a, digits, e.width)
    # the value is below 2 ell!/a^(ell+1) < 10^32 for a >= 1/1000, so the
    # oracle resolves 10**-(digits+28) in absolute terms
    with mpmath.workdps(digits + 60):
        value = mpmath.polylog(-ell, mpmath.exp(-_mpf(a)))
        assert _mpf(e.lo) <= value <= _mpf(e.hi), (ell, a, digits, e)


def test_k_tail_meets_its_width_near_the_pole():
    # K_6(a) is about 6!/a^7 = 7.2e23 here, so a width of 10^-5 needs 29
    # significant digits through the pole (e^a - 1)^-7
    e = specfun.k_tail(6, Fraction(1, 1000), 5)
    assert e.width <= Fraction(1, 10 ** 5)


def test_k_tail_partial_sums_converge_from_below():
    e = specfun.exp_enclosure(-Fraction(3, 2), 25)
    partial = sum((Enclosure.point(k ** 2) * e ** k for k in range(1, 60)),
                  Enclosure.point(0))
    total = specfun.k_tail(2, Fraction(3, 2), 20)
    assert partial.lo < total.hi
    assert total.lo <= partial.hi + Fraction(1, 10 ** 10)
