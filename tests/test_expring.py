import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cmcert import expring, specfun
from cmcert.enclosure import Enclosure
from cmcert.expring import ExpPolyQuotient
from cmcert.poly import Polynomial

from reference_values import (KERNEL_BASE, RECIPROCAL_BASE, ExpPoly, as_table,
                              derivative_tower, eval_enclosure_fraction)


def _random_exppolys(count: int):
    """Pairs of small ring elements, frequencies 0..3 and degrees 0..2."""
    rng = random.Random(0)
    for _ in range(count):
        yield [ExpPoly.of({f: Polynomial.of([Fraction(rng.randint(-9, 9),
                                                      rng.randint(1, 4))
                                             for _ in range(3)])
                           for f in rng.sample(range(4), rng.randint(0, 3))})
               for _ in range(2)]


def test_exppoly_ring_operations():
    # the table's sum, zeros dropped, and product, against the ring they
    # replaced
    a = {(1, 1): 1}                                       # u e^u
    b = {(0, 0): 1}                                       # 1
    s = expring._table([*a.items(), *b.items()])
    assert s == {(0, 0): 1, (1, 1): 1}
    assert expring._product(a, a) == {(2, 2): 1}          # u^2 e^{2u}
    assert expring._table([*s.items(), *((k, -c) for k, c in s.items())]) \
        == {}
    assert expring._product(expring._exp_minus_one_power(2),
                            expring._exp_minus_one_power(3)) \
        == expring._exp_minus_one_power(5)
    for x, y in _random_exppolys(200):
        assert expring._product(as_table(x), as_table(y)) == as_table(x * y)
        assert expring._table([*as_table(x).items(), *as_table(y).items()]) \
            == as_table(x + y)


def test_exppoly_derivative_product_rule():
    # d/du (u e^{2u}) = (1 + 2u) e^{2u}
    assert expring._derivative({(2, 1): 1}) == {(2, 0): 1, (2, 1): 2}
    assert expring._derivative({(0, 0): 5}) == {}
    for x, _ in _random_exppolys(200):
        assert expring._derivative(as_table(x)) == as_table(x.derivative())


def test_exppoly_taylor_coefficient():
    # u e^{2u} = sum 2^j u^{j+1} / j!
    coeffs = expring.series_at_zero(ExpPolyQuotient({(2, 1): 1}, 0), 8)
    for j in range(1, 8):
        assert coeffs[j] == Fraction(2 ** (j - 1), math.factorial(j - 1))
    assert coeffs[0] == 0


def test_kernel_series_matches_bernoulli_generating_function():
    # u e^u/(e^u - 1) = 1 + u/2 + sum_{n>=2} B_n u^n / n!
    coeffs = expring.series_at_zero(expring.kernel_derivative(0), 10)
    assert coeffs[0] == 1
    assert coeffs[1] == Fraction(1, 2)
    for n in range(2, 10):
        assert coeffs[n] == specfun.bernoulli(n) / math.factorial(n)


def test_derivative_commutes_with_series():
    for k in range(7):
        base = expring.series_at_zero(expring.kernel_derivative(k), 9)
        shifted = expring.series_at_zero(expring.kernel_derivative(k + 1), 8)
        for j in range(8):
            assert shifted[j] == (j + 1) * base[j + 1], (k, j)


def test_towers_equal_repeated_differentiation():
    # orders 0-40 of both towers' tables, against differentiation with
    # trial division in the ring they replaced
    tables = ((expring.reciprocal_derivative, RECIPROCAL_BASE),
              (expring.kernel_derivative, KERNEL_BASE))
    for tower, base in tables:
        for n, form in enumerate(derivative_tower(base, 40)):
            assert tower(n) == form, (tower.__name__, n)


def _numerator_at_e_equal_one(form) -> Polynomial:
    coeffs = [0] * (1 + max(d for _, d in form.numerator))
    for (_, d), c in form.numerator.items():
        coeffs[d] += c
    return Polynomial.of(coeffs)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 100])
def test_tower_numerators_are_reduced(n):
    # at E = 1 the numerators are (-1)^n n! and (-1)^n n! u, not 0, so no
    # factor (e^u - 1) is left to cancel against the pole n + 1; the Eulerian
    # row is iterative, so a high order builds without recursion
    value = (-1) ** n * math.factorial(n)
    reciprocal = expring.reciprocal_derivative(n)
    kernel = expring.kernel_derivative(n)
    assert reciprocal.pole == kernel.pole == n + 1
    assert _numerator_at_e_equal_one(reciprocal) == Polynomial.of([value])
    assert _numerator_at_e_equal_one(kernel) == Polynomial.of([0, value])


def test_kernel_fourth_derivative_matches_exponential_sums():
    # for u > 0 the fourth derivative equals sum_m m^3 (m u - 4) e^{-m u}
    for u in (Fraction(1, 2), 2, 5):
        u = Fraction(u)
        lhs = expring.eval_enclosure(expring.kernel_derivative(4), u, 20)
        rhs = u * specfun.k_tail(4, u, 22) - 4 * specfun.k_tail(3, u, 22)
        assert lhs.lo <= rhs.hi and lhs.hi >= rhs.lo


def test_eval_enclosure_continuous_across_series_switch():
    # 1/4, where an earlier evaluator switched to Taylor sums below
    f = expring.kernel_derivative(2)
    below = expring.eval_enclosure(f, Fraction(1, 4) - Fraction(1, 1000), 25)
    at = expring.eval_enclosure(f, Fraction(1, 4), 25)
    above = expring.eval_enclosure(f, Fraction(1, 4) + Fraction(1, 1000), 25)
    for e in (below, at, above):
        assert e.width <= Fraction(1, 10 ** 25)
    # second derivative of the kernel is near 1/6 and slowly varying here
    assert below.lo > 0 and above.lo > 0
    below, at, above = ((e.lo + e.hi) / 2 for e in (below, at, above))
    assert abs(at - below) < Fraction(1, 100)
    assert abs(above - at) < Fraction(1, 100)


# u in (0, 1/4]: everyday rationals, and tiny ones in [10^-18, 10^-12]
small_u = st.one_of(
    st.fractions(min_value=0, max_value=Fraction(1, 4),
                 max_denominator=10 ** 6).filter(lambda u: u > 0),
    st.builds(Fraction, st.integers(1, 1000),
              st.integers(10 ** 15, 10 ** 18)))


TOWERS = (expring.kernel_derivative, expring.reciprocal_derivative)


def _recording_exp(monkeypatch, requested):
    exp_enclosure = specfun.exp_enclosure
    monkeypatch.setattr(specfun, "exp_enclosure", lambda x, d: (
        requested.append(d), exp_enclosure(x, d))[1])


def _contains(outer: Enclosure, inner: Enclosure) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.sampled_from(TOWERS), st.integers(min_value=0, max_value=8),
       st.one_of(
           small_u.filter(lambda u: u < Fraction(1, 4)),
           st.fractions(min_value=Fraction(1, 4), max_value=50,
                        max_denominator=10 ** 6)),
       st.integers(min_value=5, max_value=60))
@example(expring.reciprocal_derivative, 8, Fraction(1, 4), 5)
@example(expring.kernel_derivative, 3, Fraction(0), 10)
def test_eval_enclosure_equals_the_enclosure_composition(tower, n, u, digits):
    # directed rounding keeps every fixed-point bracket around the exact
    # Enclosure composition over the last round's exp enclosure
    f = tower(n)
    requested = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        _recording_exp(monkeypatch, requested)
        try:
            value = expring.eval_enclosure(f, u, digits)
        except (ArithmeticError, ValueError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                eval_enclosure_fraction(f, u, digits)
            return
    assert _contains(value, eval_enclosure_fraction(f, u, requested[-1]))
    assert value.width <= Fraction(1, 10 ** digits)


def test_eval_enclosure_escalates_the_guard_like_the_composition(monkeypatch):
    # D^8 [1/(e^u - 1)] is about 1e10 at u = 1/4: the first guard, 8 plus
    # pole * 3/10 * (bits of 4 - bits of 1) = 5, misses 10^-5, and the
    # second round adds the decimal digits of the measured miss, plus 2
    requested, values = [], []
    _recording_exp(monkeypatch, requested)
    divide = expring.divide_round_out
    monkeypatch.setattr(expring, "divide_round_out", lambda *args: (
        values.append(divide(*args)), values[-1])[1])
    f = expring.reciprocal_derivative(8)
    value = expring.eval_enclosure(f, Fraction(1, 4), 5)
    miss = values[0].width * 10 ** 5
    assert requested[0] == 5 + 13 and miss > 1
    assert requested == [18, 18 + len(str(math.ceil(miss))) + 2]
    assert values[1] is value and value.width <= Fraction(1, 10 ** 5)
    assert _contains(value, eval_enclosure_fraction(f, Fraction(1, 4),
                                                    requested[1]))


def test_eval_enclosure_never_raises_a_bracket_of_e_u_minus_1_through_0(
        monkeypatch):
    # e^u in [1 - 10^-3, 1 + 10^-3] puts e^u - 1 across 0, where the even
    # pole 2 of D[1/(e^u - 1)] would give an inverted, unsound bound
    planted = Enclosure(1 - Fraction(1, 1000), 1 + Fraction(1, 1000))
    monkeypatch.setattr(specfun, "exp_enclosure", lambda x, d: planted)
    with pytest.raises(ArithmeticError, match="no enclosure after 6 rounds"):
        expring.eval_enclosure(expring.reciprocal_derivative(1),
                               Fraction(1, 2), 10)


def test_eval_enclosure_recovers_from_one_bracket_through_0(monkeypatch):
    # the planted bracket on round 1 gives no enclosure, so the guard
    # doubles and adds digits: 8 -> 26, and round 2 encloses soundly
    planted = Enclosure(1 - Fraction(1, 1000), 1 + Fraction(1, 1000))
    exp_enclosure, requested = specfun.exp_enclosure, []
    monkeypatch.setattr(specfun, "exp_enclosure", lambda x, d: (
        requested.append(d), planted if len(requested) == 1
        else exp_enclosure(x, d))[1])
    f, u = expring.reciprocal_derivative(1), Fraction(1, 2)
    value = expring.eval_enclosure(f, u, 10)
    assert requested == [18, 36]
    assert value.width <= Fraction(1, 10 ** 10)
    assert _contains(value, eval_enclosure_fraction(f, u, 36))


def _mpf(q: Fraction):
    import mpmath
    return mpmath.mpf(q.numerator) / q.denominator


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.one_of(
           small_u.filter(lambda u: u < Fraction(1, 4)),
           st.fractions(min_value=Fraction(1, 4), max_value=50,
                        max_denominator=10 ** 6)),
       st.integers(min_value=5, max_value=40))
def test_eval_enclosure_differential_against_mpmath(k, u, digits):
    # mpmath differentiates u/(1 - e^-u) numerically on its own, accurate
    # to its working precision; |kernel^(k)| <= 50 here, so 20 more digits
    # resolve far below the enclosure's 10^-(digits+1) grid
    mpmath = pytest.importorskip("mpmath")
    e = expring.eval_enclosure(expring.kernel_derivative(k), u, digits)
    assert e.width <= Fraction(1, 10 ** digits)
    with mpmath.workdps(digits + 20):
        value = mpmath.diff(lambda x: x / -mpmath.expm1(-x), _mpf(u), k)
        assert _mpf(e.lo) <= value <= _mpf(e.hi), (k, u, digits, e)


@pytest.mark.parametrize("u", [Fraction(1, 10 ** 6), Fraction(1, 4),
                               Fraction(1), Fraction(56), Fraction(1000),
                               Fraction(10 ** 5)], ids=str)
def test_tower_enclosures_contain_the_mpmath_values(u):
    # D^n [1/(e^u - 1)] = (-1)^n K_n(u) and kernel^(n)(u) = (-1)^n u K_n(u)
    # + n (-1)^(n-1) K_(n-1)(u), plus u at n = 0 and 1 at n = 1, with
    # K_n(u) = Li_{-n}(e^-u) summed by mpmath on its own, 100 digits past
    # the size of K_(n+1)(u); e^u at u = 10^5 has 43,430 digits, so no
    # evaluator that expands it reaches the last point
    mpmath = pytest.importorskip("mpmath")
    for n in range(21):
        size = (math.lgamma(n + 2) - (n + 2) * math.log(u)) / math.log(10)
        with mpmath.workdps(100 + max(0, int(size))):
            x = _mpf(u)
            K = [mpmath.polylog(-j, mpmath.exp(-x)) for j in range(n + 1)]
            kernel = (-1) ** n * x * K[n] + (x if n == 0 else n == 1)
            if n:
                kernel += n * (-1) ** (n - 1) * K[n - 1]
            for digits in (20, 60):
                for tower, value in ((expring.reciprocal_derivative,
                                      (-1) ** n * K[n]),
                                     (expring.kernel_derivative, kernel)):
                    e = expring.eval_enclosure(tower(n), u, digits)
                    assert e.width <= Fraction(1, 10 ** digits)
                    assert _mpf(e.lo) <= value <= _mpf(e.hi), \
                        (tower.__name__, n, digits)


def test_eval_enclosure_mantissas_do_not_grow_with_u(monkeypatch):
    # the one path runs in e^-u <= 1, so the exp mantissas at u = 1000 and
    # 10^5 have the bits of u = 5 plus one per extra squaring, where e^u
    # itself would take some 1,450 and 144,000 more
    bits = {}
    kernel = specfun._exp_mantissas
    for u in (5, 1000, 10 ** 5):
        precisions = bits[u] = []
        monkeypatch.setattr(specfun, "_exp_mantissas", lambda n, d, k, p: (
            precisions.append(p - k), kernel(n, d, k, p))[1])
        expring.eval_enclosure(expring.kernel_derivative(4), u, 44)
    assert bits[5] == bits[1000] == bits[10 ** 5]


# order 100 at a = 10^-6 only at 60 digits: mpmath's polylog takes over a
# second there at either precision
K_TAIL_CASES = [(ell, a, d) for ell in (0, 6, 50, 100)
                for a in (Fraction(1, 10 ** 6), Fraction(1, 1000),
                          Fraction(249, 1000), Fraction(1), Fraction(7),
                          Fraction(2500))
                for d in (20, 60)
                if (ell, a, d) != (100, Fraction(1, 10 ** 6), 20)]


@pytest.mark.parametrize("ell, a, digits", K_TAIL_CASES)
def test_k_tail_contains_mpmath_polylog(ell, a, digits):
    # K_ell(a) = Li_{-ell}(e^-a), summed by mpmath on its own.  Its working
    # precision covers the value's size, about ell!/a^(ell+1), the digits
    # asked for, and log10(1/a) lost to z = e^-a near 1, with 20 to spare
    mpmath = pytest.importorskip("mpmath")
    e = specfun.k_tail(ell, a, digits)
    assert e.width <= Fraction(1, 10 ** digits)
    log_a = math.log10(a.numerator) - math.log10(a.denominator)
    size = max(0, math.lgamma(ell + 1) / math.log(10) - (ell + 1) * log_a)
    with mpmath.workdps(int(size + digits + max(0, -log_a)) + 20):
        value = mpmath.polylog(-ell, mpmath.exp(-_mpf(a)))
        assert _mpf(e.lo) <= value <= _mpf(e.hi), (ell, a, digits)


@pytest.mark.parametrize("u", [Fraction(1, 10), Fraction(3)])
def test_eval_enclosure_raises_on_width_miss(monkeypatch, u):
    # e^-u in [1/(u + 2), 1/(u + 1)] whatever the precision: every round
    # misses
    monkeypatch.setattr(specfun, "exp_enclosure",
                        lambda x, digits: Enclosure(1 / (2 - x), 1 / (1 - x)))
    with pytest.raises(ArithmeticError, match="width 10\\^-12"):
        expring.eval_enclosure(expring.kernel_derivative(2), u, 12)


def test_eval_enclosure_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        expring.eval_enclosure(expring.kernel_derivative(0), 0, 10)


def test_series_at_zero_detects_genuine_pole():
    f = ExpPolyQuotient({(0, 0): 1}, 1)
    with pytest.raises(ValueError, match="pole"):
        expring.series_at_zero(f, 5)


def test_chain_origin_zeros():
    f1, f2, f3, report = expring.build_F_chain()
    assert report["verified"]
    assert set(report["zeros"]) == {"F3(0)", "F2''(0)", "F2'(0)", "F2(0)",
                                    "F1''(0)", "F1'(0)", "F1(0)"}
    assert all(v == "0" for v in report["zeros"].values())
    assert expring._at_zero(f1) == 0
    assert expring._at_zero(f3) == 0


def test_pade_reconstruction_matches_reference():
    f4, report = expring.build_f4_via_pade()
    assert report["matches_reference"]
    assert report["sextic_factor_positive_on_0_6"] == "certified"
    assert report["negated_quintic_positive_on_0_6"] == "certified"
    assert f4.coeffs == expring.F4_REFERENCE_COEFFS
    assert len(f4.coeffs) - 1 == 28
    assert f4[0] == Fraction(4038947756777593110528000000)
    assert f4[28] == 621


def test_remark_decomposition():
    # F3 = f1 + f2 + f3 exactly, with
    #   f1 = [10u(e^u - 261) + 3966] e^{2u}  (increasing on [5, inf))
    #   f2 = (69 e^{2u} - 7119u - 4035) e^u  (increasing on [3, inf))
    #   f3 = 3249 e^{2u} - 793u - 3249       (increasing on [0, inf))
    _, _, f3_chain, _ = expring.build_F_chain()
    part1 = {(3, 1): 10, (2, 0): 3966, (2, 1): -2610}
    part2 = {(3, 0): 69, (1, 0): -4035, (1, 1): -7119}
    part3 = {(2, 0): 3249, (0, 0): -3249, (0, 1): -793}
    assert expring._table([*part1.items(), *part2.items(),
                           *part3.items()]) == f3_chain
    assert expring._at_zero(part3) == 0
    for piece, start in ((part1, 5), (part2, 3), (part3, 0)):
        # pole 0 under frequency 3: the one path's e^(3u) factor
        slope = ExpPolyQuotient(expring._derivative(piece), 0)
        for u in (Fraction(1, 2), 1, 3, 5, 10):
            if u >= start:
                assert expring.eval_enclosure(slope, u, 20).lo >= 0, (start, u)
