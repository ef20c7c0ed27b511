import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmcert import seriesratio as sr, specfun
from cmcert.cmdegree import geometric_grid, linear_grid
from cmcert.expring import (ExpPolyQuotient, eval_enclosure,
                            kernel_derivative, series_at_zero)
from cmcert.poly import Polynomial
from reference_values import (ExpPoly, as_table, lambda_coeff,
                              ladder_check_theta_rows, p_coeff, q_coeff_sum,
                              round_out_fraction, theta_row_fraction,
                              xi_coeff_sum)

betas = st.fractions(min_value=Fraction(1, 10), max_value=10,
                     max_denominator=50)
# zero, negative values and large denominators, for the exact sums
any_betas = st.one_of(st.just(Fraction(0)),
                      st.integers(min_value=-5, max_value=5).map(Fraction),
                      st.fractions(min_value=-50, max_value=50,
                                   max_denominator=10 ** 6))


# -- the Fraction loops that q_coeff, xi_coeff and ladder_check replaced,
#    kept as references --------------------------------------------------


def q_coeff_reference(k, beta):
    acc = Fraction(0)
    for l in range(k + 1):
        acc += math.comb(k + 2, l) * Fraction(2 ** (k - l + 2) - 2,
                                              math.factorial(l + 2)) * beta ** l
    return acc / math.factorial(k + 2)


def xi_coeff_reference(k, beta):
    acc = Fraction(0)
    for l in range(k + 1):
        d = k - l
        inner = (3 ** (d + 4) - (d + 10) * 2 ** (d + 3) + 2 * d + 11) * beta \
            - (l + 3) * (d * 2 ** (d + 3) + 4)
        acc += math.comb(k + 4, l) * beta ** l / math.factorial(l + 3) * inner
    return acc / math.factorial(k + 4)


def theta_reference(k, l):
    U = sr.U_value(k)
    if l == 0:
        return Fraction(-2 * (2 ** (k + 1) * k + 1), U)
    if l == k + 1:
        return Fraction(k + 4, 2 * math.factorial(k) * U)
    return Fraction(math.factorial(k + 4) * sr.V_value(k, l),
                    math.factorial(l) * math.factorial(l + 2)
                    * math.factorial(k - l + 5) * U)


def M_reference(m, k):
    return sr.script_A(m) * k * k + sr.script_B(m) * k + sr.script_C(m)


def ladder_check_reference(k_max):
    failures = []
    for k in range(4, k_max + 1):
        for l in range(0, k + 1):
            if theta_reference(k + 1, l) < theta_reference(k, l):
                failures.append(("theta", k, l))
        for m in range(0, k - 1):
            if M_reference(m, k) < 0:
                failures.append(("M", m, k))
        if Fraction(sr.U_value(k + 1), sr.U_value(k)) > \
                Fraction(sr.V_value(k + 1, 1), sr.V_value(k, 1)):
            failures.append(("UV", k, None))
        for m, seed in ((0, 3360 * (54 - 137 * k + 74 * k * k)),
                        (1, 1568 * (6480 - 7306 * k + 1909 * k * k)),
                        (2, 336 * (750942 - 549881 * k + 95837 * k * k))):
            if M_reference(m, k) != seed:
                failures.append(("seed-mismatch", m, k))
            if seed <= 0:
                failures.append(("seed-sign", m, k))
    for m in range(0, k_max + 1):
        if sr.script_A(m) <= 0:
            failures.append(("A", m, None))
        if sr.script_B(m) >= 0:
            failures.append(("B", m, None))
        if sr.script_C(m) <= 0:
            failures.append(("C", m, None))
    return {
        "k_max": k_max,
        "passed": not failures,
        "failures": failures,
        "C_values": {m: sr.script_C(m) for m in range(6)},
        "U4": sr.U_value(4),
    }


def test_first_ratio_closed_forms():
    # c_0 = 1, c_1 = (3 + beta)/4 for every beta
    for beta in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
        c = sr.c_ratio_sequence(beta, 2).values
        assert c[0] == 1
        assert c[1] == (3 + beta) / 4
    assert p_coeff(0) == Fraction(1, 2)
    assert p_coeff(1) == Fraction(2, 3)
    assert sr.q_coeff(0, 7) == Fraction(1, 2)


def test_derivative_ratio_closed_forms():
    for beta in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
        C = sr.C_ratio_sequence(beta, 4).values
        assert C[0] == (beta - 1) / 3
        assert C[1] == (beta ** 2 + 4 * beta - 4) / 20
    assert lambda_coeff(0) == Fraction(sr.U_value(0), math.factorial(4))
    assert sr.U_value(4) == 4074


@given(betas, st.integers(min_value=0, max_value=8))
@settings(deadline=None)
def test_xi_matches_independent_convolution(beta, k):
    # xi_k is the u^(k+4) Taylor coefficient of
    #   (E-1)^2 (E-1-u) * beta*i3(beta u) - [(u-2)E + u + 2](E-1) * i2(beta u)
    # with E = e^u; assembled here from first principles
    E = ExpPoly.of({1: Polynomial.of([1])})
    one = ExpPoly.of({0: Polynomial.of([1])})
    u = ExpPoly.of({0: Polynomial.of([0, 1])})
    A = (E - one) * (E - one) * (E - one - u)
    B = (E.mul_poly(Polynomial.of([-2, 1]))
         + ExpPoly.of({0: Polynomial.of([2, 1])})) * (E - one)
    n = k + 4
    a = series_at_zero(ExpPolyQuotient(as_table(A), 0), n + 1)
    b = series_at_zero(ExpPolyQuotient(as_table(B), 0), n + 1)
    conv = sum(a[n - j]
               * beta ** (j + 1)
               / (math.factorial(j) * math.factorial(j + 3))
               for j in range(n + 1)) \
        - sum(b[n - j]
              * beta ** j / (math.factorial(j) * math.factorial(j + 2))
              for j in range(n + 1))
    assert sr.xi_coeff(k, beta) == conv


@given(any_betas, st.integers(min_value=0, max_value=80))
@settings(deadline=None, derandomize=True, max_examples=200)
def test_coefficients_equal_the_fraction_loops(beta, k):
    assert sr.q_coeff(k, beta) == q_coeff_reference(k, beta) \
        == q_coeff_sum(k, beta)
    assert sr.xi_coeff(k, beta) == xi_coeff_reference(k, beta) \
        == xi_coeff_sum(k, beta)


# beta = 0, negative, tiny and huge: p = 0, negative p, and large p or q
RATIO_BETAS = [Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(0),
               Fraction(-1, 2), Fraction(-7, 3), Fraction(1, 10 ** 6),
               Fraction(10 ** 6)]


@pytest.mark.parametrize("beta", RATIO_BETAS, ids=str)
def test_ratio_sequences_equal_the_per_index_sums(beta):
    # one recurrence pass against the per-index integer sums it replaced,
    # which test_coefficients_equal_the_fraction_loops pins to the Fraction
    # loops; those take seconds per beta at this length
    assert sr.c_ratio_sequence(beta, 300).values == [
        q_coeff_sum(k, beta) / p_coeff(k) for k in range(301)]
    assert sr.C_ratio_sequence(beta, 200).values == [
        xi_coeff_sum(k, beta) / lambda_coeff(k) for k in range(201)]


@pytest.mark.parametrize("beta", RATIO_BETAS, ids=str)
def test_each_index_equals_the_fraction_loops(beta):
    # q_coeff and xi_coeff read index k from the recurrence, and the ratio
    # sequences hold c_k and C_k at index k
    c = sr.c_ratio_sequence(beta, 40).values
    C = sr.C_ratio_sequence(beta, 40).values
    for k in range(41):
        q, xi = q_coeff_reference(k, beta), xi_coeff_reference(k, beta)
        assert sr.q_coeff(k, beta) == q
        assert sr.xi_coeff(k, beta) == xi
        assert c[k] == q / p_coeff(k)
        assert C[k] == xi / lambda_coeff(k)


def _taylor(expr: ExpPoly, n: int) -> list:
    return series_at_zero(ExpPolyQuotient(as_table(expr), 0), n + 1)


@given(any_betas, st.integers(min_value=4, max_value=60))
@settings(deadline=None, derandomize=True, max_examples=25)
def test_ratio_sequences_match_independent_convolutions(beta, K):
    # c_k = q_k/p_k at u^(k+2) and C_k = xi_k/lambda_k at u^(k+4), every
    # series from its defining e-polynomial and the Bessel series i_2, i_3
    E = ExpPoly.of({1: Polynomial.of([1])})
    one = ExpPoly.of({0: Polynomial.of([1])})
    u = ExpPoly.of({0: Polynomial.of([0, 1])})
    n = K + 4
    q = _taylor((E - one) * (E - one), n)
    p = _taylor(E * E - (one + u) * E, n)
    a = _taylor((E - one) * (E - one) * (E - one - u), n)
    b = _taylor(((u - one - one) * E + u + one + one) * (E - one), n)
    lam = _taylor(E * E * E - (one + u) * (E * E + E * E)
                  + (one + u) * (one + u) * E, n)
    i2, i3 = ([beta ** j / (math.factorial(j) * math.factorial(j + m))
               for j in range(n + 1)] for m in (2, 3))

    def conv(x, y, m):
        return sum((x[m - j] * y[j] for j in range(m + 1)), Fraction(0))

    assert p[2:K + 3] == [p_coeff(k) for k in range(K + 1)]
    assert lam[4:] == [lambda_coeff(k) for k in range(K + 1)]
    assert sr.c_ratio_sequence(beta, K).values == [
        conv(q, i2, k + 2) / p[k + 2] for k in range(K + 1)]
    assert sr.C_ratio_sequence(beta, K).values == [
        (beta * conv(a, i3, k + 4) - conv(b, i2, k + 4)) / lam[k + 4]
        for k in range(K + 1)]


@given(any_betas, st.integers(min_value=0, max_value=40))
@settings(deadline=None, derandomize=True)
def test_q_matches_independent_convolution(beta, k):
    # q_k is the u^(k+2) Taylor coefficient of
    #   (e^u - 1)^2 * sum_l beta^l u^l / (l! (l+2)!)
    E = ExpPoly.of({1: Polynomial.of([1])})
    one = ExpPoly.of({0: Polynomial.of([1])})
    A = (E - one) * (E - one)
    n = k + 2
    a = series_at_zero(ExpPolyQuotient(as_table(A), 0), n + 1)
    conv = sum(a[n - l]
               * beta ** l / (math.factorial(l) * math.factorial(l + 2))
               for l in range(n + 1))
    assert sr.q_coeff(k, beta) == conv


@given(betas, st.integers(min_value=4, max_value=11))
@settings(deadline=None)
def test_theta_expansion_reproduces_derivative_ratio(beta, k):
    row = theta_row_fraction(k, sr.U_value(k))
    expanded = sum(theta * beta ** l for l, theta in enumerate(row))
    assert len(row) == k + 2
    assert expanded == sr.C_ratio_sequence(beta, k).values[k]


def W_reference(k, m):
    """The paper's W_k(m), the ladder polynomial V_k(l) indexed by m = k - l."""
    return ((k - m) * 3 ** (m + 5)
            + (m * m + (17 - 2 * k) * m - 22 * k) * 2 ** (m + 3)
            - 2 * m * m + (2 * k - 17) * m + 13 * k - 20)


@given(st.integers(min_value=4, max_value=50),
       st.integers(min_value=0, max_value=50))
def test_v_equals_w_under_index_swap(k, l):
    if l > k:
        return
    assert sr.V_value(k, l) == W_reference(k, k - l)


def test_ladder_check_passes_and_reports():
    report = sr.ladder_check(12)
    assert report["passed"]
    assert report["failures"] == []
    assert report["U4"] == 4074
    assert report["C_values"][0] == 181440
    with pytest.raises(ValueError):
        sr.ladder_check(3)


@pytest.mark.parametrize("k_max", [6, 7, 50, 120])
def test_ladder_check_equals_the_reference(k_max):
    assert sr.ladder_check(k_max) == ladder_check_reference(k_max) \
        == ladder_check_theta_rows(k_max)


def _plant(monkeypatch, name, faults):
    """Replace sr.<name> at the argument tuples in `faults` (args -> f)."""
    original = getattr(sr, name)
    monkeypatch.setattr(sr, name, lambda *args: faults[args](original(*args))
                        if args in faults else original(*args))


@pytest.mark.parametrize("name, faults", [
    ("U_value", {(k,): lambda v: 2 * v for k in (5, 8, 33, 90)}),
    ("U_value", {(k,): lambda v: v + 1 for k in (6, 61, 121)}),
    ("V_value", {(10, 3): lambda v: 2 * v, (40, 1): lambda v: v - 1,
                 (77, 77): lambda v: -v, (120, 60): lambda v: v // 2}),
    ("V_value", {(k, 1): lambda v: -v for k in (12, 13, 50)}),
    ("V_value", {(k, l): lambda v: v + 1 for k, l in
                 ((4, 1), (4, 4), (5, 5), (100, 1), (100, 99))}),
    # exact ties, theta_{31,5} = theta_{30,5} = 0 and
    # theta_{21,0} = theta_{20,0} = -2, are not failures
    ("V_value", {(30, 5): lambda v: 0, (31, 5): lambda v: 0}),
    ("U_value", {(20,): lambda v: 2 ** 21 * 20 + 1,
                 (21,): lambda v: 2 ** 22 * 21 + 1}),
])
def test_ladder_check_equals_the_theta_rows_under_planted_faults(
        monkeypatch, name, faults):
    # the cross-multiplied comparisons give the Fraction route's failure
    # list whether or not a planted fault breaks an inequality
    _plant(monkeypatch, name, faults)
    assert sr.ladder_check(120) == ladder_check_theta_rows(120)


@pytest.mark.parametrize("planted", [lambda v: -v, lambda v: 0])
def test_ladder_check_reports_a_nonpositive_U(monkeypatch, planted):
    # the cross-multiplied theta and U ratio tests rely on U_k > 0, so a U_k
    # that is not positive is a failure, never assumed away
    _plant(monkeypatch, "U_value", {(9,): planted})
    report = sr.ladder_check(20)
    assert not report["passed"]
    assert [f for f in report["failures"] if f[0] == "U"] == \
        [("U", 8, None), ("U", 9, None)]
    assert not any(f[0] in ("theta", "UV") and f[1] in (8, 9)
                   for f in report["failures"])


@pytest.mark.parametrize("name, at, planted, expected", [
    # B(7) made positive
    ("script_B", 7, lambda v: -v, [("B", 7, None)]),
    # U_8 doubled: theta rows 7 and 8 and the U ratio at k = 7 break
    ("U_value", 8, lambda v: 2 * v,
     [("theta", 7, 1), ("UV", 7, None), ("theta", 8, 0)]),
])
def test_ladder_check_reports_a_planted_failure(monkeypatch, name, at,
                                                planted, expected):
    # the tables must come from the ladder functions themselves
    _plant(monkeypatch, name, {(at,): planted})
    report = sr.ladder_check(20)
    assert not report["passed"]
    assert all(f in report["failures"] for f in expected)
    assert report == ladder_check_reference(20) == ladder_check_theta_rows(20)


def test_ratio_sequences_monotone():
    c = sr.c_ratio_sequence(1, 30)
    assert c.values[0] == 1 and c.values[1] == 1
    assert not c.strictly_increasing          # the k = 0 step is flat
    assert c.first_violation == 0
    assert all(c.values[k + 1] > c.values[k] for k in range(1, 30))

    C = sr.C_ratio_sequence(Fraction(1, 2), 20)
    assert C.strictly_increasing
    assert C.first_violation is None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([(1, sr.f_beta), (2, sr.g_beta)]),
       st.fractions(min_value=0, max_value=60,
                    max_denominator=1000).filter(lambda u: u > 0),
       st.fractions(min_value=0, max_value=3,
                    max_denominator=20).filter(lambda b: b > 0),
       st.integers(min_value=5, max_value=40))
def test_ratio_functions_are_the_rounded_enclosure_quotient(ratio, u, beta,
                                                            digits):
    k, function = ratio
    kern = eval_enclosure(kernel_derivative(k - 1), u, digits + 4)
    ik = specfun.bessel_ratio(k, beta * u, digits + 4)
    assert function(u, beta, digits) == \
        round_out_fraction(kern / ik, digits + 1)


def test_ratio_functions_at_small_argument():
    # both ratios tend to 1 at the origin for every beta
    for beta in (Fraction(1, 2), 1, 3):
        f = sr.f_beta(Fraction(1, 10 ** 5), beta, 10)
        g = sr.g_beta(Fraction(1, 10 ** 5), beta, 10)
        assert abs((f.lo + f.hi) / 2 - 1) < Fraction(1, 10 ** 3)
        assert abs((g.lo + g.hi) / 2 - 1) < Fraction(1, 10 ** 3)
    with pytest.raises(ValueError):
        sr.f_beta(0, 1, 10)


def test_unimodal_max_on_parabola():
    from cmcert.enclosure import Enclosure

    # x^2 (3 - 2x): unique max 1 at x = 1, asymmetric so probes never tie
    def cubic(x, d):
        x = Fraction(x)
        return Enclosure.point(x * x * (3 - 2 * x))

    res = sr.unimodal_max(cubic, (0, 2), Fraction(1, 1000), digits=10)
    assert res.resolved
    assert res.argmax.lo <= 1 <= res.argmax.hi
    assert res.argmax.width <= Fraction(1, 1000)
    # reported value is sampled inside the final bracket, so it sits just
    # below the true maximum
    assert Fraction(999, 1000) < res.value.lo <= res.value.hi <= 1


def test_unimodal_max_validates_input():
    from cmcert.enclosure import Enclosure
    with pytest.raises(ValueError):
        sr.unimodal_max(lambda x, d: Enclosure.point(x), (1, 0),
                        Fraction(1, 10))


def test_slope_sign_changes_on_exact_data():
    from cmcert.enclosure import Enclosure
    grid = [Fraction(k, 4) for k in range(1, 9)]
    signs, changes = sr.slope_sign_changes(
        lambda x, d: Enclosure.point(x * (2 - x)), grid, digits=10)
    assert changes == 1
    assert signs[0] == 1 and signs[-1] == -1
    # a difference that still meets 0 at the precision cap counts as 0
    signs, changes = sr.slope_sign_changes(
        lambda x, d: Enclosure(x - 1, x + 1), grid, digits=10)
    assert (set(signs), changes) == ({0}, 0)


def test_undecided_comparisons_stop_at_the_one_cap():
    # probe enclosures that always overlap are refined to exactly
    # enclosure.DIGIT_CAP digits, then reported as undecided
    from cmcert.enclosure import DIGIT_CAP, Enclosure
    seen = []

    def overlapping(x, d):
        seen.append(d)
        return Enclosure(-1, 1)

    res = sr.unimodal_max(overlapping, (0, 1), Fraction(1, 10), digits=40)
    assert (res.resolved, res.digits_used) == (False, DIGIT_CAP)
    assert sorted(set(seen)) == [40, 80, DIGIT_CAP]
    seen.clear()
    assert sr.slope_sign_changes(overlapping, [1, 2, 3], digits=40) == \
        ([0, 0], 0)
    assert seen == [d for d in (40, 80, DIGIT_CAP) for _ in range(2)] * 2


def test_grid_builders():
    g = list(geometric_grid(Fraction(1, 100), 1000, 25))
    assert len(g) == 25
    assert g[0] == Fraction(1, 100)
    assert all(b > a for a, b in zip(g, g[1:]))
    assert all(x.denominator <= 10 ** 6 for x in g)

    lin = list(linear_grid(0, 1, 5))
    assert lin == [Fraction(0), Fraction(1, 4), Fraction(1, 2),
                   Fraction(3, 4), Fraction(1)]
    with pytest.raises(ValueError):
        geometric_grid(1, 1, 5)
    for count in (0, -1):
        with pytest.raises(ValueError, match="count"):
            linear_grid(1, 2, count)
