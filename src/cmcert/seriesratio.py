"""Coefficient-ratio machinery for the Bessel-kernel ratio functions.

Exact coefficient sequences for the two power-series quotients whose
monotonicity drives the main theorems, the integer ladder inequalities that
prove those monotonicities, the two ratio functions as enclosures, and
unimodal maximization and slope signs by enclosure comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .enclosure import Enclosure, Record, to_fraction
from . import specfun
from .expring import eval_enclosure, kernel_derivative


# -- exact coefficient sequences -------------------------------------------


def p_coeff(k: int) -> Fraction:
    """Denominator-series coefficient (2^(k+2) - k - 3)/(k+2)!."""
    return Fraction(2 ** (k + 2) - k - 3, math.factorial(k + 2))


def q_coeff(k: int, beta) -> Fraction:
    """Numerator-series coefficient of the first ratio, exact in beta.

    q_k = sum_{l<=k} C(k+2,l) (2^(k-l+2) - 2) beta^l / ((l+2)! (k+2)!).  With
    beta = p/q and the integers T_l = C(k+2,l) (k+2)!/(l+2)! (T_0 = (k+2)!/2,
    T_(l+1) = T_l (k+2-l)/((l+1)(l+3)) exactly for l < k), the sum is one
    integer sum_l T_l (2^(k-l+2) - 2) p^l q^(k-l) over (k+2)!^2 q^k,
    normalized once.
    """
    beta = to_fraction(beta)
    p, q = beta.numerator, beta.denominator
    t = math.factorial(k + 2) // 2
    acc = 0
    p_l = 1
    for l in range(k + 1):
        if l:
            t = t * (k + 3 - l) // (l * (l + 2))
            p_l *= p
        acc = acc * q + ((t << (k - l + 2)) - 2 * t) * p_l
    return Fraction(acc, math.factorial(k + 2) ** 2 * q ** k)


def c_coeff(k: int, beta) -> Fraction:
    """c_k = q_k / p_k = q_k (k+2)! / (2^(k+2) - k - 3), as one Fraction."""
    q = q_coeff(k, beta)
    return Fraction(q.numerator * math.factorial(k + 2),
                    q.denominator * (2 ** (k + 2) - k - 3))


def lambda_coeff(k: int) -> Fraction:
    """(3^(k+4) - (k+6) 2^(k+4) + k^2 + 9k + 21)/(k+4)!."""
    return Fraction(U_value(k), math.factorial(k + 4))


def xi_coeff(k: int, beta) -> Fraction:
    """Numerator-series coefficient of the derivative ratio, exact in beta.

    xi_k = sum_{l<=k} C(k+4,l) beta^l [a_d beta - (l+3) b_d] / ((l+3)! (k+4)!)
    with d = k-l, a_d = 3^(d+4) - (d+10) 2^(d+3) + 2d + 11 and
    b_d = d 2^(d+3) + 4.  With beta = p/q and the integers
    T_l = C(k+4,l) (k+3)!/(l+3)! (T_0 = (k+3)!/6,
    T_(l+1) = T_l (k+4-l)/((l+1)(l+4)) exactly for l < k), the sum is one
    integer sum_l T_l [a_d p - (l+3) b_d q] p^l q^d over
    (k+3)! (k+4)! q^(k+1), normalized once.
    """
    beta = to_fraction(beta)
    p, q = beta.numerator, beta.denominator
    t = math.factorial(k + 3) // 6
    pow3 = 3 ** (k + 4)
    acc = 0
    p_l = 1
    for l in range(k + 1):
        d = k - l
        if l:
            t = t * (k + 5 - l) // (l * (l + 3))
            p_l *= p
            pow3 //= 3
        a = pow3 - ((d + 10) << (d + 3)) + 2 * d + 11
        b = (d << (d + 3)) + 4
        acc = acc * q + t * (a * p - (l + 3) * b * q) * p_l
    return Fraction(acc, math.factorial(k + 3) * math.factorial(k + 4)
                    * q ** (k + 1))


def C_coeff(k: int, beta) -> Fraction:
    """C_k = xi_k / lambda_k = xi_k (k+4)! / U_k, as one Fraction."""
    xi = xi_coeff(k, beta)
    return Fraction(xi.numerator * math.factorial(k + 4),
                    xi.denominator * U_value(k))


# -- integer ladder quantities ---------------------------------------------


def U_value(k: int) -> int:
    return 3 ** (k + 4) - (k + 6) * 2 ** (k + 4) + k * k + 9 * k + 21


def V_value(k: int, l: int) -> int:
    return (3 ** (k - l + 5) * l
            + 2 ** (k - l + 3) * (l * l - 17 * l - 5 * k - k * k)
            - 2 * l * l + 2 * k * l + 17 * l - 4 * k - 20)


def script_A(m: int) -> int:
    return ((4 * m ** 3 + 86 * m ** 2 + 442 * m + 276) * 2 ** (m + 3)
            + (m * m + 25 * m + 150) * 4 ** (m + 5)
            - 2 * (4 * m * m + 40 * m + 87) * 3 ** (m + 5)
            + 9 ** (m + 6)
            + (m * m + m - 102) * 2 ** (m + 4) * 3 ** (m + 5)
            + 4 * m * m + 64 * m + 249)


def script_B(m: int) -> int:
    return (2 * (8 * m ** 3 + 92 * m ** 2 + 282 * m + 207) * 3 ** (m + 5)
            - (2 * m + 1) * 9 ** (m + 6)
            - (6 * m ** 4 + 145 * m ** 3 + 839 * m ** 2 + 592 * m - 1524) * 2 ** (m + 3)
            - (m ** 3 + 31 * m ** 2 + 234 * m + 108) * 4 ** (m + 5)
            - (m ** 3 + 5 * m ** 2 - 96 * m - 12) * 2 ** (m + 3) * 3 ** (m + 6)
            - (8 * m ** 3 + 148 * m ** 2 + 794 * m + 1065))


def script_C(m: int) -> int:
    return ((2 * m ** 5 + 57 * m ** 4 + 388 * m ** 3 + 585 * m ** 2 + 480 * m + 2988)
            * 2 ** (m + 3)
            + (m ** 4 + 36 * m ** 3 + 323 * m ** 2 + 12 * m - 756) * 4 ** (m + 4)
            + 4 * m ** 4 + 84 * m ** 3 + 569 * m ** 2 + 1401 * m + 1152
            + (m ** 4 + 10 * m ** 3 - 99 * m ** 2 + 24 * m + 252)
            * 2 ** (m + 3) * 3 ** (m + 5)
            + m * (m + 1) * 9 ** (m + 6)
            - 2 * (4 * m ** 4 + 52 * m ** 3 + 207 * m ** 2 + 327 * m + 288)
            * 3 ** (m + 5))


# -- sequence reports -------------------------------------------------------


class MonotonicityReport(Record):
    # first_violation: the smallest k with values[k+1] <= values[k], or None
    __slots__ = _fields = ("values", "strictly_increasing", "first_violation")


def _monotonicity(values: list[Fraction]) -> MonotonicityReport:
    first = next((k for k in range(len(values) - 1)
                  if values[k + 1] <= values[k]), None)
    return MonotonicityReport(values=values, strictly_increasing=first is None,
                              first_violation=first)


def c_ratio_sequence(beta, K: int) -> MonotonicityReport:
    """Exact c_0..c_K for the first quotient plus a monotonicity verdict."""
    if K < 2:
        raise ValueError("need K >= 2")
    beta = to_fraction(beta)
    return _monotonicity([c_coeff(k, beta) for k in range(K + 1)])


def C_ratio_sequence(beta, K: int) -> MonotonicityReport:
    """Exact C_0..C_K for the derivative quotient plus a verdict."""
    if K < 4:
        raise ValueError("need K >= 4")
    beta = to_fraction(beta)
    return _monotonicity([C_coeff(k, beta) for k in range(K + 1)])


def ladder_check(k_max: int) -> dict:
    """Exact verification of every ladder inequality up to k_max.

    Checks, for 4 <= k <= k_max and admissible l, m:
      U_k > 0 and U_{k+1} > 0 (a failure is reported as ("U", k, None));
      theta_{k+1,l} >= theta_{k,l};  M_m(k) >= 0;
      V_k(1) != 0 and U_{k+1}/U_k <= V_{k+1}(1)/V_k(1);
      the three quadratic seeds positive for k >= 4;
      A(m) > 0, B(m) < 0, C(m) > 0 for 0 <= m <= k_max.

    The theta row expands C_k = sum_l theta_{k,l} beta^l, with
    theta_{k,0} = -2 (2^(k+1) k + 1)/U_k and, for 1 <= l <= k,
    theta_{k,l} = C(k+5,l) V_k(l) / ((k+5) (l+2)! U_k).  Once U_k and
    U_{k+1} are checked positive, C(k+6,l)/C(k+5,l) = (k+6)/(k+6-l) makes
    theta_{k+1,l} < theta_{k,l} the integer comparison
    (k+5) U_k V_{k+1}(l) < (k+6-l) U_{k+1} V_k(l), and at l = 0
    (2^(k+2) (k+1) + 1) U_k > (2^(k+1) k + 1) U_{k+1}.  The U ratio test,
    multiplied through by U_k V_k(1)^2 > 0, is
    V_k(1) (U_{k+1} V_k(1) - V_{k+1}(1) U_k) > 0.  U_k up to k_max+1 and
    the triples (A, B, C)(m) up to k_max are tabulated once, so M_m(k) is a
    quadratic in k from the table, and each V_k(l) is computed once and
    carried to the next k.  Every comparison is exact.
    """
    if k_max < 6:
        raise ValueError("need k_max >= 6")
    U = [U_value(k) for k in range(k_max + 2)]
    abc = [(script_A(m), script_B(m), script_C(m)) for m in range(k_max + 1)]

    failures = []
    V = [None] + [V_value(4, l) for l in range(1, 5)]
    for k in range(4, k_max + 1):
        u, u_next = U[k], U[k + 1]
        V_next = [None] + [V_value(k + 1, l) for l in range(1, k + 2)]
        positive = u > 0 and u_next > 0
        if not positive:
            failures.append(("U", k, None))
        else:
            if (2 ** (k + 2) * (k + 1) + 1) * u > (2 ** (k + 1) * k + 1) * u_next:
                failures.append(("theta", k, 0))
            lhs = (k + 5) * u
            for l in range(1, k + 1):
                if lhs * V_next[l] < (k + 6 - l) * u_next * V[l]:
                    failures.append(("theta", k, l))
        # M_m(k) = A(m) k^2 + B(m) k + C(m)
        M = [(a * k + b) * k + c for a, b, c in abc[:k - 1]]
        for m in range(0, k - 1):
            if M[m] < 0:
                failures.append(("M", m, k))
        if positive and (V[1] == 0
                         or V[1] * (u_next * V[1] - V_next[1] * u) > 0):
            failures.append(("UV", k, None))
        for m, seed in ((0, 3360 * (54 - 137 * k + 74 * k * k)),
                        (1, 1568 * (6480 - 7306 * k + 1909 * k * k)),
                        (2, 336 * (750942 - 549881 * k + 95837 * k * k))):
            if M[m] != seed:
                failures.append(("seed-mismatch", m, k))
            if seed <= 0:
                failures.append(("seed-sign", m, k))
        V = V_next
    for m, (a, b, c) in enumerate(abc):
        if a <= 0:
            failures.append(("A", m, None))
        if b >= 0:
            failures.append(("B", m, None))
        if c <= 0:
            failures.append(("C", m, None))
    return {
        "k_max": k_max,
        "passed": not failures,
        "failures": failures,
        "C_values": {m: abc[m][2] for m in range(6)},
        "U4": U[4],
    }


# -- enclosure-valued ratio functions --------------------------------------


def _kernel_ratio(k: int, u, beta, digits: int) -> Enclosure:
    """kernel^(k-1)(u) / i_k(beta u), the order-k Bessel-kernel ratio."""
    u, beta = to_fraction(u), to_fraction(beta)
    if u <= 0 or beta <= 0:
        raise ValueError("need u > 0 and beta > 0")
    kern = eval_enclosure(kernel_derivative(k - 1), u, digits + 4)
    ik = specfun.bessel_ratio(k, beta * u, digits + 4)
    return (kern / ik).round_out(digits + 1)


def f_beta(u, beta, digits: int) -> Enclosure:
    """kernel(u) / i_1(beta u): the first Bessel-kernel ratio."""
    return _kernel_ratio(1, u, beta, digits)


def g_beta(u, beta, digits: int) -> Enclosure:
    """kernel'(u) / i_2(beta u): the derivative Bessel-kernel ratio."""
    return _kernel_ratio(2, u, beta, digits)


# -- unimodal maximization --------------------------------------------------


# unimodal_max and slope_sign_changes double the precision up to this
DIGIT_CAP = 120


class MaxResult(Record):
    __slots__ = _fields = ("argmax", "value", "digits_used", "resolved")


def unimodal_max(f: Callable[[Fraction, int], Enclosure], bracket, tol,
                 digits: int = 30) -> MaxResult:
    """Narrow the maximizer of a unimodal f by enclosure comparisons.

    Trisection with exact rational probe points; when two probe enclosures
    overlap, the working precision doubles up to DIGIT_CAP, after which the
    achieved widths are returned with resolved=False.
    """
    a, b = to_fraction(bracket[0]), to_fraction(bracket[1])
    tol = to_fraction(tol)
    if not (a < b and tol > 0):
        raise ValueError("invalid bracket or tolerance")
    d = digits
    resolved = True
    while b - a > tol:
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        while True:
            v1 = f(m1, d)
            v2 = f(m2, d)
            if v1.definitely_less(v2):
                a = m1
                break
            if v2.definitely_less(v1):
                b = m2
                break
            if d >= DIGIT_CAP:
                resolved = False
                break
            d = min(2 * d, DIGIT_CAP)
        if not resolved:
            break
    mid = (a + b) / 2
    center = f(mid, d)
    value = center.hull(f(a, d)).hull(f(b, d))
    return MaxResult(argmax=Enclosure(a, b), value=value,
                     digits_used=d, resolved=resolved)


def slope_sign_changes(f: Callable[[Fraction, int], Enclosure], grid,
                       digits: int = 30):
    """Signs of consecutive finite differences of f over a grid.

    Each difference is refined until sign-definite or the cap is hit; returns
    (signs, n_changes) where an unresolved difference appears as 0.
    """
    pts = [to_fraction(x) for x in grid]
    signs = []
    for x0, x1 in zip(pts, pts[1:]):
        d = digits
        while True:
            diff = f(x1, d) - f(x0, d)
            s = diff.sign()
            if s != 0 or d >= DIGIT_CAP:
                signs.append(s)
                break
            d = min(2 * d, DIGIT_CAP)
    changes = 0
    last = 0
    for s in signs:
        if s != 0:
            if last != 0 and s != last:
                changes += 1
            last = s
    return signs, changes


def geometric_grid(lo, hi, count: int) -> list[Fraction]:
    """Deterministic rational grid, approximately geometric."""
    lo, hi = to_fraction(lo), to_fraction(hi)
    if not (0 < lo < hi and count >= 1):
        raise ValueError("need 0 < lo < hi and count >= 1")
    if count == 1:
        return [lo]
    ratio = float(hi / lo) ** (1.0 / (count - 1))
    pts = [lo]
    for i in range(1, count - 1):
        # nearby clean rational; exactness of the probe point is all we need
        pts.append(Fraction(float(lo) * ratio ** i).limit_denominator(10 ** 6))
    pts.append(hi)
    return pts


def linear_grid(lo, hi, count: int) -> list[Fraction]:
    lo, hi = to_fraction(lo), to_fraction(hi)
    if count < 1:
        raise ValueError("need count >= 1")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]
