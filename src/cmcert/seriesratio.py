"""Coefficient-ratio machinery for the Bessel-kernel ratio functions.

Exact coefficient sequences for the two power-series quotients whose
monotonicity drives the main theorems, the integer ladder inequalities that
prove those monotonicities, the two ratio functions as enclosures, and
unimodal maximization and slope signs by enclosure comparison.

The sequences are D-finite (Stanley, "Differentiably finite power series",
Eur. J. Combin. 1 (1980) 175-188).  With i_m(x) = sum_n x^n/(n! (n+m)!),
y = i_m(beta u) solves u y'' + (m+1) y' = beta y, so f = e^(cu) y solves
u f'' + (m+1-2cu) f' + (c^2 u - c(m+1) - beta) f = 0.  For beta = p/q in
lowest terms the integers a_n = n! (n+m)! q^n [u^n] f then obey
a_(n+1) = (c(2n+m+1) q + p) a_n - c^2 q^2 n(n+m) a_(n-1), a_0 = 1,
a_(-1) = 0: every coefficient up to index K in O(K) integer steps.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable

from .enclosure import (Enclosure, Record, check_range, divide_round_out,
                        to_fraction)
from . import expring, specfun


# -- exact coefficient sequences -------------------------------------------


def _ratio_terms(beta, derivative: bool):
    """Yield the integers (N_k, F_k, W_k) for k = 0, 1, 2, ...

    At n = k+2 (first quotient) or n = k+4 (derivative quotient) the
    numerator-series coefficient is N_k/(n! F_k), the denominator-series
    coefficient W_k/n!, and their ratio N_k/(F_k W_k):
      q_k = [u^n] (e^(2u) - 2e^u + 1) i_2(beta u), F_k = (n+2)! q^n,
          p_k = (2^n - n - 1)/n!;
      xi_k = [u^n] (E-1)^2 (E-1-u) beta i_3(beta u)
          - ((u-2)E + u + 2)(E-1) i_2(beta u) with E = e^u,
          F_k = (n+3)! q^(n+1), lambda_k = U_k/n!.
    Each e^(cu) i_m(beta u), c = 0..m, m = 2 (and 3), steps its integers
    a_n by the module's recurrence, keeping only the last two.
    """
    p, q = to_fraction(beta).as_integer_ratio()
    qq = q * q
    mc = [(m, c) for m in ((2, 3) if derivative else (2,)) for c in range(m + 1)]
    prev, cur = [0] * len(mc), [1] * len(mc)
    n0, F = (4, 5040 * q ** 5) if derivative else (2, 24 * qq)
    for n in itertools.count():
        if n >= n0:
            b0, b1, b2, *a = cur
            d0, _, d2, *ap = prev
            if derivative:
                yield (p * (a[3] - 3 * a[2] + 3 * a[1] - a[0]
                            - n * (n + 3) * q * (ap[2] - 2 * ap[1] + ap[0]))
                       + 2 * (n + 3) * q * (b2 - 2 * b1 + b0)
                       - n * (n + 2) * (n + 3) * qq * (d2 - d0),
                       F, U_value(n - 4))
            else:
                yield b2 - 2 * b1 + b0, F, (1 << n) - n - 1
            F *= (n + 3 + derivative) * q
        prev, cur = cur, [(c * (2 * n + m + 1) * q + p) * x
                          - c * c * qq * n * (n + m) * y
                          for (m, c), x, y in zip(mc, cur, prev)]


def _coefficient(k: int, beta, derivative: bool) -> Fraction:
    N, F, _ = next(itertools.islice(_ratio_terms(beta, derivative), k, None))
    return Fraction(N, math.factorial(k + 2 + 2 * derivative) * F)


def q_coeff(k: int, beta) -> Fraction:
    """q_k = [u^(k+2)] (e^u - 1)^2 i_2(beta u), exact in beta."""
    return _coefficient(k, beta, derivative=False)


def xi_coeff(k: int, beta) -> Fraction:
    """xi_k, the derivative quotient's numerator coefficient, exact in beta."""
    return _coefficient(k, beta, derivative=True)


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

# top ladder_check k_max and sequence count, cold on 2 vCPUs: ladder 800 took
# 1.0 s, and count 1500 0.7-1.9 s (c and C, beta 1/2 and 355/113)
LADDER_MAX_K, RATIO_MAX_COUNT = 800, 1500


class MonotonicityReport(Record):
    # first_violation: the smallest k with values[k+1] <= values[k], or None
    __slots__ = _fields = ("values", "strictly_increasing", "first_violation")


def _ratio_sequence(beta, K: int, derivative: bool) -> MonotonicityReport:
    check_range("count --count", K, 2 + 2 * derivative, RATIO_MAX_COUNT)
    values = [Fraction(N, F * W) for N, F, W in
              itertools.islice(_ratio_terms(beta, derivative), K + 1)]
    first = next((k for k in range(K) if values[k + 1] <= values[k]), None)
    return MonotonicityReport(values=values, strictly_increasing=first is None,
                              first_violation=first)


def c_ratio_sequence(beta, K: int) -> MonotonicityReport:
    """Exact c_0..c_K in one O(K) pass, plus a monotonicity verdict."""
    return _ratio_sequence(beta, K, False)


def C_ratio_sequence(beta, K: int) -> MonotonicityReport:
    """Exact C_0..C_K in one O(K) pass, plus a monotonicity verdict."""
    return _ratio_sequence(beta, K, True)


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
    check_range("order --k-max", k_max, 6, LADDER_MAX_K)
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
    kern = expring.eval_enclosure(expring.kernel_derivative(k - 1), u,
                                  digits + 4)
    ik = specfun.bessel_ratio(k, beta * u, digits + 4)
    return divide_round_out(kern.ratio(), ik.ratio(), digits + 1)


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
            if v1.hi < v2.lo:
                a = m1
                break
            if v2.hi < v1.lo:
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
            s = (diff.lo > 0) - (diff.hi < 0)
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
