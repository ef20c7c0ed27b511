"""Rigorous enclosures for the special functions used by the certificates.

Everything returns an Enclosure whose endpoints are exact rationals; the
`digits` parameter asks for width <= 10**-digits.  `exp_enclosure` always
meets that width.  `bessel_ratio` adds terms to an unnormalised integer sum
until its tail bound meets the target and raises at TERM_CAP terms.
`polygamma` sums its terms on integer mantissas, so its lower and upper sums
are two ints.  `k_tail` is a closed form evaluated at an exp enclosure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .enclosure import Enclosure, to_fraction
from .poly import Polynomial

TERM_CAP = 10 ** 6

_bernoulli_cache: dict[int, Fraction] = {0: Fraction(1)}


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2) via the defining recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in _bernoulli_cache:
        return _bernoulli_cache[n]
    if n >= 3 and n % 2 == 1:
        _bernoulli_cache[n] = Fraction(0)
        return _bernoulli_cache[n]
    for m in range(1, n + 1):
        if m not in _bernoulli_cache:
            acc = Fraction(0)
            for k in range(m):
                acc += math.comb(m + 1, k) * bernoulli(k)
            _bernoulli_cache[m] = -acc / (m + 1)
    return _bernoulli_cache[n]


def _exp_mantissas(num: int, den: int, k: int, p: int) -> tuple[int, int]:
    """Integers lo, hi with lo * 2**-p <= e**(num/den) <= hi * 2**-p.

    Requires num/den > 0 and y = num/(den 2**k) <= 1/2.  The Taylor series
    of e**y is summed twice on mantissas M standing for M * 2**-p: a lower
    sum from floor(y 2**p) with floor division and an upper sum from
    ceil(y 2**p) with ceil division.  From n >= 1 on every term ratio
    y/(n+1) is <= 1/4, so once the upper term is <= 1 ulp the rest of the
    series is at most that term, which the upper sum adds once more.  The
    k squarings round down for lo and up for hi.
    """
    lo_y = (num << (p - k)) // den
    hi_y = -(-(num << (p - k)) // den)
    lo = lo_term = hi = hi_term = 1 << p
    n = 0
    while hi_term > 1:
        n += 1
        lo_term = lo_term * lo_y // (n << p)
        hi_term = -(-hi_term * hi_y // (n << p))
        lo += lo_term
        hi += hi_term
    hi += hi_term
    for _ in range(k):
        lo = lo * lo >> p
        hi = -(-hi * hi >> p)
    return lo, hi


def exp_enclosure(x, digits: int) -> Enclosure:
    """Enclosure of e**x for rational x, of width <= 10**-digits.

    Argument reduction on fixed-point integers (Brent & Zimmermann, Modern
    Computer Arithmetic, 4.3-4.4): e**x = (e**(x/2**k))**(2**k) with the
    smallest k that brings x/2**k to <= 1/2; see `_exp_mantissas`.  The
    working precision p is estimated in integer arithmetic from digits, x
    and k.  A result wider than 10**-(digits+2) is recomputed with twice
    the guard bits, so neither soundness nor the width rests on the
    estimate.
    """
    x = to_fraction(x)
    if x == 0:
        return Enclosure.point(1)
    if x < 0:
        return exp_enclosure(-x, digits + 2).inverse().round_out(digits + 1)
    num, den = x.numerator, x.denominator
    k = 0
    while 2 * num > den << k:
        k += 1
    # bits for 10**-(digits+2), for the size of e**x (log2 e < 3/2) and for
    # the 2**k growth of the relative error over k squarings
    base = (digits + 2) * 10 // 3 + 3 * num // (2 * den) + k + 2
    guard = base.bit_length() + 4
    scale = 10 ** (digits + 2)
    while True:
        p = base + guard
        lo, hi = _exp_mantissas(num, den, k, p)
        if (hi - lo) * scale <= 1 << p:
            return Enclosure(Fraction(lo, 1 << p),
                             Fraction(hi, 1 << p)).round_out(digits + 1)
        guard *= 2


def bessel_ratio(k: int, u, digits: int) -> Enclosure:
    """Enclosure of sum_n u**n / (n! (n+k)!), i.e. I_k(2 sqrt u)/u**(k/2).

    For u = a/b the partial sum through n is S/Q with Q = b**n n! (n+k)!, so
    it runs on unnormalised integers: S <- S b n(n+k) + a**n and
    Q <- Q b n(n+k).  Once the term ratio r = u/((n+1)(n+k+1)) is below 1/2,
    the tail is at most term * r/(1 - r) = a**(n+1) / (Q (b(n+1)(n+k+1) - a));
    the sum stops when that is below 10**-(digits+1), decided by
    cross-multiplication, and only the rounded endpoints become Fractions.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    u = to_fraction(u)
    if u < 0:
        raise ValueError("argument must be >= 0")
    if u == 0:
        return Enclosure.point(Fraction(1, math.factorial(k)))
    a, b = u.numerator, u.denominator
    scale = 10 ** (digits + 1)
    total, den, apow = 1, math.factorial(k), 1
    n = 0
    while True:
        n += 1
        step = b * n * (n + k)
        apow *= a
        total = total * step + apow
        den *= step
        m = b * (n + 1) * (n + k + 1)
        if 2 * a < m:
            tail_den = den * (m - a)
            if apow * a * scale < tail_den:
                break
        if n > TERM_CAP:
            raise RuntimeError(
                "Bessel series did not converge within TERM_CAP terms")
    # [S/Q, S/Q + tail] rounded outward to multiples of 10**-(digits+1)
    lo = total * scale // den
    hi = -(-(total * (m - a) + apow * a) * scale // tail_den)
    return Enclosure(Fraction(lo, scale), Fraction(hi, scale))


def _polygamma_mantissas(n: int, a: int, b: int, m: int, tol_den: int,
                         p: int) -> Optional[tuple[int, int]]:
    """Mantissas lo, hi (scale 2**-p) bracketing |psi^(n)(a/b)|, or None.

    With z = x + m:  |psi^(n)(x)| = A_n(z) + n! sum_{j<m} 1/(x+j)**(n+1),
    where A_n(z) = (n-1)!/z**n + n!/(2 z**(n+1))
                   + sum_{k>=1} B_2k (2k+n-1)!/((2k)! z**(2k+n))
    is the enveloping expansion of (-1)**(n+1) psi^(n)(z).  It is cut at the
    first term of size <= 1/tol_den, and that term's size bounds the error.
    None means the terms stopped decreasing before reaching the tolerance
    (z too small for this accuracy).  Each exact term num/den, a shift term
    being n! b**(n+1) / (a+jb)**(n+1), enters the lower sum as its floor and
    the upper sum as its ceiling at scale 2**-p; the stop tests compare the
    exact terms by cross-multiplication.
    """
    c = a + m * b
    bn, cn = b ** n, c ** n
    num0 = math.factorial(n - 1) * bn << p
    num1 = math.factorial(n) * bn * b << p
    den1 = 2 * cn * c
    lo = num0 // cn + num1 // den1
    hi = -(-num0 // cn) - (-num1 // den1)
    b2, c2 = b * b, c * c
    prev_num, prev_den = 0, 0
    k = 0
    while True:
        k += 1
        bn *= b2
        cn *= c2
        bern = bernoulli(2 * k)
        num = abs(bern.numerator) * math.perm(2 * k + n - 1, n - 1) * bn
        den = bern.denominator * cn
        if num * tol_den <= den:
            err = -((-num << p) // den)
            lo -= err
            hi += err
            break
        if k > 1 and num * prev_den >= prev_num * den:
            return None
        if bern.numerator > 0:
            lo += (num << p) // den
            hi -= (-num << p) // den
        else:
            lo += (-num << p) // den
            hi -= (num << p) // den
        prev_num, prev_den = num, den
    num = math.factorial(n) * b ** (n + 1) << p
    for j in range(m):
        den = (a + j * b) ** (n + 1)
        lo += num // den
        hi -= -num // den
    return lo, hi


def polygamma(n: int, x, digits: int) -> Enclosure:
    """Enclosure of psi^(n)(x) for n >= 1, x > 0.

    Lifts the argument by the exact recurrence until the asymptotic
    expansion converges below tolerance, then shifts back (see
    `_polygamma_mantissas`).  All terms are summed on integer mantissas at
    one fixed scale 2**-p, flooring into the lower sum and ceiling into the
    upper sum, so each term widens the enclosure by at most one ulp.  p
    resolves 10**-(digits+1) times z**-n, a lower bound on the size of the
    result, with 64 bits to spare.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    x = to_fraction(x)
    if x <= 0:
        raise ValueError("argument must be > 0")
    a, b = x.numerator, x.denominator
    tol_den = 10 ** (digits + 1)
    target = max(20, digits)
    while True:
        m = max(0, math.ceil(target - x))
        p = tol_den.bit_length() + n * (m + a // b).bit_length() + 64
        body = _polygamma_mantissas(n, a, b, m, tol_den, p)
        if body is not None:
            break
        target *= 2
        if target > 64 * (digits + 20):
            raise RuntimeError("asymptotic expansion failed to converge")
    lo, hi = body if n % 2 == 1 else (-body[1], -body[0])
    return Enclosure(Fraction(lo, 1 << p),
                     Fraction(hi, 1 << p)).round_out(digits + 1)


def k_tail(ell: int, a, digits: int) -> Enclosure:
    """Enclosure of sum_{k>=1} k**ell * e**(-k a) for a > 0.

    Closed form: ell-fold application of q d/dq to q/(1-q), evaluated at an
    enclosure of q = e**(-a).  The pole (1-q)**-(ell+1) magnifies the width
    of q, so its digits double until the result is at most 10**-digits wide.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    a = to_fraction(a)
    if a <= 0:
        raise ValueError("a must be > 0")
    num = Polynomial.of([0, 1])  # q
    pole = 1
    one_minus_q = Polynomial.of([1, -1])
    q_poly = Polynomial.of([0, 1])
    for _ in range(ell):
        num = q_poly * (num.derivative() * one_minus_q + num.scale(pole))
        pole += 1
    q_digits = digits + 6
    while True:
        q = exp_enclosure(-a, q_digits)
        val = (num.eval_interval(q) / (1 - q) ** pole).round_out(digits + 1)
        if val.width <= Fraction(1, 10 ** digits):
            return val
        q_digits *= 2
