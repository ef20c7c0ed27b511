"""Rigorous enclosures for the special functions used by the certificates.

Endpoints are exact rationals, and `digits` asks for width <= 10**-digits.
`exp_enclosure` always meets that width.  `bessel_ratio` adds terms to an
unnormalised integer sum until its tail bound meets the target and raises
at TERM_CAP terms.  `polygamma_jet` sums the polygamma orders n0..N at one
point in one pass on fixed-point integer brackets, floored at the low end
and ceiled at the high end of every product, so every bracket holds the
true value, and the series is cut where exact rational sums cut it.
`polygamma` is its one-order Enclosure.  `k_tail` is the Eulerian closed
form of a derivative of 1/(e**u - 1), enclosed by the `expring` evaluator.
Bernoulli numbers are integer pairs from the tangent-number recurrence.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .enclosure import (Enclosure, check_range, divide_round_out,
                        to_fraction)

TERM_CAP = 10 ** 6
EXP_BITS_CAP = 2 ** 15
# top k_tail order, 60 digits: 0.06 s cold at a = 249/1000, 0.4 s at 10^-30
K_TAIL_MAX_ORDER = 100
# top bessel_ratio argument, for about e sqrt(u) terms of growing integers:
# cold, bessel --k 0 --u 10^7 took 0.34 s at 60 digits, 1.9 s at 1,000
BESSEL_MAX_U = 10 ** 7

_bernoulli_pairs = [(1, 1)]  # B_2k as (numerator, denominator), reduced


def _bernoulli_pair(k_max: int) -> tuple[int, int]:
    """B_(2 k_max) as (numerator, denominator).  A miss caches B_2k for k up
    to max(k_max, twice the cached count) from the integer tangent numbers
    T_k (Brent & Harvey 2011): B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k-1))."""
    if k_max < len(_bernoulli_pairs):
        return _bernoulli_pairs[k_max]
    K = max(k_max, 2 * len(_bernoulli_pairs))
    T = [0, 1]
    for k in range(2, K + 1):
        T.append((k - 1) * T[-1])
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    for k in range(len(_bernoulli_pairs), K + 1):
        num, den = 2 * k * T[k], (4 ** k - 1) << 2 * k
        g = math.gcd(num, den)
        _bernoulli_pairs.append((num // g if k % 2 else -num // g, den // g))
    return _bernoulli_pairs[k_max]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    return Fraction(*_bernoulli_pair(n // 2))


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
    estimate.  An x that needs more than EXP_BITS_CAP bits raises.
    """
    x = to_fraction(x)
    if x == 0:
        return Enclosure.point(1)
    if x < 0:
        e = exp_enclosure(-x, digits + 2)
        return divide_round_out((1, 1, 1), e.ratio(), digits + 1)
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
        if p > EXP_BITS_CAP:
            raise ArithmeticError(f"e**x at |x| = {x} needs {p} bits, over "
                                  f"the limit of {EXP_BITS_CAP}")
        lo, hi = _exp_mantissas(num, den, k, p)
        if (hi - lo) * scale <= 1 << p:
            return divide_round_out((lo, hi, 1 << p), (1, 1, 1), digits + 1)
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
    check_range("argument --u/--grid", u, 0, BESSEL_MAX_U)
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
    # [S/Q, S/Q + tail] over tail_den = Q (m - a), rounded outward
    s = total * (m - a)
    return divide_round_out((s, s + apow * a, tail_den), (1, 1, 1), digits + 1)


def _polygamma_mantissas(n0: int, N: int, a: int, b: int, m: int,
                         tol_den: int, guard: int = 64) -> list:
    """Per order n = n0..N: (p, lo, hi) bracketing |psi^(n)(a/b)| * 2**p,
    or None; p resolves 1/tol_den times z**-n with `guard` bits to spare.

    With z = x + m:  |psi^(n)(x)| = A_n(z) + n! sum_{j<m} 1/(x+j)**(n+1),
    where A_n(z) = (n-1)!/z**n + n!/(2 z**(n+1))
                   + sum_{k>=1} B_2k (2k+n-1)!/((2k)! z**(2k+n))
    is the enveloping expansion of (-1)**(n+1) psi^(n)(z), cut at its first
    term of size <= 1/tol_den, which bounds the error.  None: the terms
    stopped decreasing first (z too small).

    Soundness: each term v >= 0 is a bracket lo <= v 2**W <= hi at one
    fixed point W (Brent and Zimmermann, Modern Computer Arithmetic, 4.4),
    and a product or sum of brackets, floored at lo and ceiled at hi, is a
    bracket.  1/(x+j), for x + j >= 1, w = 1/z and (x+j)**-(n0+1) are
    floored or ceiled once; (x+j)**-(n+1) then takes one floored
    multiply-shift per order, which loses < 2 units (both factors are
    <= 1), so its high end is the low plus 2(n-n0) + 1; at x < 1 the j = 0
    term is floored exactly.  (n-1)! w**n and each Bernoulli term go to the
    next order times n w and (2k+n) w, and a term new at an order is
    floored from its exact ratio.  The stop and None rules compare exact
    ratios wherever the brackets straddle, so they cut where exact sums
    would; each order's sum is then floored (lo) and ceiled (hi) from
    2**-W to 2**-p.
    """
    c = a + m * b
    step = (m + a // b).bit_length()
    base = tol_den.bit_length() + guard
    # n! times the power sum's slack stays below 2**-15 units of 2**-base
    W = 16 + max(base + N * step, 0,
                 base + (math.factorial(N) * (m + N) * N).bit_length())
    thr = (1 << W) // tol_den  # an integer u is <= 2**W/tol_den iff <= thr
    small = a < b
    qs = [a + j * b for j in range(small, m)]
    rl = [(b << W) // q for q in qs]
    pl = [(b ** (n0 + 1) << W) // q ** (n0 + 1) for q in qs]
    wl, wh = (b << W) // c, -(-(b << W) // c)
    fact, apow, bnpow = math.factorial(n0 - 1), a ** n0, b ** n0
    # term k at order n: |B_2k| (2k+n-1)!/(2k)! w**(2k+n); k = 0 is
    # (n-1)! w**n, and n! w**(n+1)/2 is half of it at order n + 1
    tl, th, out = [], [], []

    def exact(k, n):
        num, den = _bernoulli_pair(k)
        e = n + 2 * k
        return abs(num) * math.perm(e - 1, n - 1) * b ** e, den * c ** e

    def push(k, n):  # a term new at order n, floored from its exact ratio
        num, den = exact(k, n)
        q, r = divmod(num << W, den)
        tl.append(q)
        th.append(q + (r > 0))

    push(0, n0)
    for n in range(n0, N + 1):
        s = sum(pl)
        lo = tl[0] + (tl[0] * n * wl >> W + 1) + fact * n * s
        hi = th[0] - (-th[0] * n * wh >> W + 1) + fact * n * (
            s + len(pl) * (2 * (n - n0) + 1))
        fact, apow, bnpow = fact * n, apow * a, bnpow * b
        if small:
            q, r = divmod(fact * bnpow << W, apow)
            lo, hi = lo + q, hi + q + (r > 0)
        for k in itertools.count(1):
            if k == len(tl):
                push(k, n)
            t_lo, t_hi = tl[k], th[k]
            if t_hi <= thr or t_lo <= thr and \
                    (e := exact(k, n))[0] * tol_den <= e[1]:
                break
            if k > 1 and (t_lo >= th[k - 1] or t_hi >= tl[k - 1] and
                          (e := exact(k - 1, n))[0] * (f := exact(k, n))[1]
                          <= f[0] * e[1]):
                lo = None
                break
        if lo is not None:
            # terms 1..k-1 with B_2k > 0 at odd k, and the cut term k
            lo += sum(tl[1:k:2]) - sum(th[2:k:2]) - t_hi
            hi += sum(th[1:k:2]) - sum(tl[2:k:2]) + t_hi
        p = base + n * step
        out.append(None if lo is None else (p, lo >> W - p, -(-hi >> W - p)))
        pl = [v * r >> W for v, r in zip(pl, rl)]
        tl = [t * (n + 2 * k) * wl >> W for k, t in enumerate(tl)]
        th = [-(-t * (n + 2 * k) * wh >> W) for k, t in enumerate(th)]
    return out


def polygamma_jet(n0: int, N: int, x, digits: int) -> list:
    """psi^(n)(x) for n = n0..N as integer pairs (lo, hi) bracketing
    psi^(n)(x) * 10**(digits+1); n0 >= 1, x > 0.

    The argument is lifted by the exact recurrence and each order summed on
    fixed-point brackets, returned at its own scale p
    (`_polygamma_mantissas`).  Orders whose terms stop decreasing are
    summed again with the lift target doubled; the others keep their
    first result.
    """
    if n0 < 1:
        raise ValueError("derivative order must be >= 1")
    x = to_fraction(x)
    if x <= 0:
        raise ValueError("argument must be > 0")
    tol_den = 10 ** (digits + 1)
    target = max(20, digits)
    out = [None] * (N - n0 + 1)
    while None in out:
        if target > 64 * (digits + 20):
            raise RuntimeError("asymptotic expansion failed to converge")
        first = n0 + out.index(None)
        last = N - out[::-1].index(None)
        m = max(0, math.ceil(target - x))
        bodies = _polygamma_mantissas(first, last, x.numerator,
                                      x.denominator, m, tol_den)
        for n, body in enumerate(bodies, first):
            if body is not None and out[n - n0] is None:
                p, lo, hi = body if n % 2 else (body[0], -body[2], -body[1])
                # rounded outward to multiples of 10**-(digits+1)
                out[n - n0] = (lo * tol_den >> p, -(-hi * tol_den >> p))
        target *= 2
    return out


def polygamma(n: int, x, digits: int) -> Enclosure:
    """Enclosure of psi^(n)(x), n >= 1, x > 0: one order of the jet."""
    (lo, hi), = polygamma_jet(n, n, x, digits)
    scale = 10 ** (digits + 1)
    return Enclosure(Fraction(lo, scale), Fraction(hi, scale))


def k_tail(ell: int, a, digits: int) -> Enclosure:
    """Enclosure of sum_{k>=1} k**ell * e**(-k a) for a > 0.

    1/(e**u - 1) = sum_{k>=1} e**(-k u), so `eval_enclosure` encloses the
    sum as (-1)**ell D**ell [1/(e**u - 1)] = sum_i A(ell, i) e**(iu) /
    (e**u - 1)**(ell+1) at u = a, with the Eulerian numbers A(n, i) =
    i A(n-1, i) + (n-i+1) A(n-1, i-1) (Graham, Knuth and Patashnik 6.2).
    """
    check_range("order --ell", ell, 0, K_TAIL_MAX_ORDER)
    from .expring import eval_enclosure, reciprocal_derivative  # import cycle
    a = to_fraction(a)
    if a <= 0:
        raise ValueError("a must be > 0")
    value = eval_enclosure(reciprocal_derivative(ell), a, digits)
    return Enclosure(-value.hi, -value.lo) if ell % 2 else value
