"""Frozen reference values used by the test suite.

Exact rationals transcribed from the published tables, plus derived oracle
values frozen after independent computation, one independent low-precision
route to polygamma, and the plain Fraction loops that the integer series
sums must reproduce exactly.
"""

import math
from fractions import Fraction
from functools import lru_cache

from cmcert.enclosure import Enclosure

# min/max sandwich coefficients of the degree-28 certificate polynomial on
# [0, 1], transcribed from the published table
SANDWICH_BOUNDS = [
    Fraction(4038947756777593110528000000),
    Fraction(4341868838535912593817600000),
    Fraction(4616792938622805973401600000),
    Fraction(63226968447497701058150400000, 13),
    Fraction(66072098066989847041120665600, 13),
    Fraction(68558326435040659929169920000, 13),
    Fraction(1625932364702092812073304064000, 299),
    Fraction(18338550757492925804643090432000, 3289),
    Fraction(18707897201998227336080916480000, 3289),
    Fraction(18996421971796176266488102256640, 3289),
    Fraction(364943527309321738804310099558400, 62491),
    Fraction(33414027455107862233493347123200, 5681),
    Fraction(570021720890042639974424894668800, 96577),
    Fraction(43851581059726626552866155622400, 7429),
    Fraction(43715751783929803366617869881344, 7429),
    Fraction(43449666570024250746295234195200, 7429),
    Fraction(29463945191749248714150342727680, 5083),
    Fraction(32549053609077425759197656000000, 5681),
    Fraction(352985157442262967317198674456320, 62491),
    Fraction(91354286436246580611619508370624, 16445),
    Fraction(17926195304232242164107747202432, 3289),
    Fraction(17548009393294868476730762864424, 3289),
    Fraction(67747076984066766537183527176, 13),
    Fraction(66030748681802854683680196472, 13),
    Fraction(4816825337954730130116871131704, 975),
    Fraction(62340864945822949546899440674, 13),
    Fraction(292672542741083383435627679675, 63),
    Fraction(125766913766925341535184862941, 28),
    Fraction(4334548991696365872138512296),
]

# quintic whose unique positive root separates sign regions: the negated
# odd-order bound denominator, bracketing values -864 at 6 and 608 at 8
ROOT_QUINTIC = [-30240, 15120, -3360, 420, -30, 1]

# sign-analysis quartics/quintic from the ladder positivity remarks
LADDER_QUARTIC_1 = [-756, 12, 323, 36, 1]
LADDER_QUARTIC_2 = [252, 24, -99, 10, 1]
LADDER_QUINTIC_3 = [-1728, -825, 407, 278, 58, 4]


def polygamma_hurwitz(n: int, x: Fraction, terms: int) -> Enclosure:
    """psi^(n)(x) from the Hurwitz partial sum plus an integral tail.

    |psi^(n)(x)| = n! sum_{j>=0} 1/(x+j)^(n+1); the tail past `terms` lies
    between the integral from x+terms and that integral plus its first term.
    """
    s = sum(Fraction(1) / (x + j) ** (n + 1) for j in range(terms))
    tail_lo = 1 / (n * (x + terms) ** n)
    tail_hi = tail_lo + 1 / (x + terms) ** (n + 1)
    mag = Enclosure(s + tail_lo, s + tail_hi) * math.factorial(n)
    return mag if n % 2 == 1 else -mag


# -- Fraction-loop references for the integer series sums -------------------
# The summations as they stood before the exact sums moved onto unnormalised
# integers; the optimised routines must return the identical Enclosure.


@lru_cache(maxsize=None)
def taylor_coefficient_fraction(num, j: int) -> Fraction:
    """j-th Taylor coefficient at 0 of an ExpPoly, one Fraction per term.

    Memoised only so that a thousand-case comparison runs in seconds."""
    acc = Fraction(0)
    for f, p in num.terms:
        for d in range(min(j, p.degree) + 1):
            c = p[d]
            if c:
                acc += c * Fraction(f ** (j - d), math.factorial(j - d))
    return acc


def exp_series_tail_fraction(y: Fraction, order: int) -> Fraction:
    t = y ** (order + 1) / Fraction(math.factorial(order + 1))
    ratio = y / (order + 2)
    if ratio >= Fraction(1, 2):
        raise ValueError("series order too small for this argument")
    return t / (1 - ratio)


def numerator_series_fraction(num, u: Fraction, order: int) -> Enclosure:
    partial = Fraction(0)
    upow = [u ** j for j in range(order + 1)]
    for j in range(order + 1):
        partial += taylor_coefficient_fraction(num, j) * upow[j]
    bound = Fraction(0)
    for f, p in num.terms:
        for d in range(p.degree + 1):
            c = p[d]
            if c:
                bound += abs(c) * u ** d * exp_series_tail_fraction(f * u,
                                                                    order - d)
    return Enclosure(partial - bound, partial + bound)


def expm1_series_fraction(u: Fraction, order: int) -> Enclosure:
    partial = sum(u ** k / Fraction(math.factorial(k))
                  for k in range(1, order + 1))
    bound = exp_series_tail_fraction(u, order)
    return Enclosure(partial, partial + bound)


def bessel_ratio_fraction(k: int, u: Fraction, digits: int,
                          term_cap: int) -> Enclosure:
    """sum_n u**n / (n! (n+k)!) with a running Fraction term and total."""
    if u == 0:
        return Enclosure.point(Fraction(1, math.factorial(k)))
    tol = Fraction(1, 10 ** (digits + 1))
    term = Fraction(1, math.factorial(k))
    total = term
    n = 0
    while True:
        n += 1
        term *= Fraction(u, n * (n + k))
        total += term
        ratio = Fraction(u, (n + 1) * (n + k + 1))
        if ratio < Fraction(1, 2):
            tail = term * ratio / (1 - ratio)
            if tail < tol:
                break
        if n > term_cap:
            raise RuntimeError(
                "Bessel series did not converge within TERM_CAP terms")
    return Enclosure(total, total + tail).round_out(digits + 1)


def mul_four_products(x: Enclosure, y: Enclosure) -> Enclosure:
    """Interval product as the min and max of all four endpoint products."""
    prods = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return Enclosure(min(prods), max(prods))
