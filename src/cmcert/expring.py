"""Exponential polynomials sum c u^d e^(fu) as one coefficient table.

An exp-polynomial is a dict {(f, d): c}: the frequency f >= 0 of e^(fu),
the power d >= 0 of u and an exact nonzero rational c.  A quotient
N / (e^u - 1)^m, the smallest differentiation-closed home of
u/(1 - e^-u), is `ExpPolyQuotient(N, m)`.  The derivative towers of
1/(e^u - 1) and of the Laplace kernel write their closed forms in the
Eulerian numbers A(n, i) straight into the table (Graham, Knuth and
Patashnik, Concrete Mathematics, section 6.2):
D^n [1/(e^u - 1)] = (-1)^n sum_i A(n, i) e^(iu) / (e^u - 1)^(n+1), with
A(0, 0) = 1 and A(n, i) = i A(n-1, i) + (n-i+1) A(n-1, i-1).  A table
product and derivative carry the exact algebra behind the degree-28
positivity reduction.

`eval_enclosure` runs one path for every u > 0 in q = e^-u, on binary
fixed-point brackets (Brent and Zimmermann, Modern Computer Arithmetic,
sections 3-4).  With F the top frequency and s = max(F, m),
N(u) / (e^u - 1)^m = e^((s-m)u) sum_f p_f(u) q^(s-f) / (1 - q)^m: an
interval Horner pass in q, the pole power of 1 - q by square-and-multiply,
every product floored at the low end and ceiled at the high end, and one
outward rounding of the quotient, so every bracket holds the exact
interval value and no error estimate is needed.  q <= 1, so the brackets
keep the bits of the digits asked for at any u; only a quotient with
F > m takes e^((F-m)u), and no tower has one.  The guard digits start
from the pole's growth near 0 and then follow the measured width.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .enclosure import (Enclosure, Record, divide_round_out, to_fraction,
                        work)
from . import poly, specfun


def _table(terms) -> dict:
    """{key: c} summed from (key, c) pairs, zeros dropped."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _product(a: dict, b: dict) -> dict:
    return _table(((f + g, d + e), c * k) for (f, d), c in a.items()
                  for (g, e), k in b.items())


def _derivative(a: dict) -> dict:
    """D [c u^d e^(fu)] = c d u^(d-1) e^(fu) + c f u^d e^(fu)."""
    return _table(term for (f, d), c in a.items()
                  for term in (((f, d - 1), c * d), ((f, d), c * f)))


def _at_zero(a: dict) -> Fraction:
    """Exact value at u = 0 (each e^(fu) factor equals 1)."""
    return sum((c for (_, d), c in a.items() if not d), Fraction(0))


def _exp_minus_one_power(m: int) -> dict:
    """(e^u - 1)^m = sum_i C(m, i) (-1)^(m-i) e^(iu)."""
    return {(i, 0): math.comb(m, i) * (-1) ** (m - i) for i in range(m + 1)}


def _taylor_table(num: dict, order: int) -> tuple[int, tuple[int, ...]]:
    """(D, K) with K[j] / (D j!) the j-th Taylor coefficient of num at 0.

    c u^d e^(fu) contributes c f^(j-d)/(j-d)! to the j-th coefficient; with
    D the common denominator of all c, each contribution is the integer
    (D c) f^(j-d) j!/(j-d)! over D j!.  `series_at_zero` reads its
    numerator's table and the pole power's from here.
    """
    den = math.lcm(*(c.denominator for c in num.values()))
    parts = [(f, d, c.numerator * (den // c.denominator))
             for (f, d), c in num.items()]
    table = tuple(sum(k * f ** (j - d) * math.perm(j, d)
                      for f, d, k in parts if d <= j)
                  for j in range(order + 1))
    return den, table


class ExpPolyQuotient(Record):
    """numerator / (e^u - 1)^pole, the numerator a table {(f, d): c}; the
    towers below build it fully reduced."""

    __slots__ = _fields = ("numerator", "pole")


def reciprocal_derivative(n: int) -> ExpPolyQuotient:
    """n-th derivative of 1/(e^u - 1) in its Eulerian form, reduced.

    The row A(n, 0..n) is built iteratively, without recursion.  At e^u = 1
    the numerator is (-1)^n n! != 0, so no factor (e^u - 1) cancels.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for m in range(1, n + 1):
        row = [i * a + (m - i + 1) * b
               for i, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return ExpPolyQuotient({(i, 0): (-1) ** n * a
                            for i, a in enumerate(row) if a}, n + 1)


@lru_cache(maxsize=None)
def kernel_derivative(k: int) -> ExpPolyQuotient:
    """k-th derivative of u/(1 - e^-u) = u + u g with g = 1/(e^u - 1).

    Leibniz gives u g^(k) + k g^(k-1), plus 1 at k = 1, and g^(n) is the
    Eulerian form N_n / (E - 1)^(n+1) of `reciprocal_derivative` (Graham,
    Knuth and Patashnik 6.2).  So the numerator is u N_k + k N_(k-1) (E - 1),
    plus (E - 1)^2 at k = 1, over the pole k + 1; at E = 1 it is
    (-1)^k k! u != 0, so it is reduced.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return ExpPolyQuotient({(1, 1): 1}, 1)
    terms = [((i, 1), a)
             for (i, _), a in reciprocal_derivative(k).numerator.items()]
    for (i, _), a in reciprocal_derivative(k - 1).numerator.items():
        terms += [((i + 1, 0), k * a), ((i, 0), -k * a)]
    if k == 1:
        terms += _exp_minus_one_power(2).items()
    return ExpPolyQuotient(_table(terms), k + 1)


# -- evaluation -------------------------------------------------------------


def _fixed(e: Enclosure, w: int) -> tuple[int, int]:
    """e's ends times 2**w, floored (lo) and ceiled (hi)."""
    lo, hi, den = e.ratio()
    return (lo << w) // den, -((-hi << w) // den)


def _fixed_parts(f: ExpPolyQuotient, u: Fraction, digits: int) -> tuple:
    """Brackets (lo, hi) of the numerator sum 2**w e^((s-m)u) sum_f
    p_f(u) q^(s-f) and of (1 - q) 2**w, and w, the bits of
    10**-(digits+1).  The q enclosure and each p_f(u) are floored at lo and
    ceiled at hi; Horner runs A <- A q + p_f(u) from frequency 0 up, with
    the low or high end of q >= 0 by the sign of A (Moore's rule), each
    product floored (lo) or ceiled (hi), so each bracket holds the exact
    interval Horner value over the same enclosures."""
    w = (digits + 1) * 10 // 3
    q = _fixed(specfun.exp_enclosure(-u, digits), w)
    coeffs = _table((g, c * u ** d) for (g, d), c in f.numerator.items())
    top = max([f.pole, *coeffs])
    steps = [(q, coeffs.get(g, 0)) for g in range(top + 1)]
    if top > f.pole:
        steps.append((_fixed(specfun.exp_enclosure((top - f.pole) * u,
                                                   digits), w), 0))
    lo = hi = 0
    for (x_lo, x_hi), c in steps:
        lo = lo * (x_lo if lo >= 0 else x_hi) >> w
        hi = -(-hi * (x_hi if hi >= 0 else x_lo) >> w)
        n, d = c.numerator << w, c.denominator
        lo, hi = lo + n // d, hi - (-n // d)
    return (lo, hi), ((1 << w) - q[1], (1 << w) - q[0]), w


def eval_work(pole: int, u: Fraction, digits: int) -> int:
    """Work of `eval_enclosure`: e**-u, Horner and the pole power."""
    # at the first guard's digits d and twice them: e**-u, then Horner and
    # the pole power on both ends and two rounds, on brackets of x bits,
    # which q <= 1 keeps at the digits' size; the numerator is up to pole
    # times 9 bits, and u's, larger
    a, b = u.numerator, u.denominator
    d = digits + pole * max(0, b.bit_length() - a.bit_length()) * 3 // 10
    x = 8 * d + 80
    return specfun.exp_work(-u, d) + specfun.exp_work(-u, 2 * d) + work(
        4 * pole, x + pole * 9 + a.bit_length(), x)


def eval_enclosure(f: ExpPolyQuotient, u, digits: int) -> Enclosure:
    """Enclosure of f(u) for rational u > 0, of width <= 10**-digits.

    On the brackets of `_fixed_parts`, 1 - q is raised to the pole by
    square-and-multiply, each product floored (lo) or ceiled (hi), only
    while its low end is positive, and the quotient is rounded out once at
    10**-(digits+1), so soundness rests on directed rounding alone.  The
    first guard is 8 digits plus about pole * log10(1/u) for the pole's
    growth near 0; a round that misses the width adds the digits of its
    miss plus 2, one with no enclosure doubles the guard and adds digits,
    and after six rounds ArithmeticError names the last width.
    """
    u = to_fraction(u)
    if u <= 0:
        raise ValueError("evaluation requires u > 0")
    a, b = u.numerator, u.denominator
    guard = 8 + f.pole * max(0, b.bit_length() - a.bit_length()) * 3 // 10
    cap, last = 6, "no enclosure"
    for _ in range(cap):
        (lo, hi), (x_lo, x_hi), w = _fixed_parts(f, u, digits + guard)
        p_lo = p_hi = one = 1 << w
        n = f.pole
        while n and x_lo > 0:  # a bracket through 0 is never raised
            if n & 1:
                p_lo, p_hi = p_lo * x_lo >> w, -(-p_hi * x_hi >> w)
            n >>= 1
            x_lo, x_hi = x_lo * x_lo >> w, -(-x_hi * x_hi >> w)
        if n or not p_lo:
            guard = guard * 2 + digits
            continue
        val = divide_round_out((lo, hi, one), (p_lo, p_hi, one), digits + 1)
        miss = val.width * 10 ** digits
        if miss <= 1:
            return val
        last = f"width {val.width}"
        guard += len(str(math.ceil(miss))) + 2
    raise ArithmeticError(f"f({u}) not enclosed to width 10^-{digits}: "
                          f"{last} after {cap} rounds")


def series_at_zero(f: ExpPolyQuotient, n_terms: int) -> list[Fraction]:
    """First n_terms exact Taylor coefficients of f at 0.

    Raises if the numerator does not vanish to the pole order at the origin
    (a genuine pole), identifying the pole order in the message.
    """
    m = f.pole
    order = n_terms + m + 1
    den, table = _taylor_table(f.numerator, order)
    a = [Fraction(k, den * math.factorial(j)) for j, k in enumerate(table)]
    if m == 0:
        return a[:n_terms]
    for j in range(m):
        if a[j] != 0:
            raise ValueError(f"genuine pole of order {m - j} at u = 0")
    # (e^u - 1)^m = u^m * (1 + d_1 u + d_2 u^2 + ...), d_i at index m + i
    _, powers = _taylor_table(_exp_minus_one_power(m), order)
    d = [Fraction(k, math.factorial(j)) for j, k in enumerate(powers)]
    out = []
    for j in range(n_terms):
        out.append(a[m + j] - sum(d[m + i] * out[j - i]
                                  for i in range(1, j + 1)))
    return out


# -- the derivative chain behind the degree-28 reduction --------------------


def build_f1() -> dict:
    """(u+6)(e^u-1)^5 - 720 e^u [(u-4)e^{3u} + (11u-12)e^{2u} + (11u+12)e^u + u+4]."""
    first = _product(_exp_minus_one_power(5), {(0, 0): 6, (0, 1): 1})
    bracket = {(4, 1): 1, (4, 0): -4, (3, 1): 11, (3, 0): -12,
               (2, 1): 11, (2, 0): 12, (1, 1): 1, (1, 0): 4}
    return _table([*first.items(),
                   *(((f, d), -720 * c) for (f, d), c in bracket.items())])


def _extract_exp_factor(g: dict, scalar: int) -> tuple[dict, bool]:
    """(g without its e^0 terms) / (scalar e^u), and whether they are 0."""
    return ({(f - 1, d): Fraction(c, scalar) for (f, d), c in g.items() if f},
            all(f for f, _ in g))


def build_F_chain():
    """Build the three-stage derivative chain and check its seven exact zeros.

    Returns (F1, F2, F3, report) where F2 = F1''/(5 e^u) and F3 = F2''/(8 e^u);
    the report lists the origin values, and it is verified when both stages
    divide exactly by e^u and all seven values vanish.
    """
    f1 = build_f1()
    f1d = _derivative(f1)
    f1dd = _derivative(f1d)
    f2, divisible2 = _extract_exp_factor(f1dd, 5)
    f2d = _derivative(f2)
    f2dd = _derivative(f2d)
    f3, divisible3 = _extract_exp_factor(f2dd, 8)
    zeros = {
        "F3(0)": _at_zero(f3),
        "F2''(0)": _at_zero(f2dd),
        "F2'(0)": _at_zero(f2d),
        "F2(0)": _at_zero(f2),
        "F1''(0)": _at_zero(f1dd),
        "F1'(0)": _at_zero(f1d),
        "F1(0)": _at_zero(f1),
    }
    report = {"zeros": {k: str(v) for k, v in zeros.items()},
              "verified": divisible2 and divisible3
              and all(v == 0 for v in zeros.values())}
    return f1, f2, f3, report


# Reference transcription of the degree-28 reduction polynomial (ascending
# powers), used as a guard against algebra slips in build_f4_via_pade.
F4_REFERENCE_COEFFS = (
    4038947756777593110528000000,
    8481790289232945532108800000,
    -10582859071799067200716800000,
    -350858087962497987379200000,
    5063190015183760203448320000,
    -3082810530742053482004480000,
    852510196971380523663360000,
    -48948451585366441328640000,
    -59514097618800165519360000,
    30521365267364424843264000,
    -9156137875572402634752000,
    2061377592729654140928000,
    -376773142967398969344000,
    58018545121380802560000,
    -7678232793596974694400,
    882241752079928217600,
    -88289462254568601600,
    7670777548637952000,
    -572728070517926400,
    36018288433370880,
    -1835940264439680,
    69509082484800,
    -1412513172000,
    -34479103680,
    4603805304,
    -218010408,
    6068010,
    -94751,
    621,
)


def build_f4_via_pade():
    """Reproduce the degree-28 numerator by exact substitution of the
    rational exp sandwich (orders m=2, n=3) into the stage-three function.

    Returns (f4, report).  The reduction matches the reference when its
    numerator vanishes at 0 and f4 is F4_REFERENCE_COEFFS.  The cleared
    denominator, the (negative) quintic factor squared times the sextic
    factor cubed, is positive on (0, 6) when the sextic and the negated
    quintic factor are both certified positive there.
    """
    (lnum, lden), (unum, uden), _ = poly.lemma1_exp_bounds(2, 3)
    u2, d3 = uden * uden, lden * lden * lden
    l2u2, d3u = lnum * lnum * u2, d3 * unum
    line = poly.Polynomial.of
    numerator = (l2u2 * lnum * line([69, 10]) + (l2u2 * lden).scale(7215)
                 - d3u * uden * line([4035, 7119])
                 - d3 * u2 * line([3249, 793]) - d3u * unum * line([0, 2610]))
    f4 = line([c / 6 for c in numerator.coeffs[1:]])
    report = {
        "matches_reference": (numerator[0] == 0
                              and f4.coeffs == F4_REFERENCE_COEFFS),
        "sextic_factor_positive_on_0_6":
            poly.certify_positive_on_interval(lden, 0, 6, 1).verdict,
        "negated_quintic_positive_on_0_6":
            poly.certify_positive_on_interval(uden, 0, 6, 1).verdict,
    }
    return f4, report
