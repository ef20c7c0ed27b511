"""Exponential-polynomial quotient ring sum_i p_i(u) e^(iu) / (e^u - 1)^m.

The smallest differentiation-closed ring containing u/(1 - e^-u): elements
are finite maps frequency -> polynomial numerator over a pole power of
(e^u - 1).  Supplies the derivative towers of 1/(e^u - 1) and of the
Laplace kernel, and the exact algebra behind the degree-28 positivity
reduction.  Both towers are closed forms in the Eulerian numbers A(n, i)
(Graham, Knuth and Patashnik, Concrete Mathematics, section 6.2):
D^n [1/(e^u - 1)] = (-1)^n sum_i A(n, i) e^(iu) / (e^u - 1)^(n+1), with
A(0, 0) = 1 and A(n, i) = i A(n-1, i) + (n-i+1) A(n-1, i-1).

`eval_enclosure` runs one path for every u > 0 on binary fixed-point
brackets (Brent and Zimmermann, Modern Computer Arithmetic, sections 3-4):
an interval Horner pass over the exp enclosure, the pole power by
square-and-multiply, every product floored at the low end and ceiled at
the high end, and one outward rounding of the quotient, so every bracket
holds the exact interval value and no error estimate is needed.  The
guard digits start from the pole's growth near 0 and then follow the
measured width.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .enclosure import (Enclosure, Record, divide_round_out, to_fraction,
                        work)
from .poly import Polynomial, certify_positive_on_interval, lemma1_exp_bounds
from . import specfun


class ExpPoly(Record):
    """Finite sum of p_i(u) * e^(i u) with exact polynomial coefficients."""

    __slots__ = _fields = ("terms",)  # ((i, p_i), ...) sorted by frequency

    @staticmethod
    def of(mapping: dict[int, Polynomial]) -> "ExpPoly":
        items = []
        for freq in sorted(mapping):
            p = mapping[freq]
            if freq < 0:
                raise ValueError("negative frequencies are not in the ring")
            if not p.is_zero():
                items.append((freq, p))
        return ExpPoly(tuple(items))

    def as_dict(self) -> dict[int, Polynomial]:
        return dict(self.terms)

    def max_freq(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        d = self.as_dict()
        for f, p in other.terms:
            d[f] = d.get(f, Polynomial.zero()) + p
        return ExpPoly.of(d)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        d: dict[int, Polynomial] = {}
        for f1, p1 in self.terms:
            for f2, p2 in other.terms:
                f = f1 + f2
                d[f] = d.get(f, Polynomial.zero()) + p1 * p2
        return ExpPoly.of(d)

    def scale(self, c) -> "ExpPoly":
        return ExpPoly.of({f: p.scale(c) for f, p in self.terms})

    def mul_poly(self, q: Polynomial) -> "ExpPoly":
        return ExpPoly.of({f: p * q for f, p in self.terms})

    def derivative(self) -> "ExpPoly":
        return ExpPoly.of({f: p.derivative() + p.scale(f) for f, p in self.terms})

    def value_at_origin(self) -> Fraction:
        """Exact value at u = 0 (each e^(iu) factor equals 1)."""
        return sum((p(0) for _, p in self.terms), Fraction(0))


def _taylor_table(num: ExpPoly, order: int) -> tuple[int, tuple[int, ...]]:
    """(D, K) with K[j] / (D j!) the j-th Taylor coefficient of num at 0.

    p(u) e^(fu) contributes sum_d p[d] f^(j-d)/(j-d)! to the j-th coefficient;
    with D the common denominator of all p[d], each contribution is the
    integer (D p[d]) f^(j-d) j!/(j-d)! over D j!.  `series_at_zero` reads
    its numerator's table and the pole power's from here.
    """
    den = math.lcm(*(c.denominator for _, p in num.terms for c in p.coeffs))
    parts = [(f, d, c.numerator * (den // c.denominator))
             for f, p in num.terms for d, c in enumerate(p.coeffs) if c]
    table = tuple(sum(k * f ** (j - d) * math.perm(j, d)
                      for f, d, k in parts if d <= j)
                  for j in range(order + 1))
    return den, table


EXP_U = ExpPoly.of({1: Polynomial.constant(1)})
EXP_U_MINUS_ONE = EXP_U - ExpPoly.of({0: Polynomial.constant(1)})


class ExpPolyQuotient(Record):
    """numerator / (e^u - 1)^pole; the towers below build it fully reduced."""

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
    return ExpPolyQuotient(ExpPoly.of({i: Polynomial.constant((-1) ** n * a)
                                       for i, a in enumerate(row)}), n + 1)


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
    u = Polynomial.x()
    if k == 0:
        return ExpPolyQuotient(ExpPoly.of({1: u}), 1)
    num = (reciprocal_derivative(k).numerator.mul_poly(u) + (EXP_U_MINUS_ONE
           * reciprocal_derivative(k - 1).numerator).scale(k))
    if k == 1:
        num = num + EXP_U_MINUS_ONE * EXP_U_MINUS_ONE
    return ExpPolyQuotient(num, k + 1)


# -- evaluation -------------------------------------------------------------


def _fixed_parts(num: ExpPoly, u: Fraction, digits: int) -> tuple:
    """Brackets (lo, hi) of num(u) 2**w and of (e^u - 1) 2**w, and w, the
    bits of 10**-(digits+1).  The exp enclosure and each p_f(u) are floored
    at lo and ceiled at hi; Horner runs A <- A X + p_f(u) from the top
    frequency down, X the low or high end of e^u by the sign of A (Moore's
    rule), each product floored (lo) or ceiled (hi), so each bracket holds
    the exact interval Horner value over the same exp enclosure."""
    w = (digits + 1) * 10 // 3
    lo_e, hi_e, s = specfun.exp_enclosure(u, digits).ratio()
    lo_e, hi_e = (lo_e << w) // s, -((-hi_e << w) // s)
    coeffs = {f: p(u) for f, p in num.terms}
    lo = hi = 0
    for f in range(num.max_freq(), -1, -1):
        c = coeffs.get(f, 0)
        n, d = c.numerator << w, c.denominator
        lo = (lo * (lo_e if lo >= 0 else hi_e) >> w) + n // d
        hi = -(-hi * (hi_e if hi >= 0 else lo_e) >> w) - (-n // d)
    return (lo, hi), (lo_e - (1 << w), hi_e - (1 << w)), w


def eval_work(pole: int, u: Fraction, digits: int) -> int:
    """Work of `eval_enclosure`: exp, Horner and the pole power."""
    # at the first guard's digits d and twice them: Horner and the pole
    # power on both ends and two rounds, on brackets of x bits, up to pole
    # times e**u's e bits before the point; none once an exp raises
    a, b = u.numerator, u.denominator
    d = digits + pole * max(0, b.bit_length() - a.bit_length()) * 3 // 10
    e = min(3 * (a // b) // 2, specfun.EXP_BITS_CAP)
    x, exp = 8 * d + 80 + e, specfun.exp_work(u, d)
    return exp and exp + specfun.exp_work(u, 2 * d) + work(
        4 * pole, x + pole * (e + 9), x)


def eval_enclosure(f: ExpPolyQuotient, u, digits: int) -> Enclosure:
    """Enclosure of f(u) for rational u > 0, of width <= 10**-digits.

    On the brackets of `_fixed_parts`, e^u - 1 is raised to the pole by
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
        (lo, hi), (x_lo, x_hi), w = _fixed_parts(f.numerator, u, digits + guard)
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
    _, powers = _taylor_table(math.prod([EXP_U_MINUS_ONE] * (m - 1),
                                        start=EXP_U_MINUS_ONE), order)
    d = [Fraction(k, math.factorial(j)) for j, k in enumerate(powers)]
    out = []
    for j in range(n_terms):
        out.append(a[m + j] - sum(d[m + i] * out[j - i]
                                  for i in range(1, j + 1)))
    return out


# -- the derivative chain behind the degree-28 reduction --------------------


def _poly(c0=0, c1=0) -> Polynomial:
    return Polynomial.of([c0, c1])


def build_f1() -> ExpPoly:
    """(u+6)(e^u-1)^5 - 720 e^u [(u-4)e^{3u} + (11u-12)e^{2u} + (11u+12)e^u + u+4]."""
    emo = EXP_U_MINUS_ONE
    first = (emo * emo * emo * emo * emo).mul_poly(_poly(6, 1))
    bracket = ExpPoly.of({
        3: _poly(-4, 1),
        2: _poly(-12, 11),
        1: _poly(12, 11),
        0: _poly(4, 1),
    })
    second = (EXP_U * bracket).scale(720)
    return first - second


def _extract_exp_factor(g: ExpPoly, scalar: int) -> tuple[ExpPoly, bool]:
    """(g without its e^0 term) / (scalar e^u), and whether that term is 0."""
    d = g.as_dict()
    divisible = d.pop(0, None) is None
    return ExpPoly.of({f - 1: p.scale(Fraction(1, scalar))
                       for f, p in d.items()}), divisible


def build_F_chain():
    """Build the three-stage derivative chain and check its seven exact zeros.

    Returns (F1, F2, F3, report) where F2 = F1''/(5 e^u) and F3 = F2''/(8 e^u);
    the report lists the origin values, and it is verified when both stages
    divide exactly by e^u and all seven values vanish.
    """
    f1 = build_f1()
    f1d = f1.derivative()
    f1dd = f1d.derivative()
    f2, divisible2 = _extract_exp_factor(f1dd, 5)
    f2d = f2.derivative()
    f2dd = f2d.derivative()
    f3, divisible3 = _extract_exp_factor(f2dd, 8)
    zeros = {
        "F3(0)": f3.value_at_origin(),
        "F2''(0)": f2dd.value_at_origin(),
        "F2'(0)": f2d.value_at_origin(),
        "F2(0)": f2.value_at_origin(),
        "F1''(0)": f1dd.value_at_origin(),
        "F1'(0)": f1d.value_at_origin(),
        "F1(0)": f1.value_at_origin(),
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
    (lnum, lden), (unum, uden), _ = lemma1_exp_bounds(2, 3)
    u2, d3 = uden * uden, lden * lden * lden
    l2u2, d3u = lnum * lnum * u2, d3 * unum
    numerator = (l2u2 * lnum * _poly(69, 10) + (l2u2 * lden).scale(7215)
                 - d3u * uden * _poly(4035, 7119) - d3 * u2 * _poly(3249, 793)
                 - d3u * unum * _poly(0, 2610))
    f4 = Polynomial.of([c / 6 for c in numerator.coeffs[1:]])
    report = {
        "matches_reference": (numerator[0] == 0
                              and f4.coeffs == F4_REFERENCE_COEFFS),
        "sextic_factor_positive_on_0_6":
            certify_positive_on_interval(lden, 0, 6, 1).verdict,
        "negated_quintic_positive_on_0_6":
            certify_positive_on_interval(uden, 0, 6, 1).verdict,
    }
    return f4, report
