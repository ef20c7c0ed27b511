"""Exact rational polynomial algebra and positivity certification.

Dense univariate polynomials over Fraction.  The degree-28 positivity
certificate is built from Taylor shifts and unit-interval coefficient bounds
(Cargo-Shisha), with a dyadic witness search when a piece fails; the
classical rational sandwich bounds for exp feed its derivation.  Descartes'
sign rule and sign-change root isolation decide the paper's root remarks.

Products, Taylor shifts, affine changes of variable and the sandwich sums
run on integer numerators over one common denominator D: a product is one
integer convolution, a shift by r/t is an in-place integer Horner shift by
r of the numerators scaled by powers of t, and the sandwich bounds are
integer sums over D n!.  Each output coefficient or bound is a single
Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .enclosure import (Enclosure, Record, bits, check_range, check_work,
                        to_fraction, work, worst)


class Polynomial(Record):
    """Dense polynomial; coeffs[i] is the coefficient of x**i.

    The highest stored coefficient is nonzero; the zero polynomial has an
    empty coefficient tuple.
    """

    __slots__ = _fields = ("coeffs",)

    @staticmethod
    def of(coeffs: Iterable) -> "Polynomial":
        cs = [to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.of([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        (a, da), (b, db) = _common_numerators(self), _common_numerators(other)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return Polynomial(tuple([Fraction(c, da * db) for c in out]))

    def scale(self, c) -> "Polynomial":
        c = to_fraction(c)
        if c == 0:
            return Polynomial.zero()
        return Polynomial(tuple(a * c for a in self.coeffs))

    def __call__(self, x) -> Fraction:
        """Exact value at x by Horner's rule."""
        x = to_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, x: Enclosure) -> Enclosure:
        acc = Enclosure.point(0)
        for c in reversed(self.coeffs):
            acc = acc * x + Enclosure.point(c)
        return acc


def _common_numerators(p: Polynomial) -> tuple[list[int], int]:
    """Integers N_i and one denominator D with p[i] = N_i / D."""
    d = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (d // c.denominator) for c in p.coeffs], d


def _size(p: Polynomial) -> int:
    """Bits of p's largest numerator or denominator over a common one."""
    nums, d = _common_numerators(p)
    return max(map(abs, [d, *nums])).bit_length()


def taylor_shift(p: Polynomial, a) -> Polynomial:
    """Return q with q(u) = p(u + a), exactly (see `compose_affine`)."""
    return compose_affine(p, a, 1)


def compose_affine(p: Polynomial, a, s) -> Polynomial:
    """Return q with q(v) = p(a + s*v), exactly, on integers.

    With p = sum_i N_i x^i / D, a = r/t and s = g/h, the integer polynomial
    sum_i N_i t^(n-i) z^i is shifted by r with in-place Horner (n passes of
    P_j += r P_(j+1)); coefficient j of q is then P_j g^j / (D t^(n-j) h^j),
    one Fraction each.
    """
    a, s = to_fraction(a), to_fraction(s)
    if p.is_zero():
        return p
    num, d = _common_numerators(p)
    n = len(num) - 1
    r, t = a.numerator, a.denominator
    P = [c * t ** (n - i) for i, c in enumerate(num)]
    if r:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                P[j] += r * P[j + 1]
    g, h = s.numerator, s.denominator
    return Polynomial.of([Fraction(c * g ** j, d * t ** (n - j) * h ** j)
                          for j, c in enumerate(P)])


def descartes_sign_changes(p: Polynomial) -> int:
    """Sign changes in the nonzero coefficient sequence.

    Upper-bounds the number of positive real roots and has the same parity.
    """
    if p.is_zero():
        raise ValueError("Descartes' rule is undefined for the zero polynomial")
    signs = [1 if c > 0 else -1 for c in p.coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cargo_shisha_bounds(p: Polynomial) -> list[Fraction]:
    """The n+1 weighted partial sums whose min/max sandwich p on [0, 1].

    b_k = sum_{l<=k} a_l * C(k,l)/C(n,l); min_k b_k <= p(x) <= max_k b_k
    for 0 <= x <= 1.  With a_l = N_l / D, b_k is the integer
    sum_l N_l (n-l)! k!/(k-l)! over D n!, summed by Horner in the falling
    factorial and made one Fraction.
    """
    if p.is_zero():
        raise ValueError("bounds undefined for the zero polynomial")
    num, d = _common_numerators(p)
    n = len(num) - 1
    w = [c * math.factorial(n - l) for l, c in enumerate(num)]
    den = d * math.factorial(n)
    out = []
    for k in range(n + 1):
        acc = w[k]
        for l in range(k - 1, -1, -1):
            acc = w[l] + (k - l) * acc
        out.append(Fraction(acc, den))
    return out


class PieceReport(Record):
    __slots__ = _fields = ("shift", "min_bk", "argmin", "max_bk", "certified")


class PositivityCertificate(Record):
    """Verdict for 'p > 0 on [lo, hi]' with per-piece bound data."""

    # verdict: "certified" | "falsified" | "inconclusive"
    __slots__ = _fields = ("verdict", "interval", "pieces", "witness",
                           "witness_value")


# a failing piece is searched for a witness on WITNESS_LEVELS dyadic levels,
# then bisected at most MAX_DEPTH times
WITNESS_LEVELS = 6
MAX_DEPTH = 12


def _unit_interval_piece(p: Polynomial, shift: Fraction,
                         scale: Fraction) -> PieceReport:
    bs = cargo_shisha_bounds(compose_affine(p, shift, scale))
    mn = min(bs)
    return PieceReport(shift=shift, min_bk=mn, argmin=bs.index(mn),
                       max_bk=max(bs), certified=mn > 0)


def _search_witness(p: Polynomial, lo: Fraction,
                    hi: Fraction) -> Optional[Fraction]:
    """Look for an exact point with p(x) <= 0, densifying dyadically."""
    for level in range(1, WITNESS_LEVELS + 1):
        step = (hi - lo) / 2 ** level
        for j in range(1, 2 ** level, 2):
            x = lo + j * step
            if p(x) <= 0:
                return x
    for x in (lo, hi):
        if p(x) <= 0:
            return x
    return None


def certify_positive_on_interval(p: Polynomial, lo, hi,
                                 step) -> PositivityCertificate:
    """Certify p > 0 on [lo, hi] by step-wise Cargo-Shisha bounds.

    Each step-length piece is rescaled to [0, 1]; a piece certifies when its
    minimum coefficient bound is positive.  A failing piece is first searched
    for an exact nonpositive witness, then bisected (bounds tighten under
    subdivision) up to MAX_DEPTH times before the verdict degrades to
    inconclusive.  Pending pieces form one work-list taken from the left, a
    bisected piece's halves going to its front, so pieces are recorded left
    to right; the first witness ends the search.
    """
    lo, hi, step = to_fraction(lo), to_fraction(hi), to_fraction(step)
    if not (lo < hi and step > 0):
        raise ValueError("need lo < hi and step > 0")
    count = math.ceil((hi - lo) / step)
    # per piece, n**2 Horner steps by A-bit shifts and 8 n rational
    # operations on B bits, each costing 32 integer ones and 3 products,
    # for the pieces and the witness searches of bisection to MAX_DEPTH
    pieces, n = count + 2 * MAX_DEPTH, len(p.coeffs)
    A, f = bits(lo) + bits(hi) + bits(step), 8 * n * (
        pieces + MAX_DEPTH * 2 ** WITNESS_LEVELS // 2)
    B = _size(p) + n * A
    check_work("--file/--interval/--step", work(32 * f, 0)
               + work(3 * f, B, B) + work(pieces * n * n, B, A))

    cuts = [lo + i * step for i in range(count)] + [hi]
    # reversed, so that pop() takes the leftmost pending piece
    todo = [(a, b, 0) for a, b in zip(cuts, cuts[1:])][::-1]
    pieces: list[PieceReport] = []
    witness, status = None, "certified"
    while todo and witness is None:
        a, b, depth = todo.pop()
        rep = _unit_interval_piece(p, a, b - a)
        if not rep.certified:
            witness = _search_witness(p, a, b)
            if witness is None and depth < MAX_DEPTH:
                m = (a + b) / 2
                todo += [(m, b, depth + 1), (a, m, depth + 1)]
                continue
        pieces.append(rep)
        status = worst([status, "certified" if rep.certified else
                        "inconclusive" if witness is None else "falsified"])

    return PositivityCertificate(
        verdict=status,
        interval=(lo, hi),
        pieces=tuple(pieces),
        witness=witness,
        witness_value=None if witness is None else p(witness),
    )


def isolate_root(p: Polynomial, lo, hi, width) -> tuple[Fraction, Fraction]:
    """Bisect a sign change of p down to an interval of length <= width."""
    lo, hi, width = to_fraction(lo), to_fraction(hi), to_fraction(width)
    flo, fhi = p(lo), p(hi)
    if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
        raise ValueError("need opposite nonzero signs at the endpoints")
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = p(mid)
        if fmid == 0:
            return (mid, mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return (lo, hi)


# ---------------------------------------------------------------------------
# Rational sandwich bounds for exp (reversed-coefficient Pade-style ratios)
# ---------------------------------------------------------------------------


def exp_bound_polynomial(n: int) -> Polynomial:
    """Degree-n polynomial with coefficient of u**k equal to C(n,k)(2n-k)!/n!.

    In the variable u = 1/x this is x**n * Q_n(1/x) for the classical
    exp-bounding polynomials Q_n.
    """
    return Polynomial.of([Fraction(math.comb(n, k) * math.factorial(2 * n - k),
                                   math.factorial(n)) for k in range(n + 1)])


def lemma1_exp_bounds(m: int, n: int):
    """Rational lower/upper sandwich for e**u valid on 0 < u < 2(m+1).

    Returns ((lower_num, lower_den), (upper_num, upper_den), threshold) with
    lower_num/lower_den < e**u < upper_num/upper_den there.  threshold =
    1/(2(m+1)) is the open end in x = 1/u; at m = 0, upper_den = 2 - u.
    """
    check_range("order --m", m, 0)
    check_range("order --n", n, 1)
    size = 4 * (m + n + 1) * (m + n + 1).bit_length()  # of (4n)!, (4m)!
    check_work("--m/--n", work(8 * (m + n + 1), size, size))
    even = exp_bound_polynomial(2 * n)
    odd = exp_bound_polynomial(2 * m + 1)
    alt_even = Polynomial.of([(-1) ** k * c for k, c in enumerate(even.coeffs)])
    alt_odd = Polynomial.of([(-1) ** k * c for k, c in enumerate(odd.coeffs)])
    return (even, alt_even), (odd, alt_odd), Fraction(1, 2 * (m + 1))
