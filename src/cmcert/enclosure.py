"""Interval arithmetic with exact rational endpoints.

An Enclosure is a closed interval [lo, hi] with Fraction endpoints that is
guaranteed to contain the true real value it stands for.  All arithmetic is
exact; `round_out` trims endpoint denominators outward so that long chains of
operations do not accumulate unbounded rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction


def to_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' / decimal strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_rational(x: Fraction) -> str:
    """Render as 'p/q' (or plain integer when q == 1)."""
    x = x if isinstance(x, Fraction) else Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def check_range(flag: str, value: int, lo: int, hi: int) -> None:
    """Refuse an integer option outside lo..hi before any work is done."""
    if not lo <= value <= hi:
        raise ValueError(f"{flag} {value} is outside the supported range "
                         f"{lo}..{hi}")


def integer_nth_root(a: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer, exactly."""
    if a < 0 or n < 1:
        raise ValueError("integer_nth_root requires a >= 0, n >= 1")
    if a == 0:
        return 0
    if n == 1:
        return a
    if n == 2:
        return math.isqrt(a)
    x = 1 << ((a.bit_length() + n - 1) // n + 1)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x ** n > a:
        x -= 1
    return x


_set = object.__setattr__


class Record:
    """Immutable value whose fields are the names in `_fields`.

    A subclass declares `__slots__ = _fields = (...)`.  Construction by
    position or keyword, equality within one class, hashing and the repr
    follow the fields, and no code is generated when a class is defined:
    every CLI run is a fresh process that would pay for it.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            if (len(args) > len(fields) or values.keys() != set(fields)
                    or not kwargs.keys().isdisjoint(fields[:len(args)])):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{fields}, got {args} and {kwargs}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class Enclosure(Record):
    """Closed interval [lo, hi] certified to contain a real value."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Fraction | int, hi: Fraction | int):
        if not isinstance(lo, Fraction):
            lo = Fraction(lo)
        if not isinstance(hi, Fraction):
            hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(x: Fraction | int) -> "Enclosure":
        x = Fraction(x)
        return Enclosure(x, x)

    @staticmethod
    def of(x) -> "Enclosure":
        return x if isinstance(x, Enclosure) else Enclosure.point(x)

    # -- structure ---------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(min(self.lo, other.lo), max(self.hi, other.hi))

    def ratio(self) -> tuple[int, int, int]:
        """Integers (lo, hi, den), den > 0, with [lo/den, hi/den] = self."""
        den = math.lcm(self.lo.denominator, self.hi.denominator)
        return (self.lo.numerator * (den // self.lo.denominator),
                self.hi.numerator * (den // self.hi.denominator), den)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __add__(self, other) -> "Enclosure":
        o = Enclosure.of(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        o = Enclosure.of(other)
        return Enclosure(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other) -> "Enclosure":
        return Enclosure.of(other) - self

    def __mul__(self, other) -> "Enclosure":
        """Product interval from the endpoint signs (Moore's nine cases).

        Each endpoint of the product is one endpoint product, picked by the
        signs of the factors, so a sign-definite factor costs two products
        instead of the min and max of four; only when 0 is interior to both
        factors are all four formed.
        """
        o = Enclosure.of(other)
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        if a >= 0:
            if c >= 0:
                return Enclosure(a * c, b * d)
            if d <= 0:
                return Enclosure(b * c, a * d)
            return Enclosure(b * c, b * d)
        if b <= 0:
            if c >= 0:
                return Enclosure(a * d, b * c)
            if d <= 0:
                return Enclosure(b * d, a * c)
            return Enclosure(a * d, a * c)
        if c >= 0:
            return Enclosure(a * d, b * d)
        if d <= 0:
            return Enclosure(b * c, a * c)
        return Enclosure(min(a * d, b * c), max(a * c, b * d))

    __rmul__ = __mul__

    def inverse(self) -> "Enclosure":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError(f"interval [{self.lo}, {self.hi}] contains 0")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Enclosure":
        return self * Enclosure.of(other).inverse()

    def __rtruediv__(self, other) -> "Enclosure":
        return Enclosure.of(other) * self.inverse()

    def __pow__(self, n: int) -> "Enclosure":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        if n == 0:
            return Enclosure.point(1)
        if n % 2 == 1 or self.lo >= 0:
            return Enclosure(self.lo ** n, self.hi ** n)
        if self.hi <= 0:
            return Enclosure(self.hi ** n, self.lo ** n)
        return Enclosure(Fraction(0), max(self.lo ** n, self.hi ** n))

    # -- rounding ----------------------------------------------------------

    def round_out(self, digits: int) -> "Enclosure":
        """Widen outward so endpoint denominators divide 10**digits."""
        return divide_round_out(self.ratio(), (1, 1, 1), digits)

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"

    def decimal_str(self, places: int = 20) -> str:
        def fmt(x: Fraction) -> str:
            scaled = x * 10 ** places
            n = scaled.numerator // scaled.denominator
            sign = "-" if n < 0 else ""
            n = abs(n)
            s = str(n).rjust(places + 1, "0")
            return f"{sign}{s[:-places]}.{s[-places:]}"

        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


def divide_round_out(num, den, digits: int) -> Enclosure:
    """num / den rounded outward to multiples of 10**-digits, on integers:
    (lo, hi, q) is [lo/q, hi/q], q > 0, and den > 0.  Moore's rule picks
    each quotient end by the sign of the numerator end, so each is one exact
    ratio, floored or ceiled once; a difference is a quotient by (1, 1, 1)."""
    (lo, hi, q), (dlo, dhi, dq) = num, den
    if dlo <= 0:
        raise ZeroDivisionError(f"divisor {den} is not positive")
    scale = 10 ** digits
    lo = lo * dq * scale // (q * (dhi if lo >= 0 else dlo))
    hi = -(-hi * dq * scale // (q * (dlo if hi >= 0 else dhi)))
    return Enclosure(Fraction(lo, scale), Fraction(hi, scale))
