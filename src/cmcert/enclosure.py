"""Interval arithmetic with exact rational endpoints.

An Enclosure is a closed interval [lo, hi] with Fraction endpoints that is
guaranteed to contain the true real value it stands for.  Certification
paths compute on integer triples and round once, outward, by
`divide_round_out`; `refine` doubles a precision until a decision settles,
and `worst` merges the three-way verdicts it leads to.
"""

from __future__ import annotations

import math
from fractions import Fraction


def to_fraction(x) -> Fraction:
    """Coerce an int or a Fraction to Fraction; text is read by `cli._rat`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# the three-way verdict in the words each layer prints, least severe first:
# a certified counterexample outranks an undecided check, which outranks a pass
VERDICT_RANK = {"pass": 0, "certified": 0, "indeterminate": 1,
                "inconclusive": 1, "fail": 2, "falsified": 2}


def worst(verdicts):
    """The most severe of a nonempty iterable of verdicts."""
    return max(verdicts, key=VERDICT_RANK.__getitem__)


# the most digits that `refine` doubles a working precision to
DIGIT_CAP = 150


def refine(evaluate, digits: int, decided, cap: int = DIGIT_CAP):
    """(value, d) with value = evaluate(d): d starts at digits and doubles,
    up to cap, until decided(value) holds or d reaches cap."""
    d = digits
    while not decided(value := evaluate(d)) and d < cap:
        d = min(2 * d, cap)
    return value, d


def bits(x: Fraction) -> int:
    """The bits of a rational's numerator and denominator together."""
    return x.numerator.bit_length() + x.denominator.bit_length()


def check_range(flag: str, value: int, lo: int, hi=None) -> None:
    """Refuse an integer option outside lo..hi (lo.. with no hi) at once."""
    if not lo <= value <= (value if hi is None else hi):
        raise ValueError(f"{flag} {value} is outside the supported range "
                         f"{lo}..{'' if hi is None else hi}")


# the most work one call may ask for, in word products: multiplying an
# a-bit by a b-bit integer costs (a/64 + 1)(b/64 + 1) of them, the
# schoolbook count of 64-bit word products (Brent and Zimmermann, Modern
# Computer Arithmetic, 1.3), and an interpreted operation 32 more; each
# `*_work` estimate counts them from the sizes of a call's inputs, and
# CHANGES.md gives the cold timings the budget is sized from
WORK_MAX = 10 ** 9


def work(ops: int, a: int, b: int = 0) -> int:
    """The work of ops operations on integers of a and b bits."""
    return ops * (32 + (a // 64 + 1) * (b // 64 + 1))


def check_work(flags: str, units: int) -> None:
    """Refuse, before anything is built, an estimate over WORK_MAX."""
    if units > WORK_MAX:
        check_range("work " + flags, units, 0, WORK_MAX)


def integer_nth_root(a: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer, exactly."""
    if a < 0 or n < 1:
        raise ValueError("integer_nth_root requires a >= 0, n >= 1")
    if a == 0:
        return 0
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
            lo = to_fraction(lo)
        if not isinstance(hi, Fraction):
            hi = to_fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(x: Fraction | int) -> "Enclosure":
        x = to_fraction(x)
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
        """The hull of the four endpoint products."""
        o = Enclosure.of(other)
        ends = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Enclosure(min(ends), max(ends))

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
        return f"[{self.lo}, {self.hi}]"

    def decimal_str(self, places: int = 20) -> str:
        """[lo, hi] in decimals, rounded outward to `places`, so the
        printed interval contains this one."""
        def fmt(x: Fraction) -> str:
            n = int(x * 10 ** places)
            s = str(abs(n)).rjust(places + 1, "0")
            return f"{'-' if n < 0 else ''}{s[:-places]}.{s[-places:]}"

        out = divide_round_out(self.ratio(), (1, 1, 1), places)
        return f"[{fmt(out.lo)}, {fmt(out.hi)}]"


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
