"""Completely-monotonic-degree analysis of the exponential/trigamma gap.

Symbolic derivative tower for expressions built from t^a, e^(beta/t) and
polygamma atoms, built on integer rows for the degree checks and summed at
each grid point from one table of exact integer endpoints shared by the
point's whole column, whose polygamma orders come from one integer jet;
sign-enclosure degree checks on grids and the violation search above the
degree; the p(t) -> 4 asymptotic; Laplace-kernel certificates and the
counterexample scan; and exact termwise transform identities.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _json_str
from collections import defaultdict
from fractions import Fraction
from functools import cached_property

from .enclosure import (Enclosure, Record, check_range, divide_round_out,
                        format_rational, integer_nth_root, to_fraction)
from . import expring, specfun

DIGIT_CAP = 150


class PointTable(dict):
    """Exact integer endpoints of t^p and of the atoms at one point t > 0.

    table[d, key], computed on first use, serves every order at (t, d).  A
    key ("pow", u, v) holds (lo, hi, den) for [lo/den, hi/den] around
    t^(u/v): exact for v = 1, else r and r + 1 over 10**(d+8), r the v-th
    root of floor(t^u 10**(v(d+8))).  An atom key holds (lo, hi) for
    [lo, hi] 10**-(d+12), scaled exactly from an enclosure at d + 8 digits
    (e^(beta/t), or one `specfun.polygamma_jet` filling every psi order up
    to `psi_top` at the first psi miss), whose grid is 10**-(d+9).
    """

    def __init__(self, t: Fraction, psi_top: int):
        super().__init__()
        self.t, self.psi_top = t, psi_top

    def __missing__(self, key):
        digits, (kind, *args) = key
        scale = 10 ** (digits + (12 if kind != "pow" else 8))
        if kind == "psi":
            n = args[0]
            jet = specfun.polygamma_jet(n, max(n, self.psi_top), self.t,
                                        digits + 8)
            for k, (lo, hi) in enumerate(jet, n):
                self.setdefault((digits, ("psi", k)), (lo * 1000, hi * 1000))
            return self[key]
        if kind == "pow":
            u, v = args
            num, den = self.t.numerator ** abs(u), self.t.denominator ** abs(u)
            num, den = (num, den) if u >= 0 else (den, num)
            if v == 1:
                value = (num, num, den)
            else:
                root = integer_nth_root(num * scale ** v // den, v)
                value = (root, root + 1, scale)
        elif kind == "exp":
            e = specfun.exp_enclosure(Fraction(*args) / self.t, digits + 8)
            value = (int(e.lo * scale), int(e.hi * scale))
        elif kind == "const":
            value = (scale, scale)
        else:
            raise ValueError(f"unknown atom {key[1]!r}")
        self[key] = value
        return value


def _ends(rows, digits: int, table: PointTable) -> tuple[int, int]:
    """Integers lo, hi: [lo, hi] 10**-(digits+12) encloses the sum of the
    rows (c numerator, c denominator, power key, atom key) at table.t.  As
    t^p >= 0, each end of c t^p A is an atom end times the end of t^p its
    sign selects (c < 0 swaps them), floored or ceiled by one division."""
    lo = hi = 0
    for c_num, c_den, p, atom in rows:
        t_lo, t_hi, den = table[digits, p]
        a_lo, a_hi = table[digits, atom]
        l = a_lo * (t_lo if a_lo >= 0 else t_hi)
        h = a_hi * (t_hi if a_hi >= 0 else t_lo)
        if c_num < 0:
            l, h = h, l
        den *= c_den
        lo += c_num * l // den
        hi -= -c_num * h // den
    return lo, hi


def _psi_top(rows) -> int:
    """The highest psi order among the rows' atoms, 0 without one."""
    return max([a[1] for *_, a in rows if a[0] == "psi"] + [0])


class CMExpression(Record):
    """Finite sum of coef * t^power * atom terms, closed under d/dt.

    An atom is ("const",), ("exp", beta) for e^(beta/t) or ("psi", n).
    Not slotted: `_rows` caches in the instance dict.
    """

    _fields = ("terms",)  # ((coef, power, atom), ...) canonical

    @staticmethod
    def of(raw) -> "CMExpression":
        merged: dict = {}
        for coef, power, atom in raw:
            coef, power = to_fraction(coef), to_fraction(power)
            key = (power, atom)
            merged[key] = merged.get(key, Fraction(0)) + coef
        items = tuple(sorted(
            ((c, p, a) for (p, a), c in merged.items() if c != 0),
            key=lambda t: (t[1], t[2])))
        return CMExpression(terms=items)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CMExpression") -> "CMExpression":
        return CMExpression.of(self.terms + other.terms)

    def __sub__(self, other: "CMExpression") -> "CMExpression":
        return self + other.scale(-1)

    def scale(self, c) -> "CMExpression":
        c = to_fraction(c)
        return CMExpression.of([(c * k, p, a) for k, p, a in self.terms])

    def mul_power(self, a) -> "CMExpression":
        a = to_fraction(a)
        return CMExpression.of([(c, p + a, at) for c, p, at in self.terms])

    def derivative(self) -> "CMExpression":
        out = []
        for c, p, atom in self.terms:
            if p != 0:
                out.append((c * p, p - 1, atom))
            if atom[0] == "exp":
                # d/dt e^(b/t) = -b t^-2 e^(b/t)
                out.append((-c * atom[1], p - 2, atom))
            elif atom[0] == "psi":
                out.append((c, p, ("psi", atom[1] + 1)))
        return CMExpression.of(out)

    @cached_property
    def _rows(self) -> tuple:
        """The terms as (c numerator, c denominator, power key, atom key)."""
        return tuple((c.numerator, c.denominator,
                      ("pow", p.numerator, p.denominator),
                      ("exp", a[1].numerator, a[1].denominator)
                      if a[0] == "exp" else a)
                     for c, p, a in self.terms)

    def evaluate(self, t, digits: int,
                 table: PointTable | None = None) -> Enclosure:
        """Enclosure of the expression at t > 0, rounded out at digits + 1,
        from `table`, a `PointTable` at t (a fresh one up to the highest psi
        order when none is given); see `_ends`."""
        t = to_fraction(t)
        if t <= 0:
            raise ValueError("expressions are evaluated on t > 0 only")
        table = PointTable(t, _psi_top(self._rows)) if table is None else table
        lo, hi = _ends(self._rows, digits, table)
        return divide_round_out((lo, hi, 10 ** (digits + 12)), (1, 1, 1),
                                digits + 1)


def h_expression(alpha=1, beta=1) -> CMExpression:
    """alpha e^(beta/t) - psi'(t) - alpha."""
    alpha, beta = to_fraction(alpha), to_fraction(beta)
    return CMExpression.of([
        (alpha, Fraction(0), ("exp", beta)),
        (Fraction(-1), Fraction(0), ("psi", 1)),
        (-alpha, Fraction(0), ("const",)),
    ])


# -- degree checks ----------------------------------------------------------


class DegreeCell(Record):
    # verdict: pass | fail | indeterminate
    __slots__ = _fields = ("n", "t", "value", "verdict")


class DegreeReport(Record):
    # summary: pass | fail | indeterminate
    __slots__ = _fields = ("function", "r", "N", "grid", "cells", "summary")

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "indeterminate": 2}[self.summary]

    def to_json(self) -> str:
        """json.dumps(..., indent=2) of the report, written directly: with
        an indent, json.dumps always runs the pure-Python encoder."""
        grid = [f'"{format_rational(t)}"' for t in self.grid]
        cells = [f'{{\n      "n": {c.n},\n'
                 f'      "t": "{format_rational(c.t)}",\n'
                 f'      "lo": "{format_rational(c.value.lo)}",\n'
                 f'      "hi": "{format_rational(c.value.hi)}",\n'
                 f'      "verdict": {_json_str(c.verdict)}\n    }}'
                 for c in self.cells]
        return (f'{{\n  "function": {_json_str(self.function)},\n'
                f'  "r": "{format_rational(self.r)}",\n  "N": {self.N},\n'
                f'  "grid": {_json_list(grid)},\n'
                f'  "cells": {_json_list(cells)},\n'
                f'  "summary": {_json_str(self.summary)},\n'
                f'  "note": "finite-order evidence only, not a proof of '
                f'complete monotonicity"\n}}')


def _json_list(items: list) -> str:
    """A JSON list of encoded items at the second level of indent=2."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _sign_definite(evaluate, digits: int):
    """(value, verdict) of evaluate(d), doubling d until sign-definite.

    The verdict is pass for a value >= 0, fail for a value < 0, and
    indeterminate when the value still meets 0 at DIGIT_CAP digits.
    """
    d = digits
    while True:
        val = evaluate(d)
        if val.lo >= 0:
            return val, "pass"
        if val.hi < 0:
            return val, "fail"
        if d >= DIGIT_CAP:
            return val, "indeterminate"
        d = min(2 * d, DIGIT_CAP)


def _grid_points(grid) -> list[Fraction]:
    """The grid as Fractions; an empty grid would pass vacuously."""
    pts = [to_fraction(t) for t in grid]
    if not pts:
        raise ValueError("the grid has no points")
    if any(t <= 0 for t in pts):
        raise ValueError("grid points must be positive")
    return pts


def _signed_cell(rows, n: int, t: Fraction, digits: int,
                 table: PointTable) -> DegreeCell:
    """The cell of (-1)^n times the rows' sum at t: an odd n swaps the ends."""
    def signed(d: int) -> Enclosure:
        lo, hi = _ends(rows, d, table)
        lo, hi = (-hi, -lo) if n % 2 else (lo, hi)
        return divide_round_out((lo, hi, 10 ** (d + 12)), (1, 1, 1), d + 1)

    return DegreeCell(n, t, *_sign_definite(signed, digits))


def _derivative_rows(f: CMExpression, r: Fraction, N: int) -> list:
    """The rows (see `CMExpression._rows`) of (t^r f)^(n), n = 0..N: the
    rationals of repeated `CMExpression.derivative`, built on integers.

    An order is {(P, atom): C} for C/D t^(P/V) atom, V the lcm of the power
    denominators.  With L the lcm of the exp atoms' denominators, d/dt
    sends a term to C P L at P - V, -C beta L V at P - 2V for e^(beta/t)
    and C V L with psi^(n+1) for psi^(n), over D V L; like terms merge,
    zeros drop out, and each row reduces its coefficient and power."""
    expr = f.mul_power(r)
    V = math.lcm(1, *[p.denominator for _, p, _ in expr.terms])
    D = math.lcm(1, *[c.denominator for c, _, _ in expr.terms])
    L = math.lcm(1, *[a[2] for *_, a in expr._rows if a[0] == "exp"])
    order = {(u * (V // v), atom): c_num * (D // c_den)
             for c_num, c_den, (_, u, v), atom in expr._rows}
    tower = []
    for n in range(N + 1):
        if n:
            merged = defaultdict(int)
            for (P, atom), C in order.items():
                if P:
                    merged[P - V, atom] += C * P * L
                if atom[0] == "exp":
                    merged[P - 2 * V, atom] -= C * atom[1] * (L // atom[2]) * V
                elif atom[0] == "psi":
                    merged[P, ("psi", atom[1] + 1)] += C * V * L
            order = {key: C for key, C in merged.items() if C}
            D *= V * L
        rows = []
        for (P, atom), C in order.items():
            g, h = math.gcd(C, D), math.gcd(P, V)
            rows.append((C // g, D // g, ("pow", P // h, V // h), atom))
        tower.append(tuple(rows))
    return tower


# cm_check's highest order N: 1.0-1.2 s cold on the default grid at r = 4
# (2 vCPUs), two thirds in `_ends` on exact t^p of up to 1,500 digits
CM_CHECK_MAX_ORDER = 90


def cm_check(f: CMExpression, r, N: int, grid, digits: int = 30,
             name: str = "f") -> DegreeReport:
    """Sign enclosures of (-1)^n (t^r f)^(n) on a grid for n = 0..N.

    Each grid point's column of N + 1 orders is evaluated from one
    `PointTable`; the cells are reported order by order.  A pass at every
    cell is finite-order evidence for degree >= r, never a proof; a fail
    cell carries an enclosure strictly violating the sign.
    """
    check_range("order --orders", N, 1, CM_CHECK_MAX_ORDER)
    r = to_fraction(r)
    pts = _grid_points(grid)
    tower = _derivative_rows(f, r, N)
    columns = []
    for t in pts:
        table = PointTable(t, _psi_top(tower[-1]))
        columns.append([_signed_cell(rows, n, t, digits, table)
                        for n, rows in enumerate(tower)])
    cells = [column[n] for n in range(N + 1) for column in columns]
    verdicts = {c.verdict for c in cells}
    summary = ("fail" if "fail" in verdicts else
               "indeterminate" if "indeterminate" in verdicts else "pass")
    return DegreeReport(function=name, r=r, N=N, grid=pts, cells=cells,
                        summary=summary)


def find_degree_violation(f: CMExpression, r, t_lo, t_hi, digits: int = 30):
    """Scan t upward in octaves for a sign-definite first-derivative violation.

    Complete monotonicity of t^r f needs (t^r f)' <= 0 everywhere; returns
    (t, enclosure) at the first point where the derivative is certifiably
    positive, or None when the scan finds nothing.
    """
    r = to_fraction(r)
    t = to_fraction(t_lo)
    if t <= 0:
        raise ValueError("expressions are evaluated on t > 0 only")
    t_hi = to_fraction(t_hi)
    d1 = f.mul_power(r).derivative()._rows
    while t <= t_hi:
        cell = _signed_cell(d1, 1, t, digits, PointTable(t, _psi_top(d1)))
        if cell.verdict == "fail":
            # (-1)^1 * derivative certifiably negative => derivative > 0
            return t, -cell.value
        t *= 2
    return None


# -- the p(t) asymptotic ----------------------------------------------------


def p_value(t, digits: int = 15) -> Enclosure:
    """Enclosure of p(t) = -t h'(t) / h(t), h = `h_expression()`.

    Numerator and denominator both collapse to O(t^-3) at large t, so the
    numerator's relative error is about t^5 10^-d: the working precision d
    starts at 5 digits per decade of t, found with integers, and doubles
    until the result is at most 10^-digits wide.  Both are evaluated from
    one `PointTable`, whose psi' and psi'' come from one polygamma jet.
    """
    t = to_fraction(t)
    if t <= 0:
        raise ValueError("t must be > 0")
    decades = 0  # smallest e >= 0 with 10^e >= t
    while 10 ** decades < t:
        decades += 1
    d = digits + 10 + 5 * decades
    tol = Fraction(1, 10 ** digits)
    h = h_expression()
    minus_t_dh = h.derivative().mul_power(1).scale(-1)
    table = PointTable(t, 2)
    while True:
        den = h.evaluate(t, d, table)
        if not (den.lo <= 0 <= den.hi):
            p = (minus_t_dh.evaluate(t, d, table) / den).round_out(digits + 1)
            if p.width <= tol:
                return p
        if d >= DIGIT_CAP + digits:
            raise ArithmeticError(f"p({t}) not enclosed to width 10^-{digits}"
                                  f" at {d} digits")
        d *= 2


# -- Laplace-kernel certificates -------------------------------------------


def kernel_margin(k: int, u, digits: int) -> Enclosure:
    """i_k(u) - kernel^(k-1)(u), the integrand margin of the k-th certificate."""
    a, b, q = specfun.bessel_ratio(k, u, digits + 4).ratio()
    c, d, r = expring.eval_enclosure(expring.kernel_derivative(k - 1), u,
                                     digits + 4).ratio()
    return divide_round_out((a * r - d * q, b * r - c * q, q * r), (1, 1, 1),
                            digits + 1)


def kernel_certificate(k: int, grid, digits: int = 20) -> dict:
    """Grid certificate of i_k(u) >= kernel^(k-1)(u), plus the k=5 ray.

    For k = 5 the whole ray u >= 7 is certified through the exponential tail
    sum K_4(7): the fourth kernel derivative is sum k^3 (k u - 4) e^(-k u),
    at most u K_4(7) - 4 K_3(7) <= u K_4(7) for u >= 7 (each weight k(ku-4)
    is >= 0 and e^(-ku) <= e^(-7k) there), while i_5(u) >= (u + 6)/720 from
    its first two series terms; K_4(7) < 1/720 then gives u K_4(7) <
    (u + 6)/720 for every u > 0.
    """
    if not 1 <= k <= 6:
        raise ValueError("supported orders are 1..6")
    pts = _grid_points(grid)
    cells = []
    for u in pts:
        margin, verdict = _sign_definite(lambda d: kernel_margin(k, u, d),
                                         digits)
        cells.append({"u": u, "margin": margin, "verdict": verdict})
    report = {
        "k": k,
        "cells": cells,
        "passed": all(c["verdict"] == "pass" for c in cells),
    }
    if k == 5:
        k4 = specfun.k_tail(4, 7, digits + 6)
        ray_ok = k4.hi < Fraction(1, 720)
        report["ray"] = {
            "threshold": Fraction(1, 720),
            "K4_at_7": k4,
            "certified": ray_ok,
            "from": Fraction(7),
        }
        report["passed"] = report["passed"] and ray_ok
    return report


# conjecture_scan's top order: 0.1 s on the default grid (order 80: 0.13 s)
CONJECTURE_MAX_ORDER = 50


def conjecture_scan(k: int, grid, digits: int = 20) -> dict:
    """Search a grid for a sign-definite violation of the order-k inequality."""
    check_range("order --k", k, 1, CONJECTURE_MAX_ORDER)
    pts = _grid_points(grid)
    counterexample = None
    margins = []
    for u in pts:
        margin = kernel_margin(k, u, digits)
        margins.append((u, margin))
        if margin.hi < 0 and counterexample is None:
            counterexample = {"u": u, "margin": margin}
    return {"k": k, "counterexample": counterexample, "margins": margins}


# -- exact transform identities --------------------------------------------


def _transform_weight(m: int) -> int:
    """The transform rule t^m -> m!/z^(m+1) as the weight m! of t^m."""
    return math.factorial(m)


def verify_identity(k: int, N: int) -> dict:
    """Exact termwise check of the truncated-exponential transform identities.

    Matches coefficients of z^-j.  The left side is the series of e^(1/z),
    its 1/j! from the running recurrence, minus its first k + 1 terms.  The
    right side applies the transform rule t^m -> m!/z^(m+1) to integrand
    coefficients built from their term ratios: (a) z^-(k+1) [1/(k+1)! +
    transform of sum_m t^m/(m!(m+k+2)!)], the order-(k+2) Bessel ratio;
    (b) the transform of the 1F2 form t^k 1F2(1; k+1, k+2; t)/(k!(k+1)!).
    """
    if k < 0 or N < 1:
        raise ValueError("need k >= 0 and N >= 1")
    tail, inv_fact = [], Fraction(1)  # tail[i] is 1/(k+1+i)!
    for j in range(1, N + k + 3):
        inv_fact /= j
        if j > k:
            tail.append(inv_fact)
    mismatches = []
    if tail[0] != Fraction(1, math.factorial(k + 1)):
        mismatches.append(("constant", k))
    coeff = Fraction(1, math.factorial(k + 2))
    for m in range(N + 1):
        if coeff * _transform_weight(m) != tail[m + 1]:
            mismatches.append(("bessel", m))
        coeff /= (m + 1) * (m + k + 3)
    coeff = Fraction(1, math.factorial(k) * math.factorial(k + 1))
    for n in range(N + 1):
        if coeff * _transform_weight(n + k) != tail[n]:
            mismatches.append(("hyp", n))
        coeff /= (n + k + 1) * (n + k + 2)
    return {"k": k, "N": N, "constant": tail[0],
            "passed": not mismatches, "mismatches": mismatches}
