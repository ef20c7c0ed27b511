"""Completely-monotonic-degree analysis of the exponential/trigamma gap.

Symbolic derivative tower for expressions built from t^a, e^(beta/t) and
polygamma atoms, on integer rows for every derivative taken here, summed at
each point from one table of exact integer endpoints shared by the point's
whole column, whose polygamma orders come from one integer jet;
sign-enclosure degree checks on grids built here, the violation search above
the degree; the p(t) -> 4 asymptotic; Laplace-kernel certificates and the
counterexample scan; and exact termwise transform identities.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _json_str
from collections import defaultdict
from fractions import Fraction

from .enclosure import (DIGIT_CAP, Enclosure, Record, bits, check_range,
                        check_work, divide_round_out, integer_nth_root,
                        refine, to_fraction, work, worst)
from . import expring, specfun


class PointTable(dict):
    """Exact integer endpoints of t^p and of the atoms at one point t > 0.

    table[d, key], computed on first use, serves every order at (t, d).  A
    key ("pow", u, v) holds (lo, hi, den) for [lo/den, hi/den] around
    t^(u/v): exact for v = 1, else r and r + 1 over 10**(d+8), r the v-th
    root of floor(t^u 10**(v(d+8))).  An atom key holds (lo, hi) for
    [lo, hi] 10**-(d+12) around an enclosure at d + 8 digits: e^(beta/t)
    floored at lo and ceiled at hi, or one `specfun.polygamma_jet` filling
    every psi order up to `psi_top` at the first psi miss, scaled exactly
    from its grid 10**-(d+9).
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
            lo, hi, den = specfun.exp_enclosure(Fraction(*args) / self.t,
                                                digits + 8).ratio()
            value = (lo * scale // den, -(-hi * scale // den))
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


def _cell(rows, digits: int, table: PointTable) -> Enclosure:
    """The rows' sum at table.t, rounded out at digits + 1 from the ends of
    `_ends`."""
    lo, hi = _ends(rows, digits, table)
    return divide_round_out((lo, hi, 10 ** (digits + 12)), (1, 1, 1),
                            digits + 1)


def _psi_top(rows) -> int:
    """The highest psi order among the rows' atoms, 0 without one."""
    return max([a[1] for *_, a in rows if a[0] == "psi"] + [0])


class CMExpression(Record):
    """Finite sum of coef * t^power * atom terms, closed under d/dt.

    An atom is ("const",), ("exp", beta) for e^(beta/t) or ("psi", n).
    """

    __slots__ = _fields = ("terms",)  # ((coef, power, atom), ...) canonical

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

    def mul_power(self, a) -> "CMExpression":
        a = to_fraction(a)
        return CMExpression.of([(c, p + a, at) for c, p, at in self.terms])

    def derivative(self) -> "CMExpression":
        """d/dt on Fractions: the tests' reference for `_derivative_rows`."""
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

    def evaluate(self, t, digits: int) -> Enclosure:
        """Enclosure of the expression at t > 0, rounded out at digits + 1,
        from a `PointTable` at t up to the highest psi order; see `_cell`."""
        t = to_fraction(t)
        if t <= 0:
            raise ValueError("expressions are evaluated on t > 0 only")
        rows = _derivative_rows(self, 0, 0)[0]
        return _cell(rows, digits, PointTable(t, _psi_top(rows)))


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

    def to_json(self) -> str:
        """json.dumps(..., indent=2) of the report, written directly: with
        an indent, json.dumps always runs the pure-Python encoder."""
        grid = [f'"{t}"' for t in self.grid]
        cells = [f'{{\n      "n": {c.n},\n      "t": "{c.t}",\n'
                 f'      "lo": "{c.value.lo}",\n      "hi": "{c.value.hi}",\n'
                 f'      "verdict": {_json_str(c.verdict)}\n    }}'
                 for c in self.cells]
        return (f'{{\n  "function": {_json_str(self.function)},\n'
                f'  "r": "{self.r}",\n  "N": {self.N},\n'
                f'  "grid": {_json_list(grid)},\n'
                f'  "cells": {_json_list(cells)},\n'
                f'  "summary": {_json_str(self.summary)},\n'
                f'  "note": "finite-order evidence only, not a proof of '
                f'complete monotonicity"\n}}')


def _json_list(items: list) -> str:
    """A JSON list of encoded items at the second level of indent=2."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _sign_definite(evaluate, digits: int):
    """(value, verdict) of evaluate(d), refined until sign-definite.

    The verdict is pass for a value >= 0, fail for a value < 0, and
    indeterminate when the value still meets 0 at DIGIT_CAP digits.
    """
    val, _ = refine(evaluate, digits, lambda v: v.lo >= 0 or v.hi < 0)
    return val, ("pass" if val.lo >= 0 else
                 "fail" if val.hi < 0 else "indeterminate")


def geometric_grid(lo, hi, count: int):
    """Deterministic rational grid, approximately geometric, made lazily."""
    lo, hi = to_fraction(lo), to_fraction(hi)
    check_range("count --grid", count, 1)
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if count == 1:
        return iter([lo])
    ratio = float(hi / lo) ** (1.0 / (count - 1))
    # nearby clean rationals; exactness of the probe point is all we need
    return (lo if i == 0 else hi if i == count - 1 else
            Fraction(float(lo) * ratio ** i).limit_denominator(10 ** 6)
            for i in range(count))


def linear_grid(lo, hi, count: int):
    lo, hi = to_fraction(lo), to_fraction(hi)
    check_range("count --grid", count, 1)
    step = (hi - lo) / max(count - 1, 1)
    return (lo + i * step for i in range(count))


def scan_points(points, price, flags: str, total: int = 0) -> list:
    """The points as positive Fractions, each one's price(t) added to a
    running total from `total` as it is taken: a point that takes the total
    past the budget is refused before it is evaluated or another is made."""
    pts = []
    for t in map(to_fraction, points):
        if t <= 0:
            raise ValueError(f"point {t} is not positive")
        total += price(t)
        check_work(flags, total)
        pts.append(t)
    if not pts:
        raise ValueError("the grid has no points")
    return pts


def _signed_cell(rows, n: int, t: Fraction, digits: int,
                 table: PointTable) -> DegreeCell:
    """The order-n cell of the rows' sum at t, whose sign the rows carry."""
    return DegreeCell(n, t, *_sign_definite(lambda d: _cell(rows, d, table),
                                            digits))


def _derivative_rows(f: CMExpression, r: Fraction, N: int) -> list:
    """The rows (c numerator, c denominator, power key, atom key) of
    (t^r f)^(n), n = 0..N, in term order at n = 0, an exp atom's key
    ("exp", *beta.as_integer_ratio()): the rationals of repeated
    `CMExpression.derivative`, built on integers.

    An order is {(P, atom): C} for C/D t^(P/V) atom, V the lcm of the power
    denominators.  With L the lcm of the exp atoms' denominators, d/dt
    sends a term to C P L at P - V, -C beta L V at P - 2V for e^(beta/t)
    and C V L with psi^(n+1) for psi^(n), over D V L; like terms merge,
    zeros drop out, and each row reduces its coefficient and power."""
    terms = f.mul_power(r).terms
    V = math.lcm(1, *[p.denominator for _, p, _ in terms])
    D = math.lcm(1, *[c.denominator for c, _, _ in terms])
    L = math.lcm(1, *[a[1].denominator for *_, a in terms if a[0] == "exp"])
    order = {(p.numerator * (V // p.denominator),
              ("exp", *a[1].as_integer_ratio()) if a[0] == "exp" else a):
             c.numerator * (D // c.denominator) for c, p, a in terms}
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


def column_work(f: CMExpression, r, N: int, t: Fraction, digits=0) -> int:
    """Work of the orders 0..N of (t^r f)^(n) at t, to DIGIT_CAP + digits."""
    # at 8 digits more: the exp atoms, a psi jet, twice N + 2 orders of up
    # to N + 2 rows, each a product of t^p of P bits by an atom and a
    # coefficient of A bits, 4 (N + 2) powers t^u, and for v > 1 their v-th
    # roots, of about v Newton steps on v P bits
    v, d, m = r.denominator, DIGIT_CAP + digits + 8, N + 2
    R = N + 2 + abs(r.numerator) // v
    P = R * bits(t) + 4 * d
    A = 4 * d + m * (bits(t) + bits(r) + R.bit_length() + sum(
        bits(c) + bits(p) + sum(map(bits, a[1:])) for c, p, a in f.terms))
    return sum(specfun.exp_work(a[1] / t, d) if a[0] == "exp" else
               specfun.polygamma_work(a[1], N + a[1], t.numerator,
                                      t.denominator, d) if a[0] == "psi"
               else 0 for *_, a in f.terms) + work(2 * m * m, P, A) \
        + work(4 * m, P, P) + work(4 * m * (v > 1) * v, v * P, P)


def cm_check(f: CMExpression, r, N: int, grid, digits: int = 30,
             name: str = "f") -> DegreeReport:
    """Sign enclosures of (-1)^n (t^r f)^(n) on a grid for n = 0..N.

    The rows of each odd order are negated once, so every cell sums its
    own rows.  Each grid point's column of N + 1 orders is evaluated from one
    `PointTable`; the cells are reported order by order.  A pass at every
    cell is finite-order evidence for degree >= r, never a proof; a fail
    cell carries an enclosure strictly violating the sign.
    """
    check_range("order --orders", N, 1)
    r = to_fraction(r)
    pts = scan_points(grid, lambda t: column_work(f, r, N, t),
                      "--orders/--r/--grid")
    tower = [rows if n % 2 == 0 else tuple((-c, *rest) for c, *rest in rows)
             for n, rows in enumerate(_derivative_rows(f, r, N))]
    columns = []
    for t in pts:
        table = PointTable(t, _psi_top(tower[-1]))
        columns.append([_signed_cell(rows, n, t, digits, table)
                        for n, rows in enumerate(tower)])
    cells = [column[n] for n in range(N + 1) for column in columns]
    return DegreeReport(function=name, r=r, N=N, grid=pts, cells=cells,
                        summary=worst(c.verdict for c in cells))


def find_degree_violation(f: CMExpression, r, t_lo, t_hi, digits: int = 30):
    """Scan t upward in octaves for a sign-definite first-derivative violation.

    Complete monotonicity of t^r f needs (t^r f)' <= 0 everywhere; returns
    (t, enclosure) at the first point where the derivative is certifiably
    positive, or None when the scan finds nothing.
    """
    t = to_fraction(t_lo)
    if t <= 0:
        raise ValueError("expressions are evaluated on t > 0 only")
    t_hi = to_fraction(t_hi)
    d1 = _derivative_rows(f, r, 1)[1]
    while t <= t_hi:
        table = PointTable(t, _psi_top(d1))
        value, _ = refine(lambda d: _cell(d1, d, table), digits,
                          lambda v: v.lo > 0 or v.hi <= 0)
        if value.lo > 0:
            return t, value
        t *= 2
    return None


# -- the p(t) asymptotic ----------------------------------------------------


def p_value(t, digits: int = 15) -> Enclosure:
    """Enclosure of p(t) = -t h'(t) / h(t), h = `h_expression()`.

    Numerator and denominator both collapse to O(t^-3) at large t, so the
    numerator's relative error is about t^5 10^-d: the working precision d
    starts at 5 digits per decade of t, found with integers, and doubles up
    to DIGIT_CAP + digits until the result is at most 10^-digits wide.
    h and h' are rows of `_derivative_rows`, and -t h' is h' with each
    coefficient negated and each power raised by one, both summed by `_cell`
    on one `PointTable`, whose psi' and psi'' come from one polygamma jet.
    """
    t = to_fraction(t)
    if t <= 0:
        raise ValueError("t must be > 0")
    decades = 0  # smallest e >= 0 with 10^e >= t
    while 10 ** decades < t:
        decades += 1
    h, dh = _derivative_rows(h_expression(), 0, 1)
    minus_t_dh = [(-c, c_den, ("pow", u + v, v), atom)
                  for c, c_den, (_, u, v), atom in dh]
    table = PointTable(t, 2)

    def within_width(d: int) -> Enclosure | None:
        """p(t) from d digits if it is 10^-digits wide, else None; h > 0 on
        (0, oo), so the divisor is settled once its enclosure's lo is > 0."""
        den = _cell(h, d, table).ratio()
        p = den[0] > 0 and divide_round_out(
            _cell(minus_t_dh, d, table).ratio(), den, digits + 1)
        return p if p and p.width * 10 ** digits <= 1 else None

    p, d = refine(within_width, digits + 10 + 5 * decades, bool,
                  DIGIT_CAP + digits)
    if p is None:
        raise ArithmeticError(f"p({t}) not enclosed to width 10^-{digits}"
                              f" at {d} digits")
    return p


# -- Laplace-kernel certificates -------------------------------------------


def kernel_margin(k: int, u, digits: int) -> Enclosure:
    """i_k(u) - kernel^(k-1)(u), the integrand margin of the k-th certificate."""
    a, b, q = specfun.bessel_ratio(k, u, digits + 4).ratio()
    c, d, r = expring.eval_enclosure(expring.kernel_derivative(k - 1), u,
                                     digits + 4).ratio()
    return divide_round_out((a * r - d * q, b * r - c * q, q * r), (1, 1, 1),
                            digits + 1)


def _margin_cells(k: int, grid, digits: int):
    """The grid's points, once the budget admits a margin at each, and
    (u, margin, verdict) at each in turn, refined by `_sign_definite`."""
    top = max(digits, DIGIT_CAP) + 4
    pts = scan_points(grid, lambda u: specfun.bessel_work(k, u, top)
                      + expring.eval_work(k, u, top), "--k/--grid",
                      work(k * k, k * k.bit_length()))
    return pts, ((u, *_sign_definite(lambda d: kernel_margin(k, u, d),
                                     digits)) for u in pts)


def kernel_certificate(k: int, grid, digits: int = 20) -> dict:
    """Grid certificate of i_k(u) >= kernel^(k-1)(u), plus the k=5 ray.

    For k = 5 the whole ray u >= 7 is certified through the exponential tail
    sum K_4(7): the fourth kernel derivative is sum k^3 (k u - 4) e^(-k u),
    at most u K_4(7) - 4 K_3(7) <= u K_4(7) for u >= 7 (each weight k(ku-4)
    is >= 0 and e^(-ku) <= e^(-7k) there), while i_5(u) >= (u + 6)/720 from
    its first two series terms; K_4(7) < 1/720 then gives u K_4(7) <
    (u + 6)/720 for every u > 0.
    """
    check_range("order --k", k, 1, 6)
    cells = [{"u": u, "margin": margin, "verdict": verdict}
             for u, margin, verdict in _margin_cells(k, grid, digits)[1]]
    report = {"k": k, "cells": cells}
    verdicts = [c["verdict"] for c in cells]
    if k == 5:
        k4 = specfun.k_tail(4, 7, digits + 6)
        ray_ok = k4.hi < Fraction(1, 720)
        report["ray"] = {"threshold": Fraction(1, 720), "K4_at_7": k4,
                         "certified": ray_ok, "from": Fraction(7)}
        # an uncertified ray proves nothing either way
        verdicts.append("pass" if ray_ok else "indeterminate")
    report["verdict"] = worst(verdicts)
    report["passed"] = report["verdict"] == "pass"
    return report


def conjecture_scan(k: int, grid, digits: int = 20) -> dict:
    """The first grid point where the order-k inequality certifiably fails,
    each margin refined as `kernel_certificate` refines it; and the grid."""
    check_range("order --k", k, 1)
    counterexample = None
    margins = []
    pts, cells = _margin_cells(k, grid, digits)
    for u, margin, verdict in cells:
        margins.append((u, margin))
        if verdict == "fail":
            counterexample = {"u": u, "margin": margin}
            break
    return {"k": k, "counterexample": counterexample, "margins": margins,
            "grid": pts}


# -- exact transform identities --------------------------------------------

def _transform_weight(m: int) -> int:
    """The transform rule t^m -> m!/z^(m+1) as the weight m! of t^m."""
    return math.factorial(m)


def verify_identity(k: int, N: int) -> dict:
    """Exact termwise check of the truncated-exponential transform identities.

    Matches coefficients of z^-j on integers.  The left side is the series
    of e^(1/z) minus its first k + 1 terms: 1/T_i with T_i = (k+1+i)! from
    the running product.  The right side applies the transform rule
    t^m -> w(m)/z^(m+1) to integrand coefficients 1/D, each D built from
    its term ratios, so each comparison 1/D w(m) = 1/T_i is w(m) T_i = D:
    (a) z^-(k+1) [1/(k+1)! + transform of sum_m t^m/(m!(m+k+2)!)], the
    order-(k+2) Bessel ratio; (b) the transform of the 1F2 form
    t^k 1F2(1; k+1, k+2; t)/(k!(k+1)!).
    """
    check_range("order --k", k, 0)
    check_range("count --terms", N, 1)
    size = (k + N + 2) * (k + N + 2).bit_length()  # of T and the weights
    check_work("--k/--terms", work(4 * N + 8, size, size))
    T = math.factorial(k + 1)  # T_0, then T_i by the running product
    constant = Fraction(1, T)
    bessel, hyp = [], []
    d_bessel = math.factorial(k + 2)
    d_hyp = math.factorial(k) * math.factorial(k + 1)
    for i in range(N + 1):
        if _transform_weight(i + k) * T != d_hyp:
            hyp.append(("hyp", i))
        d_hyp *= (i + k + 1) * (i + k + 2)
        T *= i + k + 2
        if _transform_weight(i) * T != d_bessel:
            bessel.append(("bessel", i))
        d_bessel *= (i + 1) * (i + k + 3)
    mismatches = bessel + hyp
    return {"k": k, "N": N, "constant": constant, "passed": not mismatches,
            "mismatches": mismatches}
