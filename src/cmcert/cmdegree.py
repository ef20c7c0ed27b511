"""Completely-monotonic-degree analysis of the exponential/trigamma gap.

Symbolic derivative tower for expressions built from t^a, e^(beta/t) and
polygamma atoms; sign-enclosure degree checks on grids; the p(t) -> 4
asymptotic scan; Laplace-kernel certificates; exact termwise transform
identities; and degree-condition classification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .enclosure import (Enclosure, format_rational, rational_power_enclosure,
                        to_fraction)
from . import specfun
from . import seriesratio
from .expring import eval_enclosure, kernel_derivative

DIGIT_CAP = 150

# atoms: ("const",) | ("exp", beta) | ("psi", n)
Atom = tuple


@lru_cache(maxsize=4096)
def _cached_polygamma(n: int, t: Fraction, digits: int) -> Enclosure:
    return specfun.polygamma(n, t, digits)


@lru_cache(maxsize=4096)
def _cached_exp(x: Fraction, digits: int) -> Enclosure:
    return specfun.exp_enclosure(x, digits)


def _eval_atom(atom: Atom, t: Fraction, digits: int) -> Enclosure:
    if atom[0] == "const":
        return Enclosure.point(1)
    if atom[0] == "exp":
        return _cached_exp(Fraction(atom[1], t), digits)
    if atom[0] == "psi":
        return _cached_polygamma(atom[1], t, digits)
    raise ValueError(f"unknown atom {atom!r}")


@dataclass(frozen=True)
class CMExpression:
    """Finite sum of coef * t^power * atom terms, closed under d/dt."""

    terms: tuple  # ((coef, power, atom), ...) canonical

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

    @staticmethod
    def zero() -> "CMExpression":
        return CMExpression.of([])

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

    def evaluate(self, t, digits: int) -> Enclosure:
        """Enclosure of the expression at t > 0, rounded out at digits + 1.

        t^p and the atoms are enclosed at digits + 8.  Each term c t^p A is
        rounded outward once to integers at scale 10**-(digits+12) and the
        lower and upper sums are two ints.  t^p >= 0, so each endpoint of
        t^p A is an endpoint of A times the endpoint of t^p that its sign
        selects, and c < 0 swaps the two.  The scale is decimal because the
        atoms sit on a 10**-(digits+9) grid: exact products stay exact.
        """
        t = to_fraction(t)
        if t <= 0:
            raise ValueError("expressions are evaluated on t > 0 only")
        scale = 10 ** (digits + 12)
        lo = hi = 0
        for c, p, atom in self.terms:
            tp = rational_power_enclosure(t, p, digits + 8)
            a = _eval_atom(atom, t, digits + 8)
            lo_a, lo_t = a.lo, (tp.lo if a.lo >= 0 else tp.hi)
            hi_a, hi_t = a.hi, (tp.hi if a.hi >= 0 else tp.lo)
            if c < 0:
                lo_a, lo_t, hi_a, hi_t = hi_a, hi_t, lo_a, lo_t
            num = c.numerator * scale
            lo += (num * lo_t.numerator * lo_a.numerator
                   // (c.denominator * lo_t.denominator * lo_a.denominator))
            hi -= (-num * hi_t.numerator * hi_a.numerator
                   // (c.denominator * hi_t.denominator * hi_a.denominator))
        return Enclosure(Fraction(lo, scale),
                         Fraction(hi, scale)).round_out(digits + 1)

    def pretty(self) -> str:
        def atom_str(atom):
            if atom[0] == "const":
                return ""
            if atom[0] == "exp":
                return f"*exp({format_rational(atom[1])}/t)"
            return f"*psi^({atom[1]})(t)"

        if not self.terms:
            return "0"
        return " + ".join(
            f"{format_rational(c)}*t^{format_rational(p)}{atom_str(a)}"
            for c, p, a in self.terms)


def h_expression(alpha=1, beta=1) -> CMExpression:
    """alpha e^(beta/t) - psi'(t) - alpha."""
    alpha, beta = to_fraction(alpha), to_fraction(beta)
    return CMExpression.of([
        (alpha, Fraction(0), ("exp", beta)),
        (Fraction(-1), Fraction(0), ("psi", 1)),
        (-alpha, Fraction(0), ("const",)),
    ])


# -- degree checks ----------------------------------------------------------


@dataclass(frozen=True)
class DegreeCell:
    n: int
    t: Fraction
    value: Enclosure
    verdict: str  # pass | fail | indeterminate


@dataclass(frozen=True)
class DegreeReport:
    function: str
    r: Fraction
    N: int
    grid: list
    cells: list
    summary: str  # pass | fail | indeterminate

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "indeterminate": 2}[self.summary]

    def to_json(self) -> str:
        return json.dumps({
            "function": self.function,
            "r": format_rational(self.r),
            "N": self.N,
            "grid": [format_rational(t) for t in self.grid],
            "cells": [{
                "n": c.n,
                "t": format_rational(c.t),
                "lo": format_rational(c.value.lo),
                "hi": format_rational(c.value.hi),
                "verdict": c.verdict,
            } for c in self.cells],
            "summary": self.summary,
            "note": "finite-order evidence only, not a proof of complete "
                    "monotonicity",
        }, indent=2)


def _signed_cell(expr: CMExpression, n: int, t: Fraction, digits: int,
                 digit_cap: int) -> DegreeCell:
    d = digits
    while True:
        val = expr.evaluate(t, d) * ((-1) ** n)
        if val.lo >= 0:
            return DegreeCell(n, t, val, "pass")
        if val.hi < 0:
            return DegreeCell(n, t, val, "fail")
        if d >= digit_cap:
            return DegreeCell(n, t, val, "indeterminate")
        d = min(2 * d, digit_cap)


def cm_check(f: CMExpression, r, N: int, grid, digits: int = 30,
             digit_cap: int = DIGIT_CAP, name: str = "f") -> DegreeReport:
    """Sign enclosures of (-1)^n (t^r f)^(n) on a grid for n = 0..N.

    A pass at every cell is finite-order evidence for degree >= r, never a
    proof; a fail cell carries an enclosure strictly violating the sign.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    r = to_fraction(r)
    pts = [to_fraction(t) for t in grid]
    if any(t <= 0 for t in pts):
        raise ValueError("grid points must be positive")
    expr = f.mul_power(r)
    cells = []
    for n in range(N + 1):
        if n:
            expr = expr.derivative()
        for t in pts:
            cells.append(_signed_cell(expr, n, t, digits, digit_cap))
    if any(c.verdict == "fail" for c in cells):
        summary = "fail"
    elif any(c.verdict == "indeterminate" for c in cells):
        summary = "indeterminate"
    else:
        summary = "pass"
    return DegreeReport(function=name, r=r, N=N, grid=pts, cells=cells,
                        summary=summary)


def find_degree_violation(f: CMExpression, r, t_lo, t_hi, digits: int = 30,
                          digit_cap: int = DIGIT_CAP):
    """Scan t upward in octaves for a sign-definite first-derivative violation.

    Complete monotonicity of t^r f needs (t^r f)' <= 0 everywhere; returns
    (t, enclosure) at the first point where the derivative is certifiably
    positive, or None when the scan finds nothing.
    """
    r = to_fraction(r)
    t = to_fraction(t_lo)
    t_hi = to_fraction(t_hi)
    d1 = f.mul_power(r).derivative()
    while t <= t_hi:
        cell = _signed_cell(d1, 1, t, digits, digit_cap)
        if cell.verdict == "fail":
            # (-1)^1 * derivative certifiably negative => derivative > 0
            return t, -cell.value
        t *= 2
    return None


# -- the p(t) asymptotic ----------------------------------------------------


def p_value(t, digits: int = 15) -> Enclosure:
    """Enclosure of (t^2 psi''(t) + e^(1/t)) / (t [e^(1/t) - psi'(t) - 1]).

    Numerator and denominator both collapse to O(t^-3) at large t, so the
    numerator's relative error is about t^5 10^-d: the working precision d
    starts at 5 digits per decade of t, found with integers, and doubles
    until the result is at most 10^-digits wide.
    """
    t = to_fraction(t)
    if t <= 0:
        raise ValueError("t must be > 0")
    decades = 0  # smallest e >= 0 with 10^e >= t
    while 10 ** decades < t:
        decades += 1
    d = digits + 10 + 5 * decades
    tol = Fraction(1, 10 ** digits)
    while True:
        e = specfun.exp_enclosure(Fraction(1, 1) / t, d)
        num = t * t * specfun.polygamma(2, t, d) + e
        den = t * (e - specfun.polygamma(1, t, d) - 1)
        if not (den.lo <= 0 <= den.hi):
            p = (num / den).round_out(digits + 1)
            if p.width <= tol:
                return p
        if d >= DIGIT_CAP + digits:
            raise ArithmeticError(f"p({t}) not enclosed to width 10^-{digits}"
                                  f" at {d} digits")
        d *= 2


def p_limit_scan(t_values, digits: int = 15) -> list:
    return [p_value(t, digits) for t in t_values]


# -- Laplace-kernel certificates -------------------------------------------


def kernel_margin(k: int, u, digits: int) -> Enclosure:
    """i_k(u) - kernel^(k-1)(u), the integrand margin of the k-th certificate."""
    u = to_fraction(u)
    ik = specfun.bessel_ratio(k, u, digits + 4)
    kd = eval_enclosure(kernel_derivative(k - 1), u, digits + 4)
    return (ik - kd).round_out(digits + 1)


def kernel_certificate(k: int, grid, digits: int = 20,
                       digit_cap: int = DIGIT_CAP) -> dict:
    """Grid certificate of i_k(u) >= kernel^(k-1)(u), plus the k=5 ray.

    For k = 5 the whole ray u >= 7 is certified through the exponential tail
    sums K_l(a): the fourth kernel derivative is sum k^3 (k u - 4) e^(-k u),
    bounded above termwise by u K_4(7) - 4 K_3(7) for u >= 7 (each weight
    k(ku-4) >= 0 there), while i_5(u) >= (u + 6)/720 from its first two
    series terms; K_4(7) < 1/720 closes the comparison for every u > 0.
    """
    if not 1 <= k <= 6:
        raise ValueError("supported orders are 1..6")
    pts = [to_fraction(u) for u in grid]
    if any(u <= 0 for u in pts):
        raise ValueError("grid points must be positive")
    cells = []
    for u in pts:
        d = digits
        while True:
            margin = kernel_margin(k, u, d)
            if margin.lo >= 0:
                cells.append({"u": u, "margin": margin, "verdict": "pass"})
                break
            if margin.hi < 0:
                cells.append({"u": u, "margin": margin, "verdict": "fail"})
                break
            if d >= digit_cap:
                cells.append({"u": u, "margin": margin,
                              "verdict": "indeterminate"})
                break
            d = min(2 * d, digit_cap)
    report = {
        "k": k,
        "cells": cells,
        "passed": all(c["verdict"] == "pass" for c in cells),
    }
    if k == 5:
        k4 = specfun.k_tail(4, 7, digits + 6)
        k3 = specfun.k_tail(3, 7, digits + 6)
        ray_ok = k4.hi < Fraction(1, 720)
        report["ray"] = {
            "threshold": Fraction(1, 720),
            "K4_at_7": k4,
            "K3_at_7": k3,
            "certified": ray_ok,
            "from": Fraction(7),
        }
        report["passed"] = report["passed"] and ray_ok
    return report


def conjecture_scan(k: int, grid, digits: int = 20) -> dict:
    """Search a grid for a sign-definite violation of the order-k inequality."""
    pts = [to_fraction(u) for u in grid]
    counterexample = None
    margins = []
    for u in pts:
        margin = kernel_margin(k, u, digits)
        margins.append((u, margin))
        if margin.hi < 0 and counterexample is None:
            counterexample = {"u": u, "margin": margin}
    return {"k": k, "counterexample": counterexample, "margins": margins}


# -- exact transform identities --------------------------------------------


def verify_identity(k: int, N: int) -> dict:
    """Exact termwise check of the truncated-exponential transform identities.

    Matches coefficients of z^-(m+1) on both sides using the transform rule
    t^m -> m!/z^(m+1): (a) the order-(k+2) Bessel-ratio form, constant
    1/(k+1)! plus tail coefficients 1/(m+k+2)!; (b) the 1F2 form, where each
    reassembled coefficient must collapse to 1/(n+k+1)!.
    """
    if k < 0 or N < 1:
        raise ValueError("need k >= 0 and N >= 1")
    mismatches = []
    # left side: e^(1/z) - sum_{m<=k} z^-m/m! = z^-(k+1) [1/(k+1)!
    #            + sum_{m>=0} z^-(m+1)/(m+k+2)!]
    constant = Fraction(1, math.factorial(k + 1))
    if constant != Fraction(1, math.factorial(k + 1)):
        mismatches.append(("constant", k))
    for m in range(N + 1):
        lhs = Fraction(1, math.factorial(m + k + 2))
        # integrand series term t^m/(m!(m+k+2)!) transforms to
        # (m!/z^(m+1)) / (m!(m+k+2)!)
        rhs = Fraction(math.factorial(m),
                       math.factorial(m) * math.factorial(m + k + 2))
        if lhs != rhs:
            mismatches.append(("bessel", m))

    def pochhammer(a: int, n: int) -> int:
        out = 1
        for i in range(n):
            out *= a + i
        return out

    for n in range(N + 1):
        coeff = (Fraction(1, math.factorial(k) * math.factorial(k + 1))
                 * Fraction(pochhammer(1, n),
                            pochhammer(k + 1, n) * pochhammer(k + 2, n)
                            * math.factorial(n))
                 * math.factorial(n + k))
        if coeff != Fraction(1, math.factorial(n + k + 1)):
            mismatches.append(("hyp", n))
    return {"k": k, "N": N, "constant": constant,
            "passed": not mismatches, "mismatches": mismatches}


# -- two-path consistency checks -------------------------------------------


def _laplace_tail_sum(t: Fraction, digits: int) -> Enclosure:
    """Enclosure of sum_{n>=1} 1/(n! t^n) = e^(1/t) - 1 by direct summation."""
    tol = Fraction(1, 10 ** (digits + 1))
    term = Fraction(1)
    total = Fraction(0)
    n = 0
    while True:
        n += 1
        term /= n * t
        total += term
        ratio = Fraction(1, (n + 1) * t)
        if ratio < Fraction(1, 2) and term * ratio / (1 - ratio) < tol:
            tail = term * ratio / (1 - ratio)
            break
    return Enclosure(total, total + tail)


def h_kernel_check(grid, digits: int = 12) -> dict:
    """Consistency battery for the transform representation of the gap h.

    (i) margin i_1(u) - kernel(u) >= 0 on the grid; (ii) h(t) > 1 at small t;
    (iii) h(t) - 1 computed two independent ways at t in {1, 2}: directly
    via the asymptotic polygamma route, and through the termwise transform
    route sum 1/(n! t^n) - [Hurwitz series for psi'(t)], agreeing within
    10^-6; (iv) h(100) - 1 in (0, 10^-2).
    """
    pts = [to_fraction(u) for u in grid]
    margins = [(u, kernel_margin(1, u, digits)) for u in pts]
    margin_ok = all(m.lo >= 0 for _, m in margins)

    above_one = {}
    for t in (Fraction(1, 2), Fraction(1), Fraction(5)):
        h = specfun.exp_enclosure(1 / t, digits + 6) \
            - specfun.polygamma(1, t, digits + 6)
        above_one[t] = h.lo > 1

    two_path = {}
    for t in (Fraction(1), Fraction(2)):
        direct = specfun.exp_enclosure(1 / t, 14) \
            - specfun.polygamma(1, t, 14) - 1
        series = _laplace_tail_sum(t, 14) \
            - specfun.polygamma_series(1, t, 4000)
        gap = abs(direct.mid - series.mid)
        overlap = not (direct.hi < series.lo or series.hi < direct.lo)
        two_path[t] = {"direct": direct, "series": series,
                       "agree": overlap and gap < Fraction(1, 10 ** 6)}

    h100 = specfun.exp_enclosure(Fraction(1, 100), digits + 6) \
        - specfun.polygamma(1, 100, digits + 6) - 1
    limit_ok = h100.lo > 0 and h100.hi < Fraction(1, 100)

    passed = margin_ok and all(above_one.values()) and limit_ok \
        and all(v["agree"] for v in two_path.values())
    return {"margins": margins, "margin_ok": margin_ok,
            "h_above_one": above_one, "two_path": two_path,
            "h100_minus_1": h100, "limit_ok": limit_ok, "passed": passed}


# -- degree-condition classification ---------------------------------------


def degree_conditions_check(alpha, beta, digits: int = 20,
                            run_checks: bool = True) -> dict:
    """Classify (alpha, beta) per the degree theorems and test the verdict.

    Predicted degrees: 4 at (1,1); 2 at alpha*beta = 1 with beta > 1; 1 when
    alpha*beta > 1; "not CM" when alpha*beta < 1 or (alpha*beta = 1 with
    beta < 1).  When 0 < beta < 1 the unimodal maxima of both ratio
    functions are reported (the necessary conditions alpha*beta >= max F and
    alpha*beta^2 >= max G).  With run_checks, cm_check runs at the predicted
    degree (expect pass) and a violation search runs at degree + 1/2.
    """
    alpha, beta = to_fraction(alpha), to_fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("need alpha > 0 and beta > 0")
    ab = alpha * beta
    report: dict = {"alpha": alpha, "beta": beta, "alpha_beta": ab}

    if beta < 1:
        mf = seriesratio.unimodal_max(
            lambda u, d: seriesratio.f_beta(u, beta, d),
            (Fraction(1, 10), 60), Fraction(1, 20), digits=digits)
        mg = seriesratio.unimodal_max(
            lambda u, d: seriesratio.g_beta(u, beta, d),
            (Fraction(1, 10), 60), Fraction(1, 20), digits=digits)
        report["max_F"] = mf.value
        report["max_G"] = mg.value

    if ab < 1:
        predicted: Optional[Fraction] = None
        report["predicted"] = "not CM"
    elif alpha == 1 and beta == 1:
        predicted = Fraction(4)
        report["predicted"] = predicted
        report["transform_constant"] = Fraction(1, 24)
    elif ab == 1 and beta > 1:
        predicted = Fraction(2)
        report["predicted"] = predicted
        report["transform_constant"] = (beta - 1) / 2
    elif ab > 1:
        predicted = Fraction(1)
        report["predicted"] = predicted
        report["transform_constant"] = ab - 1
    else:  # ab == 1, beta < 1
        predicted = None
        report["predicted"] = "not CM"

    if run_checks and predicted is not None:
        grid = seriesratio.geometric_grid(Fraction(1, 2), 50, 8)
        report["check_at_predicted"] = cm_check(
            h_expression(alpha, beta), predicted, 4, grid, digits=digits,
            name=f"gap(alpha={alpha},beta={beta})")
        report["violation_above"] = find_degree_violation(
            h_expression(alpha, beta), predicted + Fraction(1, 2),
            Fraction(1), 10 ** 7, digits=digits)
    return report


# -- remark functions -------------------------------------------------------


def remark_functions() -> dict:
    """Exact assembly of the two remark expressions and their bookkeeping.

    Builds x^4[e^(1/x) - 1 - psi'(x)] minus the eight-term truncated
    exponential and checks that the residual constants come out exactly as
    -1/24 - 1/(24x) - 1/720x^2 + 17/(720x^3); returns both remark
    expressions ready for cm_check.
    """
    one = CMExpression.of([(1, 0, ("const",))])
    exp_part = CMExpression.of([(1, 0, ("exp", Fraction(1)))])
    psi1 = CMExpression.of([(1, 0, ("psi", 1))])
    core = exp_part - one - psi1  # e^(1/x) - 1 - psi'(x)

    g2 = core.mul_power(2)
    g4_raw = core.mul_power(4)

    # transform image of the order-3 remainder kernel
    series_part = CMExpression.of(
        [(1, -1, ("const",)), (Fraction(1, 2), -2, ("const",)),
         (Fraction(1, 6), -3, ("const",)), (Fraction(-1, 30), -5, ("const",)),
         (Fraction(1, 42), -7, ("const",))]) - psi1
    trunc = CMExpression.of(
        [(Fraction(-1, math.factorial(m)), -m, ("const",))
         for m in range(1, 8)])
    exp_tail = exp_part - one + trunc  # e^(1/x) - sum_{m<=7} x^-m/m!
    assembled = (series_part + exp_tail).mul_power(4)

    residue = assembled - g4_raw
    expected = CMExpression.of([
        (Fraction(-1, 24), 0, ("const",)),
        (Fraction(-1, 24), -1, ("const",)),
        (Fraction(-1, 720), -2, ("const",)),
        (Fraction(17, 720), -3, ("const",)),
    ])
    bookkeeping_ok = (residue - expected).is_zero()

    g4 = g4_raw + CMExpression.of([
        (Fraction(-1, 24), 0, ("const",)),
        (Fraction(17, 720), -3, ("const",)),
    ])
    return {"g2": g2, "g4": g4, "bookkeeping_ok": bookkeeping_ok,
            "residue": residue}


def remark_vn_degree_check(digits: int = 20) -> dict:
    """Degree evidence for the remark functions plus remainder cross-checks.

    Runs cm_check (N = 6) on x^2[e^(1/x) - 1 - psi'(x)] and on the shifted
    x^4 variant; verifies pointwise that u^4 V_1(u) = 1 + u/2 + u^2/12
    - kernel(u) through the independent remainder-series evaluator; and
    compares the transform value 1/x + 1/(2x^2) + 1/(6x^3) - psi'(x) at
    x = 2 along two evaluation routes to within 10^-6.
    """
    parts = remark_functions()
    grid = seriesratio.geometric_grid(Fraction(1, 2), 20, 7)
    rep2 = cm_check(parts["g2"], 0, 6, grid, digits=digits, name="remark-x2")
    rep4 = cm_check(parts["g4"], 0, 6, grid, digits=digits, name="remark-x4")

    # 8 digits keeps the remainder-series term count in the hundreds and is
    # far below the 10^-6 agreement target
    pointwise = []
    for u in (Fraction(1, 2), Fraction(1), Fraction(3)):
        lhs = u ** 4 * specfun.vn_remainder(1, u, 8)
        rhs = 1 + u / 2 + u * u / 12 \
            - eval_enclosure(kernel_derivative(0), u, 8)
        pointwise.append((u, lhs, rhs,
                          not (lhs.hi < rhs.lo or rhs.hi < lhs.lo)))

    x = Fraction(2)
    direct = Enclosure.point(1 / x + 1 / (2 * x * x) + 1 / (6 * x ** 3)) \
        - specfun.polygamma(1, x, 14)
    series = Enclosure.point(1 / x + 1 / (2 * x * x) + 1 / (6 * x ** 3)) \
        - specfun.polygamma_series(1, x, 4000)
    transform_gap = abs(direct.mid - series.mid)
    transform_ok = transform_gap < Fraction(1, 10 ** 6) and \
        not (direct.hi < series.lo or series.hi < direct.lo)

    passed = parts["bookkeeping_ok"] and rep2.summary == "pass" \
        and rep4.summary == "pass" and all(p[3] for p in pointwise) \
        and transform_ok
    return {"bookkeeping_ok": parts["bookkeeping_ok"], "x2_report": rep2,
            "x4_report": rep4, "pointwise_remainder": pointwise,
            "transform_value": direct, "transform_ok": transform_ok,
            "passed": passed}
