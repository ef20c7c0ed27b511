"""Correctness checks for every benchmark invocation.

A check reads one invocation's exit code and standard output and returns a
list of problems; an empty list means the invocation is correct.  Verdicts
are read from the command's JSON output where it has one.  Enclosures are
compared with mpmath references by containment and by width, never by
printed bytes, so a change that moves endpoints but keeps them sound and
narrow still passes.  The exact-algebra outputs are recomputed along a route
of their own (power-series products, binomial Taylor shifts, polynomial
roots) rather than by calling cmcert.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from functools import cache

import mpmath

# Grid commands cap the CLI's default 60 digits at 40.
DIGITS = 40
GRID_COUNT = 25
CM_SAMPLE = 4                  # cm-check cells compared with mpmath per call
# cm-check promises a sign, not a width; this guard sits 10 digits above the
# widest cell seen (4e-36 relative at 40 digits) to catch silent widening.
CM_WIDTH = Fraction(1, 10 ** (DIGITS - 10))
PAPER_CHECKS = 11
UNIMODAL_SLACK = Fraction(1, 10 ** 4)


def to_fraction(x) -> Fraction:
    """The exact value of an mpmath number."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"non-finite reference {x}")
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _digits_of(x: Fraction) -> int:
    return max(0, math.ceil(math.log10(abs(x)))) if x else 0


class Reference:
    """mpmath reference values with an error estimate, cached by key.

    Each value is computed at two working precisions; twice their
    difference is its error bound, and the precision doubles until that
    bound is below the tolerance asked for.
    """

    def __init__(self):
        self._cache = {}

    def value(self, key, fn, magnitude: Fraction, tol: Fraction):
        hit = self._cache.get(key)
        if hit is not None and hit[1] <= tol:
            return hit
        dps = _digits_of(magnitude) + _digits_of(1 / tol) + 20
        while True:
            with mpmath.workdps(dps):
                a = to_fraction(+fn())
            with mpmath.workdps(dps + 20):
                b = to_fraction(+fn())
            err = 2 * abs(a - b) + Fraction(1, 10 ** (dps + 10))
            if err <= tol:
                self._cache[key] = (b, err)
                return b, err
            if dps > 4000:
                raise ArithmeticError(f"reference {key} did not converge")
            dps *= 2

    # -- the functions the workloads print -----------------------------

    @staticmethod
    def kernel_margin(k: int, u: Fraction):
        """i_k(u) - K^(k-1)(u), K(u) = u/(1 - e^-u)."""
        def fn():
            x = _mp(u)
            ik = mpmath.hyp0f1(k + 1, x) / mpmath.factorial(k)
            kd = mpmath.diff(lambda v: v / -mpmath.expm1(-v), x, k - 1)
            return ik - kd
        return fn

    @staticmethod
    def cm_cell(alpha, beta, r, n: int, t: Fraction):
        """(-1)^n (t^r (alpha e^(beta/t) - psi'(t) - alpha))^(n) by Leibniz."""
        def fn():
            a, b, rr, x = _mp(alpha), _mp(beta), _mp(r), _mp(t)
            # Taylor coefficients of e^(b/(x+h)) in h from E' = g' E
            g = [b * (-1) ** j / x ** (j + 1) for j in range(n + 1)]
            e = [mpmath.exp(g[0])] + [mpmath.mpf(0)] * n
            for m in range(1, n + 1):
                e[m] = mpmath.fsum(j * g[j] * e[m - j]
                                   for j in range(1, m + 1)) / m
            total = mpmath.mpf(0)
            for j in range(n + 1):
                hj = a * e[j] * mpmath.factorial(j) - mpmath.psi(j + 1, x)
                if j == 0:
                    hj -= a
                falling = mpmath.rf(rr - (n - j) + 1, n - j)
                total += mpmath.binomial(n, j) * falling \
                    * x ** (rr - (n - j)) * hj
            return (-1) ** n * total
        return fn

    @staticmethod
    def k_tail(ell: int, a: Fraction):
        """sum_{k>=1} k^ell e^(-k a)."""
        def fn():
            q = mpmath.exp(-_mp(a))
            tiny = mpmath.mpf(10) ** (-mpmath.mp.dps - 10)
            total, k = mpmath.mpf(0), 1
            while True:
                term = mpmath.mpf(k) ** ell * q ** k
                total += term
                if term < tiny:
                    return total
                k += 1
        return fn

    @staticmethod
    def unimodal_max(beta: Fraction):
        """max over u > 0 of K(u) / i_1(beta u)."""
        def fn():
            b = _mp(beta)

            def f(u):
                return u / -mpmath.expm1(-u) / mpmath.hyp0f1(2, b * u)
            return f(mpmath.findroot(lambda u: mpmath.diff(f, u), 5))
        return fn


def _excluded(name, lo, hi, ref, err):
    if ref + err < lo or ref - err > hi:
        return [f"{name}: enclosure [{float(lo):.6g}, {float(hi):.6g}] "
                f"excludes the reference {float(ref):.12g}"]
    return []


def _enclosure(name, lo, hi, ref: Reference, key, fn, width):
    """Containment of the reference and width <= `width`."""
    if lo > hi:
        return [f"{name}: inverted enclosure"]
    problems = []
    if hi - lo > width:
        problems.append(f"{name}: width {float(hi - lo):.3g} above "
                        f"{float(width):.3g}")
    tol = max(hi - lo, Fraction(1, 10 ** (DIGITS + 20))) / 100
    value, err = ref.value(key, fn, max(abs(lo), abs(hi)), tol)
    return problems + _excluded(name, lo, hi, value, err)


# -- one checker per command --------------------------------------------


def check_paper(params, out, ref, sample):
    lines = out.splitlines()
    passed = [ln for ln in lines if ln.startswith("[pass] ")]
    problems = []
    if len(passed) != PAPER_CHECKS or len(lines) != PAPER_CHECKS + 1:
        problems.append(f"{len(passed)} of {PAPER_CHECKS} checks passed")
    if not lines or lines[-1] != "summary: all checks passed":
        problems.append("summary line is not 'all checks passed'")
    unimodal = [ln for ln in passed if "unimodal maximum exceeds 1" in ln]
    if len(unimodal) != 1:
        return problems + ["no unimodal maximum line"]
    body = unimodal[0].rsplit("max in [", 1)[1].rstrip("]")
    lo, hi = (Fraction(s) for s in body.split(","))
    # decimal_str truncates, so the printed hi is read up to its last place
    hi += Fraction(1, 10 ** 6)
    if hi - lo > UNIMODAL_SLACK:
        problems.append(f"unimodal max: width {float(hi - lo):.3g}")
    value, err = ref.value(("unimodal", "1/2"),
                           Reference.unimodal_max(Fraction(1, 2)),
                           Fraction(2), Fraction(1, 10 ** 12))
    if not value > 1:
        problems.append("unimodal max: reference is not above 1")
    # the printed value encloses f at probe points below the maximum, so
    # lo may not exceed it, and hi must come within the bracket's slack
    problems += _excluded("unimodal max", lo, hi + UNIMODAL_SLACK, value,
                          err)
    return problems


def check_cm(params, out, ref, sample):
    doc = json.loads(out)
    alpha, beta, r = (Fraction(params[k]) for k in ("alpha", "beta", "r"))
    orders, count = params["orders"], params.get("count", GRID_COUNT)
    cells = doc["cells"]
    problems = []
    if len(cells) != (orders + 1) * count or len(doc["grid"]) != count:
        problems.append(f"{len(cells)} cells for {orders} orders x {count}")
    verdicts = set()
    for c in cells:
        lo, hi = Fraction(c["lo"]), Fraction(c["hi"])
        want = "pass" if lo >= 0 else "fail" if hi < 0 else "indeterminate"
        if c["verdict"] != want:
            problems.append(f"cell n={c['n']} t={c['t']}: verdict "
                            f"{c['verdict']} for [{lo}, {hi}]")
        verdicts.add(c["verdict"])
    summary = "fail" if "fail" in verdicts else \
        "indeterminate" if "indeterminate" in verdicts else "pass"
    expected = "pass" if params.get("expect_exit", 0) == 0 else "fail"
    if doc["summary"] != summary or summary != expected:
        problems.append(f"summary {doc['summary']}, cells say {summary}, "
                        f"expected {expected}")
    picked = sample.sample(cells, min(CM_SAMPLE, len(cells)))
    fails = [c for c in cells if c["verdict"] == "fail"]
    if fails:
        picked.append(sample.choice(fails))
    for c in picked:
        n, t = c["n"], Fraction(c["t"])
        lo, hi = Fraction(c["lo"]), Fraction(c["hi"])
        width = CM_WIDTH * max(1, abs(lo), abs(hi))
        problems += _enclosure(f"cell n={n} t={c['t']}", lo, hi, ref,
                               ("cm", alpha, beta, r, n, t),
                               Reference.cm_cell(alpha, beta, r, n, t),
                               width)
    return problems


def check_kernel(params, out, ref, sample):
    doc = json.loads(out)
    k, count = params["k"], params.get("count", GRID_COUNT)
    cells = doc["cells"]
    problems = []
    if len(cells) != count:
        problems.append(f"{len(cells)} cells, expected {count}")
    if not doc["passed"]:
        problems.append("kernel inequality not certified")
    width = Fraction(1, 10 ** DIGITS)
    for c in cells:
        u = Fraction(c["u"])
        lo, hi = Fraction(c["lo"]), Fraction(c["hi"])
        if c["verdict"] != "pass" or lo < 0:
            problems.append(f"margin at u={c['u']}: verdict {c['verdict']}")
        problems += _enclosure(f"margin at u={c['u']}", lo, hi, ref,
                               ("margin", k, u),
                               Reference.kernel_margin(k, u), width)
    ray = doc.get("ray")
    if k == 5:
        if ray is None or not ray["certified"]:
            return problems + ["ray u >= 7 not certified"]
        lo, hi = (Fraction(s) for s in ray["K4_at_7"])
        if not hi < Fraction(1, 720):
            problems.append("K_4(7) not below 1/720")
        problems += _enclosure("K_4(7)", lo, hi, ref, ("ktail", 4, 7),
                               Reference.k_tail(4, Fraction(7)), width)
    return problems


def check_conjecture(params, out, ref, sample):
    doc = json.loads(out)
    k = params["k"]
    ce = doc.get("counterexample")
    if ce is None:
        return ["no counterexample found"]
    u = Fraction(ce["u"])
    lo, hi = (Fraction(s) for s in ce["margin"])
    width = Fraction(1, 10 ** DIGITS)
    problems = [] if hi < 0 else ["counterexample margin is not negative"]
    problems += _enclosure(f"counterexample at u={ce['u']}", lo, hi, ref,
                           ("margin", k, u), Reference.kernel_margin(k, u),
                           width)
    # the scan reports the first grid point with a certified violation, so
    # no earlier point may be clearly negative
    for s in doc["grid"]:
        v = Fraction(s)
        if v >= u:
            break
        value, err = ref.value(("margin", k, v), Reference.kernel_margin(k, v),
                               Fraction(10 ** 6), width / 100)
        if value + err < -width:
            problems.append(f"missed violation at u={s}")
    return problems


@cache
def _c_value(k: int, beta: Fraction) -> Fraction:
    """c_k as a quotient of two power-series coefficients at u^(k+2):
    (e^u - 1)^2 i_2(beta u) over e^(2u) - (1 + u) e^u."""
    m = k + 2
    exp1 = [Fraction(1, math.factorial(j)) for j in range(m + 1)]
    em1 = [Fraction(0)] + exp1[1:]
    em1_sq = [sum((em1[i] * em1[j - i] for i in range(j + 1)), Fraction(0))
              for j in range(m + 1)]
    i2 = [beta ** j / (math.factorial(j) * math.factorial(j + 2))
          for j in range(m + 1)]
    q = sum((em1_sq[j] * i2[m - j] for j in range(m + 1)), Fraction(0))
    p = Fraction(2 ** m, math.factorial(m)) - (m + 1) * exp1[m]
    return q / p


def check_ratio(params, out, ref, sample):
    doc = json.loads(out)
    values = [Fraction(v) for v in doc["values"]]
    problems = []
    if len(values) != params["count"] + 1:
        problems.append(f"{len(values)} values for count {params['count']}")
    drops = [k for k in range(len(values) - 1) if values[k + 1] <= values[k]]
    if doc["strictly_increasing"] != (not drops) or \
            doc["first_violation"] != (drops[0] if drops else None):
        problems.append("monotonicity verdict disagrees with the values")
    if params["which"] == "c":
        if drops != [0]:
            problems.append(f"c sequence drops at {drops[:5]}, expected [0]")
        beta = Fraction(params["beta"])
        for k in sorted({0, 1, 2, sample.randrange(3, len(values))}):
            if values[k] != _c_value(k, beta):
                problems.append(f"c_{k} differs from the series quotient")
    elif drops:
        problems.append(f"C sequence drops at {drops[:5]}")
    return problems


def check_ladder(params, out, ref, sample):
    doc = json.loads(out)
    problems = []
    if doc["k_max"] != params["k_max"]:
        problems.append(f"k_max {doc['k_max']}")
    if not doc["passed"] or doc["failures"]:
        problems.append(f"ladder failures {doc['failures'][:3]}")
    return problems


def check_certify(params, out, ref, sample):
    doc = json.loads(out)
    problems = []
    if doc["verdict"] != "certified":
        problems.append(f"verdict {doc['verdict']}")
    if any(Fraction(p["min_bk"]) <= 0 for p in doc["pieces"]):
        problems.append("a certified piece has a nonpositive bound")
    lo, hi = params["lo"], params["hi"]
    inside = [x for x in _real_roots(tuple(params["coeffs"])) if lo < x < hi]
    if inside:
        problems.append(f"reference finds real roots {inside} in ({lo}, {hi})")
    return problems


@cache
def _real_roots(coeffs: tuple) -> list:
    """Real roots (as floats) of the polynomial with ascending coeffs."""
    with mpmath.workdps(60):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=400,
                                 extraprec=400)
        return [float(mpmath.re(x)) for x in roots
                if abs(mpmath.im(x)) < mpmath.mpf(10) ** -30]


def _shift(coeffs: list, a: int) -> list:
    """Coefficients of p(x + a) by the binomial expansion."""
    n = len(coeffs)
    return [sum((coeffs[j] * math.comb(j, i) * a ** (j - i)
                 for j in range(i, n)), Fraction(0)) for i in range(n)]


def check_shift(params, out, ref, sample):
    doc = json.loads(out)
    base = [Fraction(c) for c in params["coeffs"]]
    problems = []
    if len(doc) != params["shifts"] + 1:
        problems.append(f"{len(doc)} rows for {params['shifts']} shifts")
    for row in doc:
        got = [Fraction(c) for c in row["coeffs"]]
        want = _shift(base, int(row["shift"]))
        while want and want[-1] == 0:
            want.pop()
        if got != want:
            problems.append(f"shift {row['shift']} differs from p(x+s)")
    return problems


def check_identity(params, out, ref, sample):
    doc = json.loads(out)
    problems = []
    if not doc["passed"] or doc["mismatches"]:
        problems.append(f"identity mismatches {doc['mismatches'][:3]}")
    if Fraction(doc["constant"]) != Fraction(1, math.factorial(params["k"]
                                                               + 1)):
        problems.append(f"constant {doc['constant']}")
    return problems


CHECKERS = {
    "paper": check_paper, "cm-check": check_cm, "kernel-ineq": check_kernel,
    "conjecture-scan": check_conjecture, "ratio-mono": check_ratio,
    "ladder": check_ladder, "certify-poly": check_certify,
    "shift-chain": check_shift, "verify-identity": check_identity,
}


def check(kind: str, params: dict, expect_exit: int, exit_code: int,
          out: str, ref: Reference, sample_key: str) -> list:
    """Problems with one invocation's result; empty when it is correct."""
    problems = []
    if exit_code != expect_exit:
        problems.append(f"exit code {exit_code}, expected {expect_exit}")
    sample = random.Random(sample_key)
    try:
        problems += CHECKERS[kind](dict(params, expect_exit=expect_exit),
                                   out, ref, sample)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
            AttributeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
