"""Frozen reference values used by the test suite.

Exact rationals transcribed from the published tables, plus derived oracle
values frozen after independent computation, one independent low-precision
route to polygamma, and the plain loops that the optimised routines must
reproduce exactly: the Fraction loops behind the integer series sums, the
exact Enclosure composition in e^-u that `eval_enclosure`'s fixed-point
brackets must contain, the schoolbook polynomial product, polynomial shifts and
sandwich sums and the ladder's cross-multiplied comparisons, the
closed-form denominator coefficients p_k and lambda_k of the two ratio
quotients, the per-order polygamma that the polygamma jet replaced, the
jet on exact rationals that its fixed-point mantissas replaced, the
Bernoulli recurrence that the tangent numbers replaced, the Newton loop
that `math.isqrt` replaced, the rational power enclosures that the
`cmdegree.PointTable` integer roots replaced, the exp-polynomial ring and
its repeated differentiation with trial division that the coefficient
table and the Eulerian derivative towers replaced, the Fraction loop of the transform identities that
`cmdegree.verify_identity`'s integer comparisons replaced, and the
recursive piece search that the positivity certificate's work-list
replaced.
"""

import math
from fractions import Fraction

from cmcert import poly, seriesratio, specfun
from cmcert.enclosure import Enclosure, Record, integer_nth_root, worst
from cmcert.expring import ExpPolyQuotient
from cmcert.poly import Polynomial

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
# integers; the optimised routines must return the identical Enclosure, except
# eval_enclosure, whose fixed-point brackets contain the exact composition.


def eval_enclosure_fraction(f: ExpPolyQuotient, u, digits: int) -> Enclosure:
    """f(u) as the exact Enclosure composition over q = exp_enclosure(-u,
    digits): with s the larger of the top frequency and the pole m, the
    interval Horner in q of sum_f p_f(u) q^(s-f), divided by (1 - q)**m and,
    for s > m, times exp_enclosure((s - m) u, digits), with no rounding
    between steps.  `expring.eval_enclosure` must contain it when its last
    round asked the exp enclosures for the same digits."""
    u = Fraction(u)
    if u <= 0:
        raise ValueError("evaluation requires u > 0")
    q = specfun.exp_enclosure(-u, digits)
    top = max([f.pole] + [freq for freq, _ in f.numerator])
    coeffs = [Fraction(0)] * (top + 1)
    for (freq, d), c in f.numerator.items():
        coeffs[top - freq] += c * u ** d
    value = Polynomial.of(coeffs).eval_interval(q) / (1 - q) ** f.pole
    if top > f.pole:
        value = value * specfun.exp_enclosure((top - f.pole) * u, digits)
    return value


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


def round_out_fraction(x: Enclosure, digits: int) -> Enclosure:
    """`Enclosure.round_out` as a Fraction floor and ceiling."""
    scale = 10 ** digits
    return Enclosure(Fraction(math.floor(x.lo * scale), scale),
                     Fraction(math.ceil(x.hi * scale), scale))


def mul_four_products(x: Enclosure, y: Enclosure) -> Enclosure:
    """Interval product as the min and max of all four endpoint products."""
    prods = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return Enclosure(min(prods), max(prods))


# -- Fraction-loop references for the integer polynomial algebra ------------
# Taylor shift, affine composition, Cargo-Shisha sums and the ladder's theta
# rows, as they stood before they moved onto integer numerators and
# cross-multiplied comparisons; the optimised routines must return identical
# Polynomials, bound lists and ladder failure lists.


def polynomial_product_fraction(p, q):
    """Schoolbook product with one Fraction multiply-add per pair."""
    if p.is_zero() or q.is_zero():
        return type(p).zero()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return type(p).of(out)


def taylor_shift_fraction(p, a):
    """q(u) = p(u + a) by repeated synthetic division over Fraction."""
    a = Fraction(a)
    if a == 0 or p.is_zero():
        return p
    work = list(p.coeffs)
    n = len(work)
    out = []
    for _ in range(n):
        rem = Fraction(0)
        for c in reversed(work):
            rem = rem * a + c
        out.append(rem)
        quot = []
        carry = Fraction(0)
        for c in reversed(work):
            carry = carry * a + c
            quot.append(carry)
        quot.pop()
        work = list(reversed(quot))
        if not work:
            break
    return type(p).of(out)


def compose_affine_fraction(p, a, s):
    """q(v) = p(a + s v): the Fraction shift, then c_k s^k."""
    shifted = taylor_shift_fraction(p, a)
    s = Fraction(s)
    return type(p).of([c * s ** k for k, c in enumerate(shifted.coeffs)])


def cargo_shisha_bounds_fraction(p):
    """b_k = sum_{l<=k} a_l C(k,l)/C(n,l), one Fraction per term."""
    if p.is_zero():
        raise ValueError("bounds undefined for the zero polynomial")
    n = len(p.coeffs) - 1
    out = []
    for k in range(n + 1):
        b = Fraction(0)
        for l in range(k + 1):
            b += p[l] * Fraction(math.comb(k, l), math.comb(n, l))
        out.append(b)
    return out


def certify_positive_recursive(p, lo, hi, step):
    """`certify_positive_on_interval` with each failing piece handled by a
    recursive function: left half first, then the right half unless the
    left found a witness, each level merging the two verdicts; reads
    `poly.MAX_DEPTH` at call time."""
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    pieces = []
    witness = None

    def handle(a, b, depth):
        nonlocal witness
        rep = poly._unit_interval_piece(p, a, b - a)
        if rep.certified:
            pieces.append(rep)
            return "certified"
        w = poly._search_witness(p, a, b)
        if w is not None:
            witness = w
            pieces.append(rep)
            return "falsified"
        if depth >= poly.MAX_DEPTH:
            pieces.append(rep)
            return "inconclusive"
        m = (a + b) / 2
        left = handle(a, m, depth + 1)
        return left if left == "falsified" else \
            worst([left, handle(m, b, depth + 1)])

    a, status = lo, "certified"
    while a < hi and status != "falsified":
        b = min(a + step, hi)
        status = worst([status, handle(a, b, 0)])
        a = b
    return poly.PositivityCertificate(
        verdict=status, interval=(lo, hi), pieces=tuple(pieces),
        witness=witness,
        witness_value=None if witness is None else p(witness))


def theta_row_fraction(k: int, U: int) -> list:
    """theta_{k,0}, ..., theta_{k,k+1}, given U = U_k.

    theta_{k,l} = C(k+5,l) V_k(l) / ((k+5) (l+2)! U_k) for 1 <= l <= k,
    with the binomials and factorials carried along the row.
    """
    row = [Fraction(-2 * (2 ** (k + 1) * k + 1), U)]
    binom, fact = 1, 2            # C(k+5, l) and (l+2)! at l = 0
    for l in range(1, k + 1):
        binom = binom * (k + 6 - l) // l
        fact *= l + 2
        row.append(Fraction(binom * seriesratio.V_value(k, l),
                            (k + 5) * fact * U))
    # fact is now (k+2)!
    row.append(Fraction((k + 4) * (k + 1) * (k + 2), 2 * fact * U))
    return row


def ladder_check_theta_rows(k_max: int) -> dict:
    """`ladder_check` with every theta row built and compared as Fractions."""
    if k_max < 6:
        raise ValueError("need k_max >= 6")
    U = [seriesratio.U_value(k) for k in range(k_max + 2)]
    abc = [(seriesratio.script_A(m), seriesratio.script_B(m),
            seriesratio.script_C(m)) for m in range(k_max + 1)]
    failures = []
    row = theta_row_fraction(4, U[4])
    for k in range(4, k_max + 1):
        nxt = theta_row_fraction(k + 1, U[k + 1])
        for l in range(0, k + 1):
            if nxt[l] < row[l]:
                failures.append(("theta", k, l))
        row = nxt
        M = [(a * k + b) * k + c for a, b, c in abc[:k - 1]]
        for m in range(0, k - 1):
            if M[m] < 0:
                failures.append(("M", m, k))
        if Fraction(U[k + 1], U[k]) > Fraction(seriesratio.V_value(k + 1, 1),
                                               seriesratio.V_value(k, 1)):
            failures.append(("UV", k, None))
        for m, seed in ((0, 3360 * (54 - 137 * k + 74 * k * k)),
                        (1, 1568 * (6480 - 7306 * k + 1909 * k * k)),
                        (2, 336 * (750942 - 549881 * k + 95837 * k * k))):
            if M[m] != seed:
                failures.append(("seed-mismatch", m, k))
            if seed <= 0:
                failures.append(("seed-sign", m, k))
    for m, (a, b, c) in enumerate(abc):
        if a <= 0:
            failures.append(("A", m, None))
        if b >= 0:
            failures.append(("B", m, None))
        if c <= 0:
            failures.append(("C", m, None))
    return {
        "k_max": k_max,
        "passed": not failures,
        "failures": failures,
        "C_values": {m: abc[m][2] for m in range(6)},
        "U4": U[4],
    }


# -- the two ratio quotients' coefficients, one index at a time ------------
# p_k and lambda_k in closed form, and the per-index integer sums for q_k and
# xi_k that the integer recurrences of `seriesratio._ratio_terms` replaced


def q_coeff_sum(k: int, beta: Fraction) -> Fraction:
    """q_k = sum_{l<=k} C(k+2,l) (2^(k-l+2) - 2) beta^l / ((l+2)! (k+2)!).

    With beta = p/q and T_l = C(k+2,l) (k+2)!/(l+2)! (T_0 = (k+2)!/2,
    T_(l+1) = T_l (k+2-l)/((l+1)(l+3)) exactly), one integer sum
    sum_l T_l (2^(k-l+2) - 2) p^l q^(k-l) over (k+2)!^2 q^k.
    """
    p, q = beta.numerator, beta.denominator
    t = math.factorial(k + 2) // 2
    acc = 0
    p_l = 1
    for l in range(k + 1):
        if l:
            t = t * (k + 3 - l) // (l * (l + 2))
            p_l *= p
        acc = acc * q + ((t << (k - l + 2)) - 2 * t) * p_l
    return Fraction(acc, math.factorial(k + 2) ** 2 * q ** k)


def xi_coeff_sum(k: int, beta: Fraction) -> Fraction:
    """xi_k = sum_{l<=k} C(k+4,l) beta^l [a_d beta - (l+3) b_d] / ((l+3)! (k+4)!)

    with d = k-l, a_d = 3^(d+4) - (d+10) 2^(d+3) + 2d + 11 and
    b_d = d 2^(d+3) + 4.  With beta = p/q and T_l = C(k+4,l) (k+3)!/(l+3)!
    (T_0 = (k+3)!/6, T_(l+1) = T_l (k+4-l)/((l+1)(l+4)) exactly), one
    integer sum sum_l T_l [a_d p - (l+3) b_d q] p^l q^d over
    (k+3)! (k+4)! q^(k+1).
    """
    p, q = beta.numerator, beta.denominator
    t = math.factorial(k + 3) // 6
    pow3 = 3 ** (k + 4)
    acc = 0
    p_l = 1
    for l in range(k + 1):
        d = k - l
        if l:
            t = t * (k + 5 - l) // (l * (l + 3))
            p_l *= p
            pow3 //= 3
        a = pow3 - ((d + 10) << (d + 3)) + 2 * d + 11
        b = (d << (d + 3)) + 4
        acc = acc * q + t * (a * p - (l + 3) * b * q) * p_l
    return Fraction(acc, math.factorial(k + 3) * math.factorial(k + 4)
                    * q ** (k + 1))



def p_coeff(k: int) -> Fraction:
    """p_k = [u^(k+2)] (e^(2u) - (1 + u) e^u) = (2^(k+2) - k - 3)/(k+2)!."""
    return Fraction(2 ** (k + 2) - k - 3, math.factorial(k + 2))


def lambda_coeff(k: int) -> Fraction:
    """lambda_k = [u^(k+4)] (e^(3u) - 2 (1 + u) e^(2u) + (1 + u)^2 e^u),
    that is (3^(k+4) - (k+6) 2^(k+4) + k^2 + 9k + 21)/(k+4)!."""
    return Fraction(3 ** (k + 4) - (k + 6) * 2 ** (k + 4) + k * k + 9 * k + 21,
                    math.factorial(k + 4))


# -- per-order references for the polygamma jet ------------------------------
# Bernoulli numbers, square roots and polygamma as they stood before the jet:
# the optimised routines must return identical numbers, roots and endpoints.


_bernoulli_recurrence_cache: dict = {0: Fraction(1)}


def bernoulli_recurrence(n: int) -> Fraction:
    """B_n from sum_{k<=m} C(m+1, k) B_k = 0, summed over Fractions."""
    if n in _bernoulli_recurrence_cache:
        return _bernoulli_recurrence_cache[n]
    if n >= 3 and n % 2 == 1:
        return Fraction(0)
    for m in range(1, n + 1):
        if m not in _bernoulli_recurrence_cache:
            acc = Fraction(0)
            for k in range(m):
                acc += math.comb(m + 1, k) * bernoulli_recurrence(k)
            _bernoulli_recurrence_cache[m] = -acc / (m + 1)
    return _bernoulli_recurrence_cache[n]


def integer_nth_root_newton(a: int, n: int) -> int:
    """Floor of the n-th root of a >= 0 by Newton's iteration from above."""
    if a == 0:
        return 0
    if n == 1:
        return a
    x = 1 << ((a.bit_length() + n - 1) // n + 1)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x ** n > a:
        x -= 1
    return x


def nth_root_enclosure(x: Fraction | int, n: int, digits: int) -> Enclosure:
    """Enclosure of x**(1/n) for rational x >= 0, width <= 10**-digits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("nth_root_enclosure requires x >= 0")
    if x == 0:
        return Enclosure.point(0)
    scale = 10 ** digits
    m = (x.numerator * scale ** n * x.denominator ** (n - 1)) // x.denominator ** n
    # r = floor((x*scale^n)^(1/n)) up to the floor slack in m, and
    # (r+1)^n >= m+1 > x*scale^n, so [r, r+1]/scale brackets the root
    r = integer_nth_root(m, n)
    return Enclosure(Fraction(r, scale), Fraction(r + 1, scale))


def rational_power_enclosure(x: Fraction | int, a: Fraction | int,
                             digits: int) -> Enclosure:
    """Enclosure of x**a for rational x > 0 and rational exponent a."""
    x = Fraction(x)
    a = Fraction(a)
    if x <= 0:
        raise ValueError("rational_power_enclosure requires x > 0")
    base = x ** a.numerator  # exact, also for a negative numerator
    if a.denominator == 1:
        return Enclosure(base, base)
    return nth_root_enclosure(base, a.denominator, digits)


def polygamma_mantissas_per_order(n: int, a: int, b: int, m: int,
                                  tol_den: int, p: int):
    """Mantissas lo, hi (scale 2**-p) bracketing |psi^(n)(a/b)|, or None:
    the lifted asymptotic sum plus the shift terms for one order, every
    power raised from scratch and floor and ceiling taken by two divisions.
    """
    c = a + m * b
    bn, cn = b ** n, c ** n
    num0 = math.factorial(n - 1) * bn << p
    num1 = math.factorial(n) * bn * b << p
    den1 = 2 * cn * c
    lo = num0 // cn + num1 // den1
    hi = -(-num0 // cn) - (-num1 // den1)
    b2, c2 = b * b, c * c
    prev_num, prev_den = 0, 0
    k = 0
    while True:
        k += 1
        bn *= b2
        cn *= c2
        bern = bernoulli_recurrence(2 * k)
        num = abs(bern.numerator) * math.perm(2 * k + n - 1, n - 1) * bn
        den = bern.denominator * cn
        if num * tol_den <= den:
            err = -((-num << p) // den)
            lo -= err
            hi += err
            break
        if k > 1 and num * prev_den >= prev_num * den:
            return None
        if bern.numerator > 0:
            lo += (num << p) // den
            hi -= (-num << p) // den
        else:
            lo += (-num << p) // den
            hi -= (num << p) // den
        prev_num, prev_den = num, den
    num = math.factorial(n) * b ** (n + 1) << p
    for j in range(m):
        den = (a + j * b) ** (n + 1)
        lo += num // den
        hi -= -num // den
    return lo, hi


def polygamma_mantissas_exact(n0: int, N: int, a: int, b: int, m: int,
                              tol_den: int, guard: int = 64) -> list:
    """The polygamma jet on exact rationals: per order n = n0..N, (p, lo,
    hi) bracketing |psi^(n)(a/b)| * 2**p, or None, with the lift, stop
    rule and p of `specfun._polygamma_mantissas`.  One divmod floors each
    exact term into lo and ceils it into hi; the orders share the powers
    of b and c = a + mb and carry each (a+jb)**(n+1) by one multiplication.
    """
    c = a + m * b
    bpow, cpow = [1], [1]
    qs = [a + j * b for j in range(m)]
    qpow = [q ** n0 for q in qs]
    step = (m + a // b).bit_length()
    fact = math.factorial(n0 - 1)
    out = []
    for n in range(n0, N + 1):
        fact *= n
        p = tol_den.bit_length() + n * step + guard
        qpow = [qp * q for qp, q in zip(qpow, qs)]
        lo = hi = prev_num = prev_den = k = 0
        while True:
            k += 1
            e = n + 2 * k
            while len(cpow) <= e:
                bpow.append(bpow[-1] * b)
                cpow.append(cpow[-1] * c)
            bern = bernoulli_recurrence(2 * k)
            num = abs(bern.numerator) * math.perm(e - 1, n - 1) * bpow[e]
            den = bern.denominator * cpow[e]
            if num * tol_den <= den:
                err = -((-num << p) // den)
                lo, hi = lo - err, hi + err
                break
            if k > 1 and num * prev_den >= prev_num * den:
                lo = None
                break
            q, r = divmod((num if bern > 0 else -num) << p, den)
            lo, hi = lo + q, hi + q + (r > 0)
            prev_num, prev_den = num, den
        if lo is None:
            out.append(None)
            continue
        num = fact * bpow[n + 1] << p
        quots, rems = zip(divmod(fact // n * bpow[n] << p, cpow[n]),
                          divmod(num, 2 * cpow[n + 1]),
                          *map(divmod, [num] * m, qpow))
        total = sum(quots)
        out.append((p, lo + total, hi + total + len(rems) - rems.count(0)))
    return out


def polygamma_per_order(n: int, x: Fraction, digits: int) -> Enclosure:
    """psi^(n)(x) for one order: lift target max(20, digits), doubled while
    the asymptotic terms stop decreasing, then rounded out at digits + 1."""
    a, b = x.numerator, x.denominator
    tol_den = 10 ** (digits + 1)
    target = max(20, digits)
    while True:
        m = max(0, math.ceil(target - x))
        p = tol_den.bit_length() + n * (m + a // b).bit_length() + 64
        body = polygamma_mantissas_per_order(n, a, b, m, tol_den, p)
        if body is not None:
            break
        target *= 2
        if target > 64 * (digits + 20):
            raise RuntimeError("asymptotic expansion failed to converge")
    lo, hi = body if n % 2 == 1 else (-body[1], -body[0])
    return Enclosure(Fraction(lo, 1 << p),
                     Fraction(hi, 1 << p)).round_out(digits + 1)


# -- the derivative towers by repeated differentiation ----------------------
# The ring of finite sums p_i(u) e^(iu) with polynomial coefficients, which
# the coefficient table of `expring` replaced.  Each level of a tower
# differentiates the previous form in the ring and then divides out
# (e^u - 1) while the division is exact; `expring.reciprocal_derivative` and
# `expring.kernel_derivative` must return the identical reduced forms, read
# as tables by `as_table`.


class ExpPoly(Record):
    """Finite sum of p_i(u) * e^(i u) with exact polynomial coefficients."""

    __slots__ = _fields = ("terms",)  # ((i, p_i), ...) sorted by frequency

    @staticmethod
    def of(mapping: dict) -> "ExpPoly":
        return ExpPoly(tuple((freq, mapping[freq]) for freq in sorted(mapping)
                             if not mapping[freq].is_zero()))

    def as_dict(self) -> dict:
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
        d = {}
        for f1, p1 in self.terms:
            for f2, p2 in other.terms:
                d[f1 + f2] = d.get(f1 + f2, Polynomial.zero()) + p1 * p2
        return ExpPoly.of(d)

    def scale(self, c) -> "ExpPoly":
        return ExpPoly.of({f: p.scale(c) for f, p in self.terms})

    def mul_poly(self, q: Polynomial) -> "ExpPoly":
        return ExpPoly.of({f: p * q for f, p in self.terms})

    def derivative(self) -> "ExpPoly":
        return ExpPoly.of({f: Polynomial.of(
            [i * c for i, c in enumerate(p.coeffs)][1:]) + p.scale(f)
            for f, p in self.terms})


def as_table(num: ExpPoly) -> dict:
    """The ring element as `expring`'s table {(f, d): c}."""
    return {(f, d): c for f, p in num.terms for d, c in enumerate(p.coeffs)
            if c}


EXP_U = ExpPoly.of({1: Polynomial.of([1])})
EXP_U_MINUS_ONE = EXP_U - ExpPoly.of({0: Polynomial.of([1])})


def divide_by_exp_minus_one(num: ExpPoly):
    """Exact division of num by (E - 1), E = e^u, or None if it leaves a
    remainder: synthetic division from the top frequency down."""
    coeffs = num.as_dict()
    quot, carry = {}, Polynomial.zero()
    for i in range(num.max_freq(), 0, -1):
        carry = carry + coeffs.get(i, Polynomial.zero())
        quot[i - 1] = carry
    if not (carry + coeffs.get(0, Polynomial.zero())).is_zero():
        return None
    return ExpPoly.of(quot)


def reduced_quotient(num: ExpPoly, pole: int) -> ExpPolyQuotient:
    while pole > 0:
        quot = divide_by_exp_minus_one(num)
        if quot is None:
            break
        num, pole = quot, pole - 1
    return ExpPolyQuotient(num, pole)


def differentiate(f: ExpPolyQuotient) -> ExpPolyQuotient:
    """d/du N (E - 1)^-m = (N' (E - 1) - m E N) (E - 1)^-(m+1), reduced."""
    if f.pole == 0:
        return reduced_quotient(f.numerator.derivative(), 0)
    num = (f.numerator.derivative() * EXP_U_MINUS_ONE
           - (EXP_U * f.numerator).scale(f.pole))
    return reduced_quotient(num, f.pole + 1)


def derivative_tower(f: ExpPolyQuotient, n_max: int) -> list:
    """[f, f', ..., f^(n_max)], each one derivative of the one before, each
    numerator read as a table."""
    tower = [f]
    for _ in range(n_max):
        tower.append(differentiate(tower[-1]))
    return [ExpPolyQuotient(as_table(g.numerator), g.pole) for g in tower]


# 1/(e^u - 1) and u e^u/(e^u - 1), the bases of the two towers
RECIPROCAL_BASE = reduced_quotient(EXP_U_MINUS_ONE, 2)
KERNEL_BASE = reduced_quotient(ExpPoly.of({1: Polynomial.of([0, 1])}), 1)


def verify_identity_fraction(k: int, N: int, weight=math.factorial) -> dict:
    """The Fraction loop that `cmdegree.verify_identity`'s integer
    comparisons replaced, with the transform rule's weight m -> m! as an
    argument: the same report, mismatch for mismatch."""
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
        if coeff * weight(m) != tail[m + 1]:
            mismatches.append(("bessel", m))
        coeff /= (m + 1) * (m + k + 3)
    coeff = Fraction(1, math.factorial(k) * math.factorial(k + 1))
    for n in range(N + 1):
        if coeff * weight(n + k) != tail[n]:
            mismatches.append(("hyp", n))
        coeff /= (n + k + 1) * (n + k + 2)
    return {"k": k, "N": N, "constant": tail[0],
            "passed": not mismatches, "mismatches": mismatches}
