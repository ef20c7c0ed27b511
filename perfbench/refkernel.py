"""Machine reference: a fixed stdlib-only Fraction/int kernel, no cmcert code.

Prints the seconds the kernel took, measured inside this process so that
interpreter start-up is left out.  The benchmark runs it in its own process
before every pass and divides the pass's wall time by it (`wall_ref`), which
cancels part of the drift of a shared machine.  The work mirrors what
dominates cmcert's profiles: Fraction construction, gcd, products and sums
of rationals with growing denominators, and big-integer products.
"""

import math
import sys
import time
from fractions import Fraction


def kernel() -> int:
    # a truncated exp series at rational points, rounded out like an
    # enclosure endpoint
    check = 0
    for num in range(1, 100):
        x = Fraction(num, 7)
        term = total = Fraction(1)
        for n in range(1, 60):
            term = term * x / n
            total += term
        scale = 10 ** 40
        check ^= math.floor(total * scale)
    # binomial sums with factorial denominators
    for k in range(40, 200, 2):
        acc = Fraction(0)
        for j in range(k + 1):
            acc += Fraction(math.comb(k + 2, j) * (2 ** (k - j + 2) - 2),
                            math.factorial(j + 2))
        check ^= acc.numerator & 0xFFFF
    return check


def main() -> int:
    start = time.perf_counter()
    value = kernel()
    elapsed = time.perf_counter() - start
    print(f"{elapsed:.9f} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
