"""Handlers of the polynomial commands: certify-poly, shift-chain and
lemma1-bounds.  Each command's doc and options are its `cli._COMMANDS`
entry, and `cli.main` imports this module only to run one of them.
"""

from __future__ import annotations

import json

from .cli import _emit, _pair, _rat
from .enclosure import check_range, check_work, work
from . import poly

# the most coefficients in a polynomial file: cold on 2 vCPUs (medians of
# 5), 40 ones or 40 coefficients of 30 digits took 1.2-1.4 s and 15-20 MB
# of output at shift-chain --shifts 5000, and 1.7-1.9 s at certify-poly
# with 2,000 pieces on [0, 1] or [0, 6]; the 29-coefficient F4 1.1-1.5 s
POLY_MAX_COEFFS = 40
# the most digits of a coefficient, and of the coefficients over one common
# denominator, which the algebra runs on: as above, 40 of 100 nines took
# 1.3-1.9 s and 1.7-2.4 s, 40 over 3-digit denominators at the cap 1.6-1.9 s
# and 2.2-2.3 s, and 40 of 30 digits over distinct 30-digit ones 21 s and 19 s
POLY_MAX_DIGITS = 100


def _read_poly_file(path: str) -> poly.Polynomial:
    coeffs = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror}")
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                coeffs.append(_rat(line, "coefficient", POLY_MAX_DIGITS))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
            check_range("coefficients --file", len(coeffs), 0, POLY_MAX_COEFFS)
    nums, den = poly._common_numerators(p := poly.Polynomial.of(coeffs))
    check_range("digits --file", len(str(max(map(abs, [den, *nums])))), 0,
                POLY_MAX_DIGITS)
    return p


def _certificate_json(cert) -> str:
    doc = {
        "verdict": cert.verdict,
        "interval": [str(cert.interval[0]), str(cert.interval[1])],
        "pieces": [
            {
                "shift": str(pc.shift),
                "min_bk": str(pc.min_bk),
                "argmin": pc.argmin,
                "max_bk": str(pc.max_bk),
            }
            for pc in cert.pieces
        ],
        "witness": None if cert.witness is None else str(cert.witness),
    }
    return json.dumps(doc, indent=2)


def certify_poly(cfg, file, interval, step):
    p = _read_poly_file(file)
    lo, hi = _pair(interval, "interval")
    cert = poly.certify_positive_on_interval(p, lo, hi, _rat(step))
    text = [f"verdict: {cert.verdict}"] + [
        f"  shift {piece.shift}: min_bk {piece.min_bk} "
        f"(argmin {piece.argmin}), max_bk {piece.max_bk}"
        for piece in cert.pieces]
    if cert.witness is not None:
        text.append(f"  witness: {cert.witness} -> {cert.witness_value}")
    _emit(cfg, lambda: _certificate_json(cert), text, verdict=cert.verdict)


def shift_chain(cfg, file, shifts):
    check_range("count --shifts", shifts, 0)
    p = _read_poly_file(file)
    # each shift: n**2 Horner additions, and n rationals made and printed,
    # each costing 96 integer operations and 4 products
    n = len(p.coeffs)
    size = poly._size(p) + n * shifts.bit_length()
    check_work("--shifts/--file", work(shifts * n * n, size)
               + work(96 * shifts * n, 0) + work(4 * shifts * n, size, size))
    chain = [[str(c) for c in p.coeffs]]
    for _ in range(shifts):
        p = poly.taylor_shift(p, 1)
        chain.append([str(c) for c in p.coeffs])
    _emit(cfg, lambda: json.dumps([{"shift": str(i), "coeffs": coeffs}
                                   for i, coeffs in enumerate(chain)]),
          [f"shift {i}: {' '.join(coeffs)}" for i, coeffs in enumerate(chain)])


def lemma1_bounds(cfg, m, n):
    (low, low_alt), (up, up_alt), limit = poly.lemma1_exp_bounds(m, n)
    payload = {key: [str(c) for c in p.coeffs] for key, p in (
        ("lower_numerator", low), ("upper_numerator", up),
        ("lower_alternating", low_alt), ("upper_alternating", up_alt))}
    payload["valid_on"] = f"(0, {1 / limit})"
    _emit(cfg, lambda: json.dumps(payload, indent=2),
          [f"{key}: {val}" for key, val in payload.items()])
