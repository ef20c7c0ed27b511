"""Layer spans for the traced benchmark run, installed from outside cmcert.

`Tracer.install()` rebinds each layer's entry points to wrappers that record
a span (name, start, end, parent) in memory.  A function is rebound in every
cmcert module that holds the same object, so names imported with
`from .x import f` are caught too: `expring.eval_enclosure` is called through
`cmdegree` and `seriesratio` bindings, and without rebinding those the
kernel-scan workload would show no expring time at all.  `specfun` reaches
its own functions through module globals, so its internal calls are caught
by the same rebinding.

A call made while the innermost open span has the same name runs unwrapped:
recursion (`exp_enclosure` of a negative argument, `bernoulli`) and
Enclosure operators built from other operators (division is an inverse and a
product) count once.  Self time is a span's duration minus the durations of
its direct children; each span name belongs to one group, and the per-group
self times partition the root span, which `summary` checks.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

# Span names whose self time is reported under their own name; every other
# span's self time goes to its module's group (the part before the dot).
OWN_GROUPS = {
    "cmdegree.evaluate", "cmdegree.derivative", "specfun.polygamma",
    "specfun.exp", "specfun.bessel", "specfun.ktail", "specfun.bernoulli",
    "expring.eval", "expring.build", "seriesratio.coeff",
    "seriesratio.ladder", "poly.certify", "poly.shift",
}


def group_of(name: str) -> str:
    return name if name in OWN_GROUPS else name.split(".")[0]


SELFCHECK_TOLERANCE_NS = 5_000_000


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _width_miss(tracer, result, digits, counter):
    if result.hi - result.lo > Fraction(1, 10 ** digits):
        tracer.counts[counter] += 1


def _obs_exp(tracer, args, kwargs, result):
    x = abs(Fraction(args[0]))
    tracer.maxima["specfun.exp.max_arg"] = max(
        tracer.maxima["specfun.exp.max_arg"], float(x))
    _width_miss(tracer, result, args[1], "specfun.width_miss")


def _obs_specfun(tracer, args, kwargs, result):
    # bessel_ratio(k, u, digits), polygamma(n, x, digits), k_tail(l, a, d)
    _width_miss(tracer, result, args[2], "specfun.width_miss")


def _obs_eval(tracer, args, kwargs, result):
    if Fraction(args[1]) < Fraction(1, 4):
        tracer.counts["expring.eval.series"] += 1
    _width_miss(tracer, result, args[2], "expring.eval.width_miss")


def _obs_coeff(tracer, args, kwargs, result):
    tracer.maxima["seriesratio.coeff.max_bits"] = max(
        tracer.maxima["seriesratio.coeff.max_bits"], _bits(result))


def _obs_unimodal(tracer, args, kwargs, result):
    tracer.maxima["seriesratio.unimodal.digits_used"] = max(
        tracer.maxima["seriesratio.unimodal.digits_used"],
        result.digits_used)


def _obs_certify(tracer, args, kwargs, result):
    tracer.counts["poly.certify.pieces"] += len(result.pieces)


def _obs_kernel_cert(tracer, args, kwargs, result):
    tracer.counts["cmdegree.kernel_cells"] += len(result["cells"])


def _obs_conjecture(tracer, args, kwargs, result):
    tracer.counts["cmdegree.kernel_cells"] += len(result["margins"])


def _obs_enclosure(tracer, args, kwargs, result):
    tracer.maxima["enclosure.max_bits"] = max(
        tracer.maxima["enclosure.max_bits"], _bits(result.lo),
        _bits(result.hi))


def _prepare_unimodal(tracer, args, kwargs):
    f = args[0]

    def probe(u, d):
        tracer.counts["seriesratio.unimodal.probes"] += 1
        return f(u, d)

    return (probe,) + tuple(args[1:]), kwargs


# (module, class or None, attribute, span name, observe, prepare); a span
# name of None means "module.attribute".
TARGETS = [
    ("cmdegree", None, "cm_check", None, None, None),
    ("cmdegree", None, "find_degree_violation", None, None, None),
    ("cmdegree", None, "kernel_certificate", None, _obs_kernel_cert, None),
    ("cmdegree", None, "conjecture_scan", None, _obs_conjecture, None),
    ("cmdegree", None, "p_value", None, None, None),
    ("cmdegree", None, "verify_identity", None, None, None),
    ("cmdegree", None, "_signed_cell", "cmdegree.cell", None, None),
    ("cmdegree", None, "kernel_margin", None, None, None),
    ("cmdegree", "CMExpression", "evaluate", None, None, None),
    ("cmdegree", "CMExpression", "derivative", None, None, None),
    ("specfun", None, "polygamma", None, _obs_specfun, None),
    ("specfun", None, "exp_enclosure", "specfun.exp", _obs_exp, None),
    ("specfun", None, "bessel_ratio", "specfun.bessel", _obs_specfun, None),
    ("specfun", None, "k_tail", "specfun.ktail", _obs_specfun, None),
    ("specfun", None, "bernoulli", None, None, None),
    ("expring", None, "eval_enclosure", "expring.eval", _obs_eval, None),
    ("expring", None, "build_F_chain", "expring.build", None, None),
    ("expring", None, "build_f4_via_pade", "expring.build", None, None),
    ("seriesratio", None, "q_coeff", "seriesratio.coeff", _obs_coeff, None),
    ("seriesratio", None, "xi_coeff", "seriesratio.coeff", _obs_coeff, None),
    ("seriesratio", None, "ladder_check", "seriesratio.ladder", None, None),
    ("seriesratio", None, "unimodal_max", "seriesratio.unimodal",
     _obs_unimodal, _prepare_unimodal),
    ("seriesratio", None, "c_ratio_sequence", None, None, None),
    ("seriesratio", None, "C_ratio_sequence", None, None, None),
    ("seriesratio", None, "f_beta", None, None, None),
    ("seriesratio", None, "g_beta", None, None, None),
    ("poly", None, "certify_positive_on_interval", "poly.certify",
     _obs_certify, None),
    ("poly", None, "taylor_shift", "poly.shift", None, None),
    ("poly", None, "cargo_shisha_bounds", None, None, None),
    ("poly", None, "lemma1_exp_bounds", None, None, None),
    ("poly", "Polynomial", "eval_interval", None, None, None),
] + [
    ("enclosure", "Enclosure", op, "enclosure.op", _obs_enclosure, None)
    for op in ("__add__", "__sub__", "__rsub__", "__mul__", "inverse",
               "__truediv__", "__rtruediv__", "__pow__")
] + [("enclosure", "Enclosure", "round_out", None, None, None)]


class Tracer:
    """In-memory spans plus the counters observed at the same boundaries."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index]
        self.stack = []
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def wrap(self, name, fn, observe=None, prepare=None):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            calls[name] += 1
            if prepare is not None:
                args, kwargs = prepare(tracer, args, kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def install(self):
        """Rebind every target wherever cmcert holds it."""
        import cmcert.cli  # noqa: F401  (loads every cmcert module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cmcert" or n.startswith("cmcert.")]
        for modname, clsname, attr, name, observe, prepare in TARGETS:
            module = sys.modules[f"cmcert.{modname}"]
            owner = getattr(module, clsname) if clsname else module
            original = vars(owner)[attr]
            wrapped = self.wrap(name or f"{modname}.{attr}", original,
                                observe, prepare)
            holders = [owner] if clsname else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def run_root(self, fn, *args, **kwargs):
        """Call fn under the root span `cli.main`."""
        return self.wrap("cli.main", fn)(*args, **kwargs)

    def summary(self, work_ns: int) -> dict:
        """Per-group self times, counters and the span self-check.

        `work_ns` is the untraced clock around the root call; the group self
        times must sum to it within SELFCHECK_TOLERANCE_NS.
        """
        n = len(self.spans)
        covered = [0] * n
        open_spans = 0
        for name, start, end, parent in self.spans:
            if end == 0:
                open_spans += 1
            elif parent >= 0:
                covered[parent] += end - start
        self_ns = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end:
                self_ns[group_of(name)] += end - start - covered[i]
        span_sum = sum(self_ns.values())
        ok = (open_spans == 0 and not self.stack
              and abs(span_sum - work_ns) <= SELFCHECK_TOLERANCE_NS)
        return {"self_ns": dict(self_ns), "calls": dict(self.calls),
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "spans": n, "span_sum_ns": span_sum, "work_ns": work_ns,
                "selfcheck_ok": ok}
