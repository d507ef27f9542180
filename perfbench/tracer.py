"""Per-layer tracing by wrapping the package's functions where it calls them.

Nothing in the package changes: a ``Tracer`` swaps module attributes (and
three ``CyclicHeptaMatrix`` methods) for timing wrappers while it is
installed, and puts the originals back when it is removed.  Spans nest
through a stack, so each span knows how much of its interval its children
covered; ``cli`` is the root span around one ``cli.main`` call, and its
self time is what no wrapped function accounts for (argparse, JSON dump,
file writes, glue).

Work done by the tracer's own hooks (bit-length scans and the like) is
charged to no layer: it is added to the enclosing span's child time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from fractions import Fraction

_clock = time.perf_counter


def _bits(value) -> int:
    """Largest numerator/denominator bit length in an exact scalar."""
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    num = getattr(value, "num", None)
    if num is not None:  # RatFun: scan every coefficient
        return max((_bits(c) for c in num.coeffs + value.den.coeffs), default=0)
    return 0


class Tracer:
    """Span times, call counts and counters for one traced pass."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            frame = [0.0]
            tracer._stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                tracer._stack.pop()
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[0]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += dur
            if after is not None:
                mark = _clock()
                after(tracer, args, result)
                if tracer._stack:
                    tracer._stack[-1][0] += _clock() - mark
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` (module, class or dict) by a span wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(name, original, before, after)
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original, before, after))
        self._patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


# -- hooks -------------------------------------------------------------------

_FACTOR_VECTORS = ("alpha", "f", "e", "g", "z", "k", "h", "v", "w")


def _after_factorize(tracer, args, fd):
    tracer.counters["factor.pivot_overrides"] += len(fd.overrides)
    if fd.backend == "exact":
        tracer.counters["factor.sweeps"] += 1
        bits = max(_bits(x) for name in _FACTOR_VECTORS for x in getattr(fd, name))
        tracer.maxima["factor.max_bits"] = max(tracer.maxima["factor.max_bits"], bits)


def _after_kernel_factor(tracer, args, result):
    tracer.counters["factor.sweeps"] += 1


def _after_eval(tracer, args, result):
    value = args[0]
    num = getattr(value, "num", None)
    if num is not None:
        tracer.counters["scalars.eval_at_zero.ratfun_calls"] += 1
        degree = max(num.degree, value.den.degree)
        tracer.maxima["scalars.max_degree"] = max(tracer.maxima["scalars.max_degree"], degree)


def _before_invert(tracer, args):
    tracer.counters["_bordered_mark"] = tracer.calls["inverse.bordered_solve"]


def _after_invert(tracer, args, result):
    tracer.counters["inverse.c_substitutions"] += len(result.c_substitutions)
    if tracer.calls["inverse.bordered_solve"] > tracer.counters["_bordered_mark"]:
        tracer.counters["inverse.bordered_solve_inverses"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from heptacyclic import cli, factor, inverse, kernels, solve
    from heptacyclic.matrix import CyclicHeptaMatrix

    tracer.patch(cli, "matrix_from_json", "matrix.parse")
    for method in ("float_bands", "max_abs_entry", "mat_vec"):
        tracer.patch(CyclicHeptaMatrix, method, f"matrix.{method}")
    # one function, bound under three module names by its callers
    for module in (factor, inverse, solve):
        tracer.patch(module, "factorize", "factor.factorize", after=_after_factorize)
    tracer.patch(solve, "lu_substitute", "factor.lu_substitute")
    for module in (factor, inverse, solve):
        tracer.patch(module, "eval_at_zero", "scalars.eval_at_zero", after=_after_eval)
    tracer.patch(cli, "format_scalar", "scalars.format_scalar")
    tracer.patch(cli, "invert", "inverse.invert", before=_before_invert, after=_after_invert)
    tracer.patch(inverse, "seed_columns", "inverse.seed_columns")
    tracer.patch(inverse, "back_columns", "inverse.back_columns")
    tracer.patch(inverse, "lu_substitute", "inverse.bordered_solve")
    tracer.patch(cli, "vector_from_text", "solve.rhs_parse")
    tracer.patch(kernels.ACTIVE_IMPLS, "factor", "kernels.factor", after=_after_kernel_factor)
    tracer.patch(kernels.ACTIVE_IMPLS, "solve", "kernels.solve")
    tracer.patch(kernels.ACTIVE_IMPLS, "invert", "kernels.invert")


# what one traced pass reports, besides the runner's ratios
LAYER_TIMES = (
    "matrix.parse", "matrix.float_bands", "matrix.max_abs_entry", "matrix.mat_vec",
    "factor.factorize", "factor.lu_substitute",
    "scalars.eval_at_zero", "scalars.format_scalar",
    "inverse.seed_columns", "inverse.back_columns", "inverse.bordered_solve",
    "solve.rhs_parse",
    "kernels.factor", "kernels.solve", "kernels.invert",
)
LAYER_CALLS = ("factor.factorize", "scalars.format_scalar")
LAYER_COUNTERS = (
    "factor.pivot_overrides", "scalars.eval_at_zero.ratfun_calls",
    "inverse.c_substitutions", "inverse.bordered_solve_inverses",
)
LAYER_MAXIMA = {"factor.max_bits": "bits", "scalars.max_degree": "degree"}


def pass_metrics(tracer: Tracer) -> dict:
    """name -> (value, unit) for one traced pass, without the ratios the
    runner adds (field ops, factorizations per column, overhead)."""
    out = {f"{name}_s": (tracer.total[name], "s") for name in LAYER_TIMES}
    out["cli.self_s"] = (tracer.self_time["cli"], "s")
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in LAYER_COUNTERS:
        out[name] = (tracer.counters[name], "count")
    for name, unit in LAYER_MAXIMA.items():
        out[name] = (tracer.maxima[name], unit)
    return out
