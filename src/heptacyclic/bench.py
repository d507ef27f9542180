"""Benchmark helpers: wall-clock timing and field-operation counting.

Operation counts come from running the generic factor sweep and the pivot
product over a wrapper scalar that increments a shared counter on every
arithmetic operation (add/sub/mul/div/neg).  The wrapper carries plain
floats, so counting is cheap even at n in the thousands; it is supported
wherever no pivot is zero (use the diagonally-dominant profile, the
default), and a zero pivot raises ValueError.

Each lane gets a single right-hand-side solve row (``solve/exact``,
``solve/float``) and an inverse row (``inv/exact``, ``inv/float``), each
including the factor sweep.  ``read/float`` times the float lane's read of a
matrix file: ``matrix_from_json(text, "float")`` and ``float_bands()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import mul

from . import kernels
from .errors import NearSingularPivotError
from .factor import determinant
from .inverse import inverse_float, invert
from .matrix import (BAND_NAMES, CyclicHeptaMatrix, matrix_from_json, matrix_to_json,
                     random_instance)
from .solve import solve_many

# every wall time is the best of this many runs
REPEATS = 3


class OpCounter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class CountingScalar:
    """Wraps a scalar and counts arithmetic operations on a shared counter."""

    __slots__ = ("value", "counter")

    def __init__(self, value, counter: OpCounter):
        self.value = value
        self.counter = counter

    def _wrap(self, value):
        return CountingScalar(value, self.counter)

    def _unwrap(self, other):
        return other.value if isinstance(other, CountingScalar) else other

    def __add__(self, other):
        self.counter.count += 1
        return self._wrap(self.value + self._unwrap(other))

    def __sub__(self, other):
        self.counter.count += 1
        return self._wrap(self.value - self._unwrap(other))

    def __mul__(self, other):
        self.counter.count += 1
        return self._wrap(self.value * self._unwrap(other))

    def __truediv__(self, other):
        self.counter.count += 1
        return self._wrap(self.value / self._unwrap(other))

    def __neg__(self):
        self.counter.count += 1
        return self._wrap(-self.value)

    def __eq__(self, other):
        return self.value == self._unwrap(other)

    def __repr__(self):
        return f"CountingScalar({self.value})"


def _nonzero_pivot(value, i):
    if value == 0:
        raise ValueError(f"pivot {i} is zero; field ops are counted only where no pivot is zero")
    return value


def count_det_ops(H: CyclicHeptaMatrix) -> int:
    """Field operations of the determinant at this order: one factor sweep
    and the product of the pivots it hands over.  A zero pivot raises
    ValueError."""
    counter = OpCounter()
    bands = [[None, *(CountingScalar(float(v), counter) for v in H.band(name))]
             for name in BAND_NAMES]
    reduce(mul, (row[0] for row in kernels.sweep(*bands, _nonzero_pivot)))
    return counter.count


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class BenchRow:
    n: int
    command: str
    wall_time_s: object  # float, or "refused" where the float lane refuses a pivot
    field_ops: object  # int where counted, "" otherwise


def bench_suite(n: int, seed: int, profile: str = "diagonally-dominant"):
    """Benchmark rows for one instance: exact det (timed, and counted where
    no pivot is zero), exact solve, exact inverse, float inverse, float
    solve and the float read of its matrix file.  A float row whose pivot
    the float lane refuses reads ``refused``."""
    H = random_instance(n, seed, profile)
    rows = []

    wall = _best_of(lambda: determinant(H))
    try:
        ops = count_det_ops(H)
    except ValueError:  # a zero pivot: the sweep at concrete points is not counted
        ops = ""
    rows.append(BenchRow(n, "det/exact", wall, ops))

    rhs = [1] * n
    wall = _best_of(lambda: solve_many(H, [rhs]))
    rows.append(BenchRow(n, "solve/exact", wall, ""))

    wall = _best_of(lambda: invert(H))
    rows.append(BenchRow(n, "inv/exact", wall, ""))

    for command, fn in (("inv/float", lambda: inverse_float(H)),
                        ("solve/float", lambda: solve_many(H, [rhs], backend="float"))):
        try:
            wall = _best_of(fn)
        except NearSingularPivotError:
            wall = "refused"
        rows.append(BenchRow(n, command, wall, ""))

    text = matrix_to_json(H)
    wall = _best_of(lambda: matrix_from_json(text, "float").float_bands())
    rows.append(BenchRow(n, "read/float", wall, ""))
    return rows


def rows_to_csv(rows) -> str:
    out = ["n,command,wall_time_s,field_ops"]
    for row in rows:
        wall = row.wall_time_s if isinstance(row.wall_time_s, str) else f"{row.wall_time_s:.6f}"
        out.append(f"{row.n},{row.command},{wall},{row.field_ops}")
    return "\n".join(out) + "\n"
