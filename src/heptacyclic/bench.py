"""Benchmark helpers: wall-clock timing and field-operation counting.

Operation counts come from running the generic recurrences over a wrapper
scalar that increments a shared counter on every arithmetic operation
(add/sub/mul/div/neg).  The wrapper carries plain floats, so counting is
cheap even at n in the thousands; it is supported wherever no symbolic
substitution fires (use the diagonally-dominant profile, the default).

The float kernels get one timing row each: the inverse (``inv/float``) and
a single right-hand-side solve (``solve/float``), both including the factor
sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .factor import determinant, factorize
from .inverse import inverse_float
from .matrix import CyclicHeptaMatrix, random_instance
from .solve import solve_many, solve_via_lu


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

    __radd__ = __add__

    def __sub__(self, other):
        self.counter.count += 1
        return self._wrap(self.value - self._unwrap(other))

    def __rsub__(self, other):
        self.counter.count += 1
        return self._wrap(self._unwrap(other) - self.value)

    def __mul__(self, other):
        self.counter.count += 1
        return self._wrap(self.value * self._unwrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        self.counter.count += 1
        return self._wrap(self.value / self._unwrap(other))

    def __rtruediv__(self, other):
        self.counter.count += 1
        return self._wrap(self._unwrap(other) / self.value)

    def __neg__(self):
        self.counter.count += 1
        return self._wrap(-self.value)

    def __abs__(self):
        return self._wrap(abs(self.value))

    def __eq__(self, other):
        return self.value == self._unwrap(other)

    def __hash__(self):
        return hash(self.value)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"CountingScalar({self.value})"


def counting_matrix(H: CyclicHeptaMatrix, counter: OpCounter) -> CyclicHeptaMatrix:
    """Clone of H whose entries count their arithmetic (float-backed)."""
    bands = {
        name: [CountingScalar(float(v), counter) for v in H.band(name)]
        for name in H.bands()
    }
    return CyclicHeptaMatrix(H.n, *(bands[k] for k in ("D", "B", "b", "d", "a", "A", "C")))


def count_det_ops(H: CyclicHeptaMatrix) -> int:
    """Field operations performed by the determinant at this order."""
    counter = OpCounter()
    determinant(counting_matrix(H, counter))
    return counter.count


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class BenchRow:
    n: int
    command: str
    wall_time_s: float
    field_ops: object  # int where counted, "" otherwise


def bench_suite(n: int, seed: int, profile: str = "diagonally-dominant", repeats: int = 3):
    """Benchmark rows for one instance: exact det (timed and counted),
    exact solve, float inverse and float solve."""
    H = random_instance(n, seed, profile)
    rows = []

    wall = _best_of(lambda: determinant(H), repeats)
    rows.append(BenchRow(n, "det/exact", wall, count_det_ops(H)))

    fd = factorize(H)
    rhs = [1] * n
    wall = _best_of(lambda: solve_via_lu(fd, H, rhs), repeats)
    rows.append(BenchRow(n, "solve/exact", wall, ""))

    wall = _best_of(lambda: inverse_float(H), repeats)
    rows.append(BenchRow(n, "inv/float", wall, ""))
    wall = _best_of(lambda: solve_many(H, [rhs], backend="float"), repeats)
    rows.append(BenchRow(n, "solve/float", wall, ""))
    return rows


def rows_to_csv(rows) -> str:
    out = ["n,command,wall_time_s,field_ops"]
    for row in rows:
        out.append(f"{row.n},{row.command},{row.wall_time_s:.6f},{row.field_ops}")
    return "\n".join(out) + "\n"
