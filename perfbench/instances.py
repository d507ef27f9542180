"""Seeded instance generation for the benchmark.

Every instance is planted directly in band form, so the benchmark controls
exactly which substitutions the exact lane has to make: none on a strictly
diagonally dominant matrix whose free C_j are nonzero, and exactly the
planted ones otherwise.  The package's own ``random_instance`` profiles are
not used: at n >= 64 they leave unplanned zero C_j behind, which would make
the amount of symbolic work depend on the seed.

Bands use the package's file convention: seven length-n lists, 1-based
semantics (list position k-1 holds index k), row i carrying band X at
column i + offset, wrapped modulo n.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

BAND_OFFSETS = {"D": -3, "B": -2, "b": -1, "d": 0, "a": 1, "A": 2, "C": 3}
BAND_NAMES = tuple(BAND_OFFSETS)


@dataclass
class Instance:
    """A matrix in band form plus the substitutions planted in it."""

    n: int
    bands: dict
    zero_c: tuple = ()          # C_j (1-based, j <= n-5) planted as exact zeros
    zero_pivots: tuple = ()     # pivot indices planted to vanish

    @property
    def plain(self) -> bool:
        """True when no substitution can fire on the exact lane."""
        return not (self.zero_c or self.zero_pivots)

    def to_json(self) -> str:
        payload = {"n": self.n}
        for name in BAND_NAMES:
            payload[name] = [_text(v) for v in self.bands[name]]
        return json.dumps(payload, sort_keys=True) + "\n"


def _text(v) -> str:
    """Scalar string: integer, terminating two-digit decimal, or p/q."""
    if isinstance(v, Fraction) and v.denominator != 1 and 100 % v.denominator == 0:
        return f"{float(v):.2f}"
    return str(v)


def rng_for(workload: str, seed: int, tag: str) -> random.Random:
    """Independent stream per (workload, seed, instance tag)."""
    return random.Random(f"perfbench:{workload}:{seed}:{tag}")


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in lo..hi (one C-level call, unlike randint)."""
    return lo + int(rng.random() * (hi - lo + 1))


def _nonzero(rng: random.Random, hi: int = 9) -> int:
    """Uniform over -hi..-1, 1..hi."""
    k = _draw(rng, 0, 2 * hi - 1)
    return k - hi if k < hi else k - hi + 1


def _sign(rng: random.Random) -> int:
    return 1 if rng.random() < 0.5 else -1


def dominant(rng: random.Random, n: int, rational: bool = False) -> Instance:
    """Strictly row diagonally dominant instance with no free entry zero.

    Every off-diagonal entry is drawn away from zero, so every free C_j is
    nonzero and no accidental zero changes the amount of work.  Strict row
    dominance keeps every leading principal minor nonzero, so no pivot of
    the unpivoted bordered LU vanishes.  Entries are ints; with
    ``rational`` the B, b, a, A entries are Fractions with denominators up
    to 97.
    """
    if n < 8:
        raise ValueError(f"order too small: n={n}")
    bands = {name: [_nonzero(rng) for _ in range(n)] for name in BAND_NAMES}
    if rational:
        for name in ("B", "b", "a", "A"):
            bands[name] = [Fraction(_nonzero(rng, 99), _draw(rng, 1, 97)) for _ in range(n)]
    _clear_wraps(bands, n)
    for i in range(n):
        others = sum(abs(bands[k][i]) for k in BAND_NAMES if k != "d")
        bands["d"][i] = _sign(rng) * (others + _draw(rng, 1, 9))
    return Instance(n=n, bands=bands)


def _clear_wraps(bands: dict, n: int) -> None:
    """D_1..D_3 and C_{n-2}..C_n would wrap onto other bands: zero them."""
    for idx in (1, 2, 3):
        bands["D"][idx - 1] = 0
    for idx in (n - 2, n - 1, n):
        bands["C"][idx - 1] = 0


def unit_diagonal(rng: random.Random, n: int, rational: bool = False) -> Instance:
    """Dominant instance with d_i = +-1 and small off-diagonal entries.

    Every pivot stays near +-1, so the float determinant of a large order
    neither overflows nor underflows.  Off-diagonal entries are two-digit
    decimals, or p/q with q in 60..97 when ``rational``; six of them sum
    to less than 1 either way.
    """
    def entry():
        if rational:
            return Fraction(_nonzero(rng), _draw(rng, 60, 97))
        return Fraction(_nonzero(rng), 100)

    bands = {name: [entry() for _ in range(n)] for name in BAND_NAMES}
    bands["d"] = [_sign(rng) for _ in range(n)]
    _clear_wraps(bands, n)
    return Instance(n=n, bands=bands)


def _pick_positions(rng: random.Random, lo: int, hi: int, count: int) -> tuple:
    return tuple(sorted(rng.sample(range(lo, hi + 1), count)))


def c_window(n: int) -> tuple:
    """Positions for planted zero C_j.

    The symbolic work grows with the number of rows after the first
    substituted C_j, so the positions are drawn from a fixed window rather
    than from all of 1..n-5; a seed then moves the cost only a little.
    """
    lo = max(1, n // 2 - 4)
    return lo, min(n - 5, lo + 7)


def with_zero_c(inst: Instance, rng: random.Random, count: int) -> Instance:
    """Plant ``count`` zero C_j (1-based) in the window; dominance survives."""
    lo, hi = c_window(inst.n)
    pos = _pick_positions(rng, lo, hi, count)
    for j in pos:
        inst.bands["C"][j - 1] = 0
    inst.zero_c = tuple(sorted(set(inst.zero_c) | set(pos)))
    return inst


def with_zero_d1(inst: Instance) -> Instance:
    """d_1 = 0: the first pivot vanishes, every other row stays dominant,
    so exactly one pivot override fires."""
    inst.bands["d"][0] = 0
    inst.zero_pivots = tuple(sorted(set(inst.zero_pivots) | {1}))
    return inst


def collision(rng: random.Random, n: int) -> Instance:
    """Structural zero pivot 4 together with C_1 = 0.

    Row 4 is zero in columns 1..4, so the fourth pivot vanishes even after
    C_1 has been replaced by the indeterminate; the two substitutions then
    share it, which sends the exact inverse down its bordered-solve path.
    """
    inst = dominant(rng, n)
    for name in ("D", "B", "b", "d"):
        inst.bands[name][3] = 0
    inst.bands["C"][0] = 0
    inst.zero_c = (1,)
    inst.zero_pivots = (4,)
    return inst


def zero_row(rng: random.Random, n: int) -> Instance:
    """Singular instance: one row near the top is entirely zero, so its
    pivot vanishes and the determinant is 0."""
    inst = dominant(rng, n)
    k = _draw(rng, 2, 9)
    for name in BAND_NAMES:
        inst.bands[name][k - 1] = 0
    inst.zero_pivots = (k,)
    return inst


def int_vector(rng: random.Random, n: int) -> list:
    return [_draw(rng, -9, 9) for _ in range(n)]


def rhs_json(column: list) -> str:
    return json.dumps([str(v) for v in column]) + "\n"


def rhs_csv(columns: list) -> str:
    return "".join(",".join(str(col[i]) for col in columns) + "\n" for i in range(len(columns[0])))
