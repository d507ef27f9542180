"""Band storage for cyclic heptadiagonal matrices.

An order-n matrix is held as seven length-n band vectors D, B, b, d, a, A, C
with 1-based index semantics: row i carries

    H[i, i-3] = D_i   H[i, i-2] = B_i   H[i, i-1] = b_i   H[i, i] = d_i
    H[i, i+1] = a_i   H[i, i+2] = A_i   H[i, i+3] = C_i

where column indices wrap modulo n into 1..n, producing the cyclic corner
entries H[1,n] = b_1, H[1,n-1] = B_1, H[2,n] = B_2, H[n-1,1] = A_{n-1},
H[n,1] = a_n and H[n,2] = A_n.  The wrap positions D_1..D_3 and
C_{n-2}..C_n would collide with other bands, so they are stored but must be
zero.  Orders below 8 are rejected: the border recurrences reach back seven
rows.
"""

from __future__ import annotations

import csv
import io
import json
import random
from array import array
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from math import isfinite, lcm
from numbers import Rational, Real
from operator import add, attrgetter
from typing import Iterable, Sequence

from .scalars import float_entries, format_scalar, parse_scalar, scalar_formatter

BAND_NAMES = ("D", "B", "b", "d", "a", "A", "C")

# column offset j - i, wrapped into -3..3, -> band holding the entry
_BAND_AT = dict(zip(range(-3, 4), BAND_NAMES))

PROFILES = ("general", "diagonally-dominant", "zero-pivot-prone", "zero-C")

_denominator = attrgetter("denominator")


def _offset_band(n: int, i: int, j: int):
    """Band name owning position (i, j) of an order-n matrix, or None."""
    off = (j - i) % n
    return _BAND_AT.get(off if off <= 3 else off - n)


def band_product(bands, x) -> list:
    """H x for the bands of H, 0-based sequences in the order of
    ``BAND_NAMES``, and a 0-based ``x`` of length n.

    Entry i adds band[i] * x[(i + off) % n] over the offsets -3..3 in that
    order, so float and rational-function entries are summed in one fixed
    order.
    """
    n = len(x)
    return [reduce(add, (band[i] * x[(i + off) % n] for band, off in zip(bands, range(-3, 4))))
            for i in range(n)]


def _to_scalar(value):
    """A real number (int, float, numpy scalar, Decimal) or a scalar text as
    its exact Fraction; TypeError naming the type of anything else."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Rational):  # the numpy integers, among others
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, (Real, Decimal)):  # float, the numpy floats
        try:
            return Fraction(*map(int, value.as_integer_ratio()))
        except OverflowError:  # inf; NaN raises ValueError itself
            raise ValueError(f"cannot convert {value!r} to a rational") from None
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"an entry must be a real number or a scalar text, not {type(value).__name__}")


def exact_vector(values, label: str) -> list:
    """``values`` read as ``_to_scalar`` reads them, as a list of Fractions.

    An entry that has no exact value raises ValueError naming ``label`` and
    the entry's 1-based index; a scalar that is neither a real number nor a
    text raises TypeError naming its type.
    """
    out = []
    for i, value in enumerate(values, start=1):
        try:
            out.append(_to_scalar(value))
        except ValueError as exc:
            raise ValueError(f"{label} entry {i}: {exc}") from None
    return out


class CyclicHeptaMatrix:
    """Immutable cyclic heptadiagonal matrix in band form, every entry a
    ``Fraction``: the constructor reads each band with ``exact_vector``, so
    a value with no exact value is refused naming its band and entry, and
    any other scalar with TypeError naming its type."""

    __slots__ = ("n", "D", "B", "b", "d", "a", "A", "C")

    def __init__(self, n: int, D, B, b, d, a, A, C):
        if n < 8:
            raise ValueError(f"order too small: n={n}, need n >= 8")
        vectors = {}
        for name, vec in zip(BAND_NAMES, (D, B, b, d, a, A, C)):
            vec = tuple(exact_vector(vec, f"band {name!r}"))
            if len(vec) != n:
                raise ValueError(f"band {name!r} has length {len(vec)}, expected {n}")
            vectors[name] = vec
        _check_wraps(n, vectors)
        object.__setattr__(self, "n", n)
        for name in BAND_NAMES:
            object.__setattr__(self, name, vectors[name])

    def __setattr__(self, name, value):
        raise AttributeError("CyclicHeptaMatrix is immutable")

    def band(self, name: str) -> tuple:
        return getattr(self, name)

    def bands(self) -> dict:
        return {name: getattr(self, name) for name in BAND_NAMES}

    def get(self, i: int, j: int):
        """Entry H[i, j] with 1-based indices; exact zero off the pattern."""
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"index ({i}, {j}) out of range for order {n}")
        name = _offset_band(n, i, j)
        if name is None:
            return Fraction(0)
        return getattr(self, name)[i - 1]

    def row(self, i: int) -> list:
        return [self.get(i, j) for j in range(1, self.n + 1)]

    def replace_band(self, name: str, values: Iterable) -> "CyclicHeptaMatrix":
        """New matrix with one band swapped out (validation re-runs)."""
        bands = self.bands()
        bands[name] = tuple(values)
        return CyclicHeptaMatrix(self.n, *(bands[k] for k in BAND_NAMES))

    def mat_vec(self, x: Sequence) -> list:
        """H @ x, wrap-aware, O(n)."""
        if len(x) != self.n:
            raise ValueError(f"vector length {len(x)} != order {self.n}")
        return band_product([self.band(k) for k in BAND_NAMES], x)

    def float_bands(self) -> dict:
        """Bands as 1-based arrays of doubles (slot 0 unused) for the kernels."""
        return {name: float_vector(self.band(name), f"band {name}") for name in BAND_NAMES}

    def max_abs_entry(self) -> float:
        return max(
            (abs(float(v)) for name in BAND_NAMES for v in self.band(name)),
            default=0.0,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicHeptaMatrix):
            return NotImplemented
        return self.n == other.n and all(
            self.band(k) == other.band(k) for k in BAND_NAMES
        )

    def __hash__(self):
        return hash((self.n,) + tuple(self.band(k) for k in BAND_NAMES))

    def __repr__(self) -> str:
        return f"CyclicHeptaMatrix(n={self.n})"


class FloatHeptaMatrix:
    """A cyclic heptadiagonal matrix held for the float lane only: the order
    and the seven bands as 0-based lists of floats.

    ``matrix_from_json(text, backend="float")`` builds it without a Fraction
    per entry: each band is read in one ``scalars.float_entries`` call, which
    runs ``float_scalar`` only on an entry of an odd shape or value.  The
    float-lane entry points (``determinant(H, "float")``, ``solve_many(H,
    ..., backend="float")``, ``inverse_float``) take it in place of a
    ``CyclicHeptaMatrix``; they read only ``n`` and ``float_bands()``.  A
    wrap position holds the exact value it was checked with, and an entry
    beyond the float64 range its exact value, which ``float_bands`` reports,
    as it does for a ``CyclicHeptaMatrix``.
    """

    __slots__ = ("n", "_bands")

    def __init__(self, n: int, bands: dict):
        if n < 8:
            raise ValueError(f"order too small: n={n}, need n >= 8")
        for name in BAND_NAMES:
            if len(bands[name]) != n:
                raise ValueError(f"band {name!r} has length {len(bands[name])}, expected {n}")
        _check_wraps(n, bands)
        self.n = n
        self._bands = bands

    def float_bands(self) -> dict:
        """Bands as 1-based arrays of doubles (slot 0 unused) for the kernels."""
        return {name: float_vector(self._bands[name], f"band {name}") for name in BAND_NAMES}

    def __repr__(self) -> str:
        return f"FloatHeptaMatrix(n={self.n})"


def _check_wraps(n: int, bands: dict) -> None:
    for idx in (1, 2, 3):
        if bands["D"][idx - 1] != 0:
            raise ValueError(f"band wrap violation: D_{idx} must be zero")
    for idx in (n - 2, n - 1, n):
        if bands["C"][idx - 1] != 0:
            raise ValueError(f"band wrap violation: C_{idx} must be zero")


def row_scaled(H: CyclicHeptaMatrix, columns=()) -> tuple:
    """H' = diag(L) H and r' = L r as Python ints: (L, bands, columns).

    L_i is the lcm of the denominators in row i of H and of every column;
    the band entries of index i all sit in row i.  Bands and columns are
    0-based lists in the order of ``BAND_NAMES`` and of ``columns``.
    """
    rows = [H.band(name) for name in BAND_NAMES] + list(columns)
    scales = [lcm(*map(_denominator, entries)) for entries in zip(*rows)]
    scaled = [[v.numerator if s == 1 else v.numerator * (s // v.denominator)
               for v, s in zip(row, scales)] for row in rows]
    return scales, scaled[:len(BAND_NAMES)], scaled[len(BAND_NAMES):]


def float_vector(values, label: str) -> array:
    """A sequence ``values`` as a 1-based array of doubles (slot 0 unused).

    An array holds the values in a quarter of the memory of a list of
    floats.  A float entry is taken as it is; any other entry is read as
    ``_to_scalar`` reads it, exactly (a text, a ``Fraction``, an int), and
    rounded once, so the entries the exact lane refuses are refused here
    too.  An entry that is not finite, or lies beyond the float64 range,
    raises ValueError naming ``label`` and the entry's 1-based index.
    """
    try:
        # array converts through __float__, for a Fraction the division below
        out = array("d", [0.0, *values])
    except (OverflowError, TypeError):
        pass  # the loop names the entry beyond range, and reads a text
    else:
        # NaN or infinity in any entry makes the sum one of them; a sum of
        # finite entries that overflows only sends them through the loop
        if isfinite(sum(out)):
            return out
    out = array("d", [0.0])
    for i, value in enumerate(values, start=1):
        if not isinstance(value, float):
            try:
                value = _to_scalar(value)
            except ValueError as exc:
                raise ValueError(f"{label} entry {i}: {exc}") from None
            try:
                value = value.numerator / value.denominator
            except OverflowError:
                raise ValueError(
                    f"{label} entry {i} is beyond the float64 range; use the exact backend"
                ) from None
        if not isfinite(value):
            raise ValueError(f"{label} entry {i} is not finite")
        out.append(value)
    return out


class DenseMatrix:
    """Square dense matrix of exact scalars; oracle and test surface."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("dense matrix must be square")
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        bt = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out.append([sum(u * v for u, v in zip(row, col)) for col in bt])
        return DenseMatrix(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        # rational functions are kept reduced with a monic denominator, so
        # == on them is equality of values, as on rationals
        return self.n == other.n and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        return f"DenseMatrix(n={self.n})"


def to_dense(H: CyclicHeptaMatrix) -> DenseMatrix:
    return DenseMatrix([H.row(i) for i in range(1, H.n + 1)])


def from_dense(M: DenseMatrix) -> CyclicHeptaMatrix:
    """Extract bands; any nonzero entry off the allowed pattern is rejected."""
    n = M.n
    if n < 8:
        raise ValueError(f"order too small: n={n}, need n >= 8")
    bands = {name: [Fraction(0)] * n for name in BAND_NAMES}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            name = _offset_band(n, i, j)
            value = M.rows[i - 1][j - 1]
            if name is None:
                if value != 0:
                    raise ValueError(f"pattern violation at ({i}, {j})")
            else:
                bands[name][i - 1] = value
    return CyclicHeptaMatrix(n, *(bands[k] for k in BAND_NAMES))


def random_instance(n: int, seed: int, profile: str = "general") -> CyclicHeptaMatrix:
    """Deterministic test instance with integer entries in [-9, 9].

    Profiles:
      general             unconstrained draw
      diagonally-dominant |d_i| strictly exceeds the sum of the row's other
                          magnitudes (hence provably nonsingular)
      zero-pivot-prone    d_1 = 0, forcing the first pivot substitution
      zero-C              one C_i with i <= n-5 zeroed, forcing the band
                          substitution in the inversion back-pass
    """
    if n < 8:
        raise ValueError(f"order too small: n={n}, need n >= 8")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    rng = random.Random(f"{n}:{seed}:{profile}")
    bands = {name: [rng.randint(-9, 9) for _ in range(n)] for name in BAND_NAMES}
    for idx in (1, 2, 3):
        bands["D"][idx - 1] = 0
    for idx in (n - 2, n - 1, n):
        bands["C"][idx - 1] = 0
    if profile == "diagonally-dominant":
        for i in range(n):
            others = sum(abs(bands[k][i]) for k in BAND_NAMES if k != "d")
            sign = 1 if rng.random() < 0.5 else -1
            bands["d"][i] = sign * (others + rng.randint(1, 9))
    elif profile == "zero-pivot-prone":
        bands["d"][0] = 0
    elif profile == "zero-C":
        bands["C"][rng.randint(1, n - 5) - 1] = 0
    return CyclicHeptaMatrix(n, *(bands[k] for k in BAND_NAMES))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def matrix_to_json(H: CyclicHeptaMatrix) -> str:
    """Matrix file format: {"n": ..., "D": [...], ..., "C": [...]} with
    scalar strings, arrays in 1-based order (position k-1 holds index k)."""
    payload = {"n": H.n}
    for name in BAND_NAMES:
        payload[name] = [format_scalar(v) for v in H.band(name)]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_entries(items, parse, label: str) -> list:
    """``parse`` (an ``entries_parser``) of the texts ``str(item)``, in one
    call; a ValueError names ``label`` and the first failing item's 1-based
    position.

    ``items`` is a list as JSON reads it: a string is its own text, and
    only a list that holds anything else (a JSON integer, say) is
    converted."""
    texts = items if all(map(str.__instancecheck__, items)) else list(map(str, items))
    try:
        return parse(texts)
    except ValueError:
        # parse again, one entry at a time, to name the first entry that fails
        for k, item in enumerate(items, start=1):
            try:
                parse([str(item)])
            except ValueError as exc:
                raise ValueError(f"{label} entry {k}: {exc}") from exc
        raise


def _exact_entries(texts) -> list:
    return list(map(parse_scalar, texts))


def entries_parser(backend: str):
    """Parser of entry texts (an iterable) read for ``backend``, into a list:
    exact Fractions (``parse_scalar``), or for the float lane floats
    straight from the text (``float_entries``).  Either raises the error of
    the first entry that fails."""
    if backend == "exact":
        return _exact_entries
    if backend == "float":
        return float_entries
    raise ValueError(f"unknown backend {backend!r}")


def matrix_from_json(text: str, backend: str = "exact"):
    """Read the matrix file format: a ``CyclicHeptaMatrix`` of Fractions, or
    for ``backend="float"`` a ``FloatHeptaMatrix`` with the same float64
    bands and no Fraction per entry.

    JSON numbers are read from their literal text.  Errors come in one
    order on both lanes: a malformed file or entry first, then an order
    below 8, then a nonzero wrap position, then (float lane, when the bands
    are converted) an entry beyond the float64 range.
    """
    parse = entries_parser(backend)
    try:
        payload = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid matrix file: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload:
        raise ValueError("invalid matrix file: missing field 'n'")
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("invalid matrix file: field 'n' must be an integer")
    bands = {}
    for name in BAND_NAMES:
        if name not in payload:
            raise ValueError(f"invalid matrix file: missing band {name!r}")
        raw = payload[name]
        if not isinstance(raw, list) or len(raw) != n:
            raise ValueError(f"invalid matrix file: band {name!r} must be a length-{n} array")
        bands[name] = parse_entries(raw, parse, f"band {name!r}")
    if backend == "exact":
        return CyclicHeptaMatrix(n, *(bands[k] for k in BAND_NAMES))
    if n >= 8:
        # the wrap positions must be exactly zero: 1e-400 reads as 0.0
        for name, positions in (("D", range(3)), ("C", range(n - 3, n))):
            for k in positions:
                bands[name][k] = parse_scalar(str(payload[name][k]))
    return FloatHeptaMatrix(n, bands)


def dense_to_csv(M: DenseMatrix) -> str:
    """Dense CSV: n rows of n comma-separated scalar strings.

    ``format_scalar`` text never holds a comma, a quote or a newline, so no
    field needs CSV quoting.
    """
    fmt = scalar_formatter()
    return "".join(",".join(map(fmt, row)) + "\n" for row in M.rows)


def dense_from_csv(text: str) -> DenseMatrix:
    rows = []
    for lineno, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not record:
            continue
        try:
            rows.append([parse_scalar(cell) for cell in record])
        except ValueError as exc:
            raise ValueError(f"dense CSV row {lineno}: {exc}") from exc
    if not rows:
        raise ValueError("dense CSV is empty")
    return DenseMatrix(rows)
