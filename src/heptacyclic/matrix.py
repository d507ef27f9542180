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
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import RatFun, format_scalar, is_zero, parse_scalar

BAND_NAMES = ("D", "B", "b", "d", "a", "A", "C")

# offset (j - i) mod n -> band holding the entry; offsets use n via callable
_FORWARD_OFFSETS = {0: "d", 1: "a", 2: "A", 3: "C"}

PROFILES = ("general", "diagonally-dominant", "zero-pivot-prone", "zero-C")


def _offset_band(n: int, i: int, j: int):
    """Band name owning position (i, j) of an order-n matrix, or None."""
    off = (j - i) % n
    if off in _FORWARD_OFFSETS:
        return _FORWARD_OFFSETS[off]
    if off == n - 1:
        return "b"
    if off == n - 2:
        return "B"
    if off == n - 3:
        return "D"
    return None


def _to_scalar(value):
    if isinstance(value, (Fraction, RatFun)):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    # duck-typed scalars (e.g. the op-counting wrapper) pass through
    return value


class CyclicHeptaMatrix:
    """Immutable cyclic heptadiagonal matrix in band form."""

    __slots__ = ("n", "D", "B", "b", "d", "a", "A", "C")

    def __init__(self, n: int, D, B, b, d, a, A, C):
        if n < 8:
            raise ValueError(f"order too small: n={n}, need n >= 8")
        vectors = {}
        for name, vec in zip(BAND_NAMES, (D, B, b, d, a, A, C)):
            vec = tuple(_to_scalar(v) for v in vec)
            if len(vec) != n:
                raise ValueError(f"band {name!r} has length {len(vec)}, expected {n}")
            vectors[name] = vec
        for idx in (1, 2, 3):
            if not is_zero(vectors["D"][idx - 1]):
                raise ValueError(f"band wrap violation: D_{idx} must be zero")
        for idx in (n - 2, n - 1, n):
            if not is_zero(vectors["C"][idx - 1]):
                raise ValueError(f"band wrap violation: C_{idx} must be zero")
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
        n = self.n
        if len(x) != n:
            raise ValueError(f"vector length {len(x)} != order {n}")
        out = []
        for i in range(1, n + 1):
            acc = None
            for off in (-3, -2, -1, 0, 1, 2, 3):
                j = (i + off - 1) % n + 1
                hij = self.get(i, j)
                term = hij * x[j - 1]
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

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


def float_vector(values, label: str) -> array:
    """``values`` as a 1-based array of doubles (slot 0 unused).

    An array holds the values in a quarter of the memory of a list of
    floats.  An entry beyond the float64 range raises ValueError naming
    ``label`` and the entry's 1-based index.
    """
    out = [0.0]
    for i, value in enumerate(values, start=1):
        try:
            if type(value) is Fraction:
                # the division float() does, without its generic dispatch
                out.append(value.numerator / value.denominator)
            else:
                out.append(float(value))
        except OverflowError:
            raise ValueError(
                f"{label} entry {i} is beyond the float64 range; use the exact backend"
            ) from None
    return array("d", out)


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

    def entry(self, i: int, j: int):
        """1-based accessor."""
        return self.rows[i - 1][j - 1]

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
                if not is_zero(value):
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


def matrix_from_json(text: str) -> CyclicHeptaMatrix:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid matrix file: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload:
        raise ValueError("invalid matrix file: missing field 'n'")
    n = payload["n"]
    if not isinstance(n, int):
        raise ValueError("invalid matrix file: field 'n' must be an integer")
    bands = {}
    for name in BAND_NAMES:
        if name not in payload:
            raise ValueError(f"invalid matrix file: missing band {name!r}")
        raw = payload[name]
        if not isinstance(raw, list) or len(raw) != n:
            raise ValueError(f"invalid matrix file: band {name!r} must be a length-{n} array")
        parsed = []
        for k, item in enumerate(raw, start=1):
            try:
                parsed.append(parse_scalar(str(item)))
            except ValueError as exc:
                raise ValueError(f"band {name!r} entry {k}: {exc}") from exc
        bands[name] = parsed
    return CyclicHeptaMatrix(n, *(bands[k] for k in BAND_NAMES))


def dense_to_csv(M: DenseMatrix) -> str:
    """Dense CSV: n rows of n comma-separated scalar strings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in M.rows:
        writer.writerow([format_scalar(v) for v in row])
    return buf.getvalue()


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
