"""Linear system solvers Hx = r: ``solve_many``, one factorization for any
number of right-hand sides, on either lane.

Both lanes take the bordered LU factors in the same pivot order, O(n) per
right-hand side.  The float lane runs one factor sweep and one
forward/back substitution per column.  The exact lane runs one
division-free elimination with all its columns as right-hand sides over
word-size primes and rebuilds det * x by Chinese remaindering
(``residues.solve``).  When a pivot of H is structurally zero, it solves
H(s) x(s) = r at concrete points of H(s) = H + s*G (G the zero pivots), as
more lanes of the same elimination, with det * x interpolated to s = 0;
the right-hand side needs no substitution, since the band entries are
never divided by.  A prime that divides a nonzero pivot is dropped and the
lane eliminates again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from math import lcm
from typing import Sequence

from . import kernels
from .errors import SingularMatrixError
from .factor import factorize, lu_substitute
from .matrix import (CyclicHeptaMatrix, band_product, entries_parser, exact_vector, float_vector,
                     parse_entries, row_scaled)

# perfbench/tracer.py wraps this module attribute, so it stays bound
from .scalars import eval_at_zero  # noqa: F401


@dataclass(frozen=True)
class SolveReport:
    x: tuple
    det: object
    method: str
    backend: str
    substitutions_fired: dict = field(default_factory=dict)


def _solve_exact(H: CyclicHeptaMatrix, columns: list) -> list[SolveReport]:
    """Exact solutions of checked columns: one elimination over word-size
    primes, zero pivot or not.  A singular H raises SingularMatrixError."""
    from . import residues  # loaded on first use, outside the import time of the package

    n = H.n
    det, overrides, values = residues.solve(H, columns)
    if values is None:
        raise SingularMatrixError("singular matrix")
    return [
        SolveReport(x=tuple(values[k * n:(k + 1) * n]), det=det, method="via-lu",
                    backend="exact", substitutions_fired={"pivot_overrides": len(overrides)})
        for k in range(len(columns))
    ]


def is_solution(H: CyclicHeptaMatrix, x: Sequence, r: Sequence) -> bool:
    """Whether H x == r exactly, decided over integers.

    With x = N / den (den the lcm of x's denominators) and H' = diag(L) H,
    r' = L r as in ``matrix.row_scaled``, row i of H x == r is row i of
    H' N == den r' divided by L_i den.
    """
    den = lcm(*(v.denominator for v in x))
    N = [v.numerator * (den // v.denominator) for v in x]
    _, bands, (rs,) = row_scaled(H, [r])
    return band_product(bands, N) == [den * v for v in rs]


def solve_many(H: CyclicHeptaMatrix, columns: Sequence[Sequence], backend: str = "exact",
               tol: float = 1e-12) -> list[SolveReport]:
    """Independent right-hand sides, one report per column.

    One factor sweep serves every column and the reported determinant (on
    the exact lane, over the lanes of every concrete point when a pivot is
    zero).  On the float lane ``H`` may also be a ``FloatHeptaMatrix``, and
    every column is converted to float64 before the sweep.
    """
    read = exact_vector if backend == "exact" else float_vector
    rhs = []
    for idx, col in enumerate(columns, start=1):
        if len(col) != H.n:
            raise ValueError(f"right-hand side length {len(col)} != order {H.n}")
        rhs.append(read(col, "rhs" if len(columns) == 1 else f"rhs column {idx}"))
    if backend == "exact":
        return _solve_exact(H, rhs)
    fd = factorize(H, backend, tol)
    det = kernels.pivot_product(fd.alpha[1:])
    return [
        SolveReport(x=tuple(lu_substitute(fd, r[1:])), det=det, method="via-lu", backend="float")
        for r in rhs
    ]


# ---------------------------------------------------------------------------
# right-hand-side file format: JSON array of scalar strings, or a CSV column
# ---------------------------------------------------------------------------

def vector_from_text(text: str, backend: str = "exact") -> list[list]:
    """Parse an rhs file; returns a list of columns (CSV may carry several).

    Entries are Fractions, or for ``backend="float"`` floats read straight
    from the text, as ``matrix_from_json`` reads the bands: all the entries
    of the file in one ``float_entries`` call.  JSON numbers are read from
    their literal text.  A CSV file reports the first row with a bad entry
    before rows of unequal width.
    """
    parse = entries_parser(backend)
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            payload = json.loads(stripped, parse_float=str)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid rhs file: {exc}") from exc
        if not isinstance(payload, list):
            raise ValueError("invalid rhs file: expected a JSON array")
        return [parse_entries(payload, parse, "rhs")]
    lines = stripped.splitlines()
    rows = list(filter(None, map(str.strip, lines)))
    if not rows:
        raise ValueError("rhs file is empty")
    try:
        # the cells are split as the parser reads them, not held all at once
        values = parse(chain.from_iterable(map(str.split, rows, repeat(","))))
    except ValueError:
        # parse again, one row at a time, to name the first row that fails
        for lineno, line in enumerate(map(str.strip, lines), start=1):
            try:
                if line:
                    parse(line.split(","))
            except ValueError as exc:
                raise ValueError(f"rhs row {lineno}: {exc}") from exc
        raise
    widths = set(map(str.count, rows, repeat(",")))
    if len(widths) > 1:
        raise ValueError("rhs CSV rows have inconsistent width")
    width = widths.pop() + 1
    return [values[k::width] for k in range(width)]
