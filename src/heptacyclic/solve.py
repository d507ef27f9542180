"""Linear system solvers Hx = r.

Forward/back substitution through the bordered LU factors, O(n) per
right-hand side; the exact and float lanes run the same substitution.
The exact lane goes through ``factor.interpolate``: one plain sweep, or,
when a pivot of H is structurally zero, H(s) x(s) = r at concrete points of
H(s) = H + s*G (G the zero pivots) with det * x interpolated to s = 0; the
right-hand side needs no substitution, since the band entries are never
divided by.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import SingularMatrixError
from .factor import (
    FactorData,
    det_from_factors,
    factorize,
    interpolate,
    lu_substitute,
    require_nonsingular,
)
from .matrix import CyclicHeptaMatrix, entry_parser, float_vector, parse_entries

# perfbench/tracer.py wraps this module attribute, so it stays bound
from .scalars import eval_at_zero  # noqa: F401


@dataclass(frozen=True)
class SolveReport:
    x: tuple
    det: object
    method: str
    backend: str
    substitutions_fired: dict = field(default_factory=dict)


def _check_rhs(H: CyclicHeptaMatrix, r: Sequence):
    if len(r) != H.n:
        raise ValueError(f"right-hand side length {len(r)} != order {H.n}")
    return [Fraction(v) if isinstance(v, int) else v for v in r]


def solve_via_lu(fd: FactorData, H: CyclicHeptaMatrix, r: Sequence) -> SolveReport:
    """Forward/back substitution through the factors.

    The factor data must come from factorize(H).  If that sweep overrode
    pivots, the solve runs at concrete points instead, so t never reaches
    the substitution.
    """
    r = _check_rhs(H, r)
    if fd.overrides:
        return _solve_exact(H, [r])[0]
    det = require_nonsingular(fd)
    return SolveReport(
        x=tuple(lu_substitute(fd, r)),
        det=det,
        method="via-lu",
        backend=fd.backend,
        substitutions_fired={"pivot_overrides": 0},
    )


def _solve_exact(H: CyclicHeptaMatrix, columns: list) -> list[SolveReport]:
    """Exact solutions of checked columns through ``interpolate``."""
    n = H.n
    det, overrides, values = interpolate(
        H, lambda fd, Hs: [v for col in columns for v in lu_substitute(fd, col)])
    if values is None:
        raise SingularMatrixError("singular matrix")
    return [
        SolveReport(x=tuple(values[k * n:(k + 1) * n]), det=det, method="via-lu",
                    backend="exact", substitutions_fired={"pivot_overrides": len(overrides)})
        for k in range(len(columns))
    ]


def solve_many(H: CyclicHeptaMatrix, columns: Sequence[Sequence], backend: str = "exact",
               tol: float = 1e-12) -> list[SolveReport]:
    """Independent right-hand sides, one report per column.

    One factor sweep serves every column and the reported determinant (on
    the exact lane, one per concrete point when a pivot is zero).  On the
    float lane ``H`` may also be a ``FloatHeptaMatrix``, and every column is
    converted to float64 before the sweep.
    """
    if backend == "exact":
        return _solve_exact(H, [_check_rhs(H, col) for col in columns])
    rhs = []
    for idx, col in enumerate(columns, start=1):
        if len(col) != H.n:
            raise ValueError(f"right-hand side length {len(col)} != order {H.n}")
        rhs.append(float_vector(col, "rhs" if len(columns) == 1 else f"rhs column {idx}"))
    fd = factorize(H, backend, tol)
    det = det_from_factors(fd)
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
    from the text, as ``matrix_from_json`` reads the bands.  JSON numbers
    are read from their literal text.
    """
    parse = entry_parser(backend)
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            payload = json.loads(stripped, parse_float=str)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid rhs file: {exc}") from exc
        if not isinstance(payload, list):
            raise ValueError("invalid rhs file: expected a JSON array")
        return [parse_entries(payload, parse, "rhs")]
    rows = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(list(map(parse, line.split(","))))
        except ValueError as exc:
            raise ValueError(f"rhs row {lineno}: {exc}") from exc
    if not rows:
        raise ValueError("rhs file is empty")
    width = len(rows[0])
    if any(len(rw) != width for rw in rows):
        raise ValueError("rhs CSV rows have inconsistent width")
    return [list(col) for col in zip(*rows)]


def vector_to_json(x: Sequence) -> str:
    from .scalars import format_scalar

    return json.dumps([format_scalar(v) for v in x], indent=2) + "\n"
