"""Linear system solvers Hx = r.

Forward/back substitution through the bordered LU factors, O(n) per
right-hand side; the exact and float lanes run the same substitution.
When a pivot of H is zero, the exact lane solves H(s) x(s) = r at concrete
points of H(s) = H + s*G (G the zero pivots) and interpolates det * x to
s = 0 (``factor.interpolate``); the right-hand side needs no substitution,
since the band entries are never divided by.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import SingularMatrixError, ZeroPivotError
from .factor import (
    FactorData,
    det_from_factors,
    factorize,
    interpolate,
    lu_substitute,
    require_nonsingular,
)
from .matrix import CyclicHeptaMatrix, float_vector
from .scalars import parse_scalar

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
    pivots, the solve runs at concrete points instead, with G seeded from
    ``fd.overrides``, so t never reaches the substitution.
    """
    r = _check_rhs(H, r)
    if fd.overrides:
        return _solve_at_points(H, [r], fd.overrides)[0]
    det = require_nonsingular(fd)
    return SolveReport(
        x=tuple(lu_substitute(fd, r)),
        det=det,
        method="via-lu",
        backend=fd.backend,
        substitutions_fired={"pivot_overrides": 0},
    )


def _solve_at_points(H: CyclicHeptaMatrix, columns: list, overrides) -> list[SolveReport]:
    """Exact solutions of checked columns through concrete points of H + s*G."""
    n = H.n
    det, overrides, values = interpolate(
        H, lambda fd, Hs: [v for col in columns for v in lu_substitute(fd, col)], overrides)
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
    float lane every column is converted to float64 before the sweep.
    """
    if backend != "float":
        try:
            fd = factorize(H, backend, symbolic=False)
        except ZeroPivotError as exc:
            return _solve_at_points(H, [_check_rhs(H, col) for col in columns], (exc.index,))
        return [solve_via_lu(fd, H, col) for col in columns]
    rhs = []
    for idx, col in enumerate(columns, start=1):
        if len(col) != H.n:
            raise ValueError(f"right-hand side length {len(col)} != order {H.n}")
        rhs.append(float_vector(col, "rhs" if len(columns) == 1 else f"rhs column {idx}"))
    fd = factorize(H, "float", tol)
    det = det_from_factors(fd)
    return [
        SolveReport(x=tuple(lu_substitute(fd, r[1:])), det=det, method="via-lu", backend="float")
        for r in rhs
    ]


# ---------------------------------------------------------------------------
# right-hand-side file format: JSON array of scalar strings, or a CSV column
# ---------------------------------------------------------------------------

def vector_from_text(text: str) -> list[list[Fraction]]:
    """Parse an rhs file; returns a list of columns (CSV may carry several)."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid rhs file: {exc}") from exc
        if not isinstance(payload, list):
            raise ValueError("invalid rhs file: expected a JSON array")
        col = []
        for idx, item in enumerate(payload, start=1):
            try:
                col.append(parse_scalar(str(item)))
            except ValueError as exc:
                raise ValueError(f"rhs entry {idx}: {exc}") from exc
        return [col]
    rows = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            rows.append([parse_scalar(c) for c in cells])
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
