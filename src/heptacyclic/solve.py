"""Linear system solvers Hx = r.

Forward/back substitution through the bordered LU factors, O(n) per
right-hand side; the exact and float lanes run the same substitution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .factor import (
    FactorData,
    det_from_factors,
    factorize,
    lu_substitute,
    require_nonsingular,
)
from .matrix import CyclicHeptaMatrix, float_vector
from .scalars import eval_at_zero, parse_scalar


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
    """Forward/back substitution through the factors, then t=0.

    The factor data must come from factorize(H).  Pivot overrides flow
    through symbolically and are evaluated away at the end; the band entries
    are never divided by, so no C substitution is involved here.
    """
    r = _check_rhs(H, r)
    det = require_nonsingular(fd)
    x = lu_substitute(fd, r)
    if fd.backend == "exact":
        x = tuple(eval_at_zero(v) for v in x)
    else:
        x = tuple(x)
    return SolveReport(
        x=x,
        det=det,
        method="via-lu",
        backend=fd.backend,
        substitutions_fired={"pivot_overrides": len(fd.overrides)},
    )


def solve_many(H: CyclicHeptaMatrix, columns: Sequence[Sequence], backend: str = "exact",
               tol: float = 1e-12) -> list[SolveReport]:
    """Independent right-hand sides, one report per column.

    One factor sweep serves every column and the reported determinant.  On
    the float lane every column is converted to float64 before the sweep.
    """
    if backend != "float":
        fd = factorize(H, backend)
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
