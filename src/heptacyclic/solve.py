"""Linear system solvers Hx = r.

Two exact routes: multiply by the full inverse (reuses the heavily tested
inversion path) or substitute through the bordered LU factors (O(n) per
right-hand side, the CLI default).  Both produce identical exact vectors;
the float lane mirrors the LU route in float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import kernels
from .factor import (
    FactorData,
    det_from_factors,
    factorize,
    lu_substitute,
    require_nonsingular,
)
from .inverse import invert
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


def solve_via_inverse(H: CyclicHeptaMatrix, r: Sequence) -> SolveReport:
    """x = S @ r with S the exact inverse."""
    r = _check_rhs(H, r)
    result = invert(H)
    n = H.n
    x = tuple(
        sum(result.S.rows[i][j] * r[j] for j in range(n)) for i in range(n)
    )
    det = det_from_factors(factorize(H))
    return SolveReport(
        x=x,
        det=det,
        method="via-inverse",
        backend="exact",
        substitutions_fired={
            "pivot_overrides": len(result.pivot_overrides),
            "c_substitutions": len(result.c_substitutions),
        },
    )


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


def solve_via_lu_float(H: CyclicHeptaMatrix, r: Sequence, tol: float = 1e-12) -> SolveReport:
    """Float64 LU solve on the kernel lane."""
    return solve_many_float(H, [r], tol)[0]


def solve_many_float(H: CyclicHeptaMatrix, columns: Sequence[Sequence],
                     tol: float = 1e-12) -> list[SolveReport]:
    """Float64 solves of independent right-hand sides, one report per column.

    One factor sweep serves every column and the reported determinant.
    """
    rhs = []
    for idx, col in enumerate(columns, start=1):
        if len(col) != H.n:
            raise ValueError(f"right-hand side length {len(col)} != order {H.n}")
        rhs.append(float_vector(col, "rhs" if len(columns) == 1 else f"rhs column {idx}"))
    fa = kernels.factor_float(H, tol)
    det = kernels.pivot_product(fa["alpha"][1:])
    return [
        SolveReport(x=tuple(kernels.solve_factored(fa, r)), det=det, method="via-lu", backend="float")
        for r in rhs
    ]


def solve_many(H: CyclicHeptaMatrix, columns: Sequence[Sequence]) -> list[SolveReport]:
    """Independent right-hand sides, one report per column."""
    fd = factorize(H)
    return [solve_via_lu(fd, H, col) for col in columns]


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
