"""Exact inversion from the bordered factors.

The last five columns of the inverse come straight from the factor vectors:
each one is a closed-form pass down the border entries followed by an upward
five-term sweep.  They are mutually independent, so they may be computed
concurrently.  The remaining n-5 columns follow from the band identity
S @ H = I, peeled column by column: column j is obtained from columns
j+1..j+6 by dividing through the band entry C_j.  Where C_j is zero, column
j is instead one forward/back substitution of e_j through the factors
already in hand, and the recursion continues above it.

A structurally zero pivot is handled at concrete points rather than with a
symbolic t: ``factor.interpolate`` computes the inverse of H(s) = H + s*G
(G a one at each such pivot) over plain rationals at r + 1 points and
interpolates det H(s) * H(s)^-1 to s = 0.  Without a zero pivot a single
plain sweep of H is all that runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import InternalContractError, SingularMatrixError
from .factor import FactorData, factorize, interpolate
from .matrix import CyclicHeptaMatrix, DenseMatrix
from .scalars import is_zero

# perfbench/tracer.py wraps these module attributes, so they stay bound; the
# zero-C columns call kernels.substitute directly
from .factor import lu_substitute  # noqa: F401
from .scalars import eval_at_zero  # noqa: F401

_ONE = Fraction(1)

SEED_COLUMN_COUNT = 5


@dataclass(frozen=True)
class InverseResult:
    """Exact inverse plus provenance of the substitutions that fired.

    ``c_substitutions`` lists the zero C_j (j <= n-5), whose columns were
    taken by substitution; ``pivot_overrides`` lists the structurally zero
    pivots, as ``factorize(H).overrides`` does.  ``back_path`` names the
    back-column path that ran: the column recursion, the only one the exact
    lane has.
    """

    S: DenseMatrix
    c_substitutions: tuple
    pivot_overrides: tuple
    back_path: str = "recursion"


def _upper_sweep(col, fd: FactorData, Cv):
    """Rows n-5 down to 1 of one seed column (five-term recurrence)."""
    n = fd.n
    al, g, z, v, w = fd.alpha, fd.g, fd.z, fd.v, fd.w
    for i in range(n - 5, 0, -1):
        col[i] = -(
            g[i] * col[i + 1]
            + z[i] * col[i + 2]
            + Cv[i] * col[i + 3]
            + w[i] * col[n - 1]
            + v[i] * col[n]
        ) / al[i]


def _fill_closure_rows(col, fd: FactorData):
    """Rows n-2, n-3, n-4 for whichever of them the column head left open."""
    n = fd.n
    al, g, z, v, w = fd.alpha, fd.g, fd.z, fd.v, fd.w
    if col[n - 2] is None:
        col[n - 2] = -(w[n - 2] * col[n - 1] + v[n - 2] * col[n]) / al[n - 2]
    if col[n - 3] is None:
        col[n - 3] = -(
            g[n - 3] * col[n - 2] + w[n - 3] * col[n - 1] + v[n - 3] * col[n]
        ) / al[n - 3]
    if col[n - 4] is None:
        col[n - 4] = -(
            g[n - 4] * col[n - 3]
            + z[n - 4] * col[n - 2]
            + w[n - 4] * col[n - 1]
            + v[n - 4] * col[n]
        ) / al[n - 4]


def _seed_column(fd: FactorData, Cv, j: int):
    """Column j of the inverse for j in {n, n-1, n-2, n-3, n-4}."""
    n = fd.n
    al, f, e, k, h, v, w, g = fd.alpha, fd.f, fd.e, fd.k, fd.h, fd.v, fd.w, fd.g
    c = [None] * (n + 1)
    if j == n:
        c[n] = _ONE / al[n]
        c[n - 1] = -v[n - 1] * c[n] / al[n - 1]
    elif j == n - 1:
        c[n] = -h[n - 1] / al[n]
        c[n - 1] = (_ONE - v[n - 1] * c[n]) / al[n - 1]
    elif j == n - 2:
        c[n] = (-h[n - 2] + h[n - 1] * k[n - 2]) / al[n]
        c[n - 1] = -(k[n - 2] + v[n - 1] * c[n]) / al[n - 1]
        c[n - 2] = (_ONE - w[n - 2] * c[n - 1] - v[n - 2] * c[n]) / al[n - 2]
    elif j == n - 3:
        c[n] = (-h[n - 3] + h[n - 2] * f[n - 2] - h[n - 1] * (k[n - 2] * f[n - 2] - k[n - 3])) / al[n]
        c[n - 1] = (k[n - 2] * f[n - 2] - k[n - 3] - v[n - 1] * c[n]) / al[n - 1]
        c[n - 2] = -(f[n - 2] + w[n - 2] * c[n - 1] + v[n - 2] * c[n]) / al[n - 2]
        c[n - 3] = (_ONE - g[n - 3] * c[n - 2] - w[n - 3] * c[n - 1] - v[n - 3] * c[n]) / al[n - 3]
    elif j == n - 4:
        # the forward pass through row n-2 leaves e[n-2] - f[n-2]*f[n-3];
        # the same grouping must appear inside the k and h folds
        emff = e[n - 2] - f[n - 2] * f[n - 3]
        c[n] = (
            -h[n - 4]
            + h[n - 3] * f[n - 3]
            + h[n - 2] * emff
            + h[n - 1] * (k[n - 4] - k[n - 3] * f[n - 3] - k[n - 2] * emff)
        ) / al[n]
        c[n - 1] = (-k[n - 4] + k[n - 3] * f[n - 3] + k[n - 2] * emff - v[n - 1] * c[n]) / al[n - 1]
        c[n - 2] = -(emff + w[n - 2] * c[n - 1] + v[n - 2] * c[n]) / al[n - 2]
        c[n - 3] = -(f[n - 3] + g[n - 3] * c[n - 2] + w[n - 3] * c[n - 1] + v[n - 3] * c[n]) / al[n - 3]
        c[n - 4] = (
            _ONE
            - g[n - 4] * c[n - 3]
            - fd.z[n - 4] * c[n - 2]
            - w[n - 4] * c[n - 1]
            - v[n - 4] * c[n]
        ) / al[n - 4]
    else:
        raise ValueError(f"not a seed column index: {j}")
    _fill_closure_rows(c, fd)
    _upper_sweep(c, fd, Cv)
    return c


def seed_columns(fd: FactorData, H: CyclicHeptaMatrix, parallel: bool = False) -> tuple:
    """The five rightmost columns of the inverse: (Col_n, ..., Col_{n-4}).

    Independent given the factor data; with ``parallel`` they run on a small
    thread pool.  Results are identical either way.
    """
    n = fd.n
    Cv = (None, *H.band("C"))
    indices = [n, n - 1, n - 2, n - 3, n - 4]
    if parallel:
        with ThreadPoolExecutor(max_workers=SEED_COLUMN_COUNT) as pool:
            cols = list(pool.map(lambda j: _seed_column(fd, Cv, j), indices))
    else:
        cols = [_seed_column(fd, Cv, j) for j in indices]
    return tuple(cols)


def _padded_bands(H: CyclicHeptaMatrix) -> dict:
    return {k: (None, *H.band(k)) for k in ("D", "B", "b", "d", "a", "A", "C")}


def _back_column(bands: dict, cols: dict, j: int, n: int) -> list:
    """Column j from columns j+1..j+6 and column j+3 of the matrix.

    Reads nothing below j, so earlier columns cannot influence it; for
    j = n-5 the D-band term falls off the matrix and is skipped.
    """
    Cv = bands["C"]
    if is_zero(Cv[j]):
        raise InternalContractError(f"zero divisor C_{j} reached the back recursion")
    Av, av, dv, bv, Bv, Dv = (bands[k] for k in ("A", "a", "d", "b", "B", "D"))
    col = [None] * (n + 1)
    with_D = j + 6 <= n
    for i in range(1, n + 1):
        acc = _ONE if i == j + 3 else 0
        acc = (
            acc
            - Av[j + 1] * cols[j + 1][i]
            - av[j + 2] * cols[j + 2][i]
            - dv[j + 3] * cols[j + 3][i]
            - bv[j + 4] * cols[j + 4][i]
            - Bv[j + 5] * cols[j + 5][i]
        )
        if with_D:
            acc = acc - Dv[j + 6] * cols[j + 6][i]
        col[i] = acc / Cv[j]
    return col


def back_columns(fd: FactorData, H: CyclicHeptaMatrix, seeds: tuple) -> dict:
    """Columns n-5 down to 1 via the band identity, dividing by C_j.

    A column whose C_j is zero is one substitution of e_j through ``fd``,
    the factors of H, instead.
    """
    n = H.n
    bands = _padded_bands(H)
    cols = {n: seeds[0], n - 1: seeds[1], n - 2: seeds[2], n - 3: seeds[3], n - 4: seeds[4]}
    for j in range(n - 5, 0, -1):
        if is_zero(bands["C"][j]):
            e_j = [None] + [0] * n
            e_j[j] = _ONE
            cols[j] = kernels.substitute(fd, e_j)
        else:
            cols[j] = _back_column(bands, cols, j, n)
    return {j: cols[j] for j in range(1, n - 4)}


def _zero_c(H: CyclicHeptaMatrix) -> tuple:
    """Indices j <= n-5 whose C_j, a divisor of the back recursion, is zero."""
    C = H.band("C")
    return tuple(j for j in range(1, H.n - 4) if is_zero(C[j - 1]))


def _entries(fd: FactorData, H: CyclicHeptaMatrix, parallel: bool) -> list:
    """All n*n entries of H^-1, row by row, from the factors of H."""
    n = H.n
    seeds = seed_columns(fd, H, parallel=parallel)
    cols = back_columns(fd, H, seeds)
    for offset, col in enumerate(seeds):
        cols[n - offset] = col
    return [cols[j][i] for i in range(1, n + 1) for j in range(1, n + 1)]


def invert(H: CyclicHeptaMatrix, parallel_seeds: bool = False) -> InverseResult:
    """Exact inverse of H, or SingularMatrixError.

    Pipeline: factor H, build the five seed columns and recover the
    remaining columns; if a pivot is zero, do the same for H(s) at concrete
    points and interpolate to s = 0 (``factor.interpolate``).
    """
    n = H.n
    _, overrides, values = interpolate(H, lambda fd, Hs: _entries(fd, Hs, parallel_seeds))
    if values is None:
        raise SingularMatrixError("singular matrix")
    return InverseResult(
        S=DenseMatrix([values[i * n:(i + 1) * n] for i in range(n)]),
        c_substitutions=_zero_c(H),
        pivot_overrides=overrides,
    )


def inverse_float(H: CyclicHeptaMatrix, tol: float = 1e-12):
    """Dense float64 inverse: one factor sweep, then all columns at once.

    ``H`` is a ``CyclicHeptaMatrix`` or a ``FloatHeptaMatrix``.  Near-singular
    pivots are refused as in ``factorize(H, "float", tol)``.
    """
    return kernels.ACTIVE_IMPLS["invert"](factorize(H, "float", tol))
