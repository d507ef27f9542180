"""Bordered Doolittle LU factorization of a cyclic heptadiagonal matrix.

L is unit lower triangular with three subdiagonals (f, e, D_i/alpha_{i-3})
plus two dense border rows: row n-1 holds k_1..k_{n-2} and row n holds
h_1..h_{n-1}.  U is upper triangular with diagonal pivots alpha, three
superdiagonals (g, z, C) plus two dense border columns: column n-1 holds
w_1..w_{n-2} and column n holds v_1..v_{n-1}.  The borders absorb the
cyclic corner entries, so no permutation is ever needed.

The paper replaces a pivot alpha_i that reduces to exactly zero by an
indeterminate t and reads every result off at t = 0.  ``factorize`` keeps
that symbolic form: the pivot becomes ``T`` and is recorded, and the
factors satisfy L @ U == H + t * sum(E_ii over overrides).  Index pairings
at the border closures are pinned by that product identity, which the test
suite checks entry by entry on random instances.

The determinant, solve and inverse paths never carry t.  A pivot that is
structurally zero is handled at concrete points of H(s) = H + s*G, where G
has a one at (i, i) for every such pivot i.  All three run them as lanes
of one division-free elimination over word-size primes (``residues``),
zero pivot or not, in the pivot order of these factors: det H(s), and a
few columns taken as its right-hand sides (H(s)^-1 r for a solve, the
seed and zero-C columns for the inverse).  det H(s) and every entry of
adj H(s) are polynomials in s of degree <= r = |G|, so r + 1 points fix
their values at s = 0 (Lagrange interpolation).

The recurrences themselves are ``kernels.sweep`` and ``kernels.substitute``,
shared by ``factorize`` and the float lane; this module chooses the bands
(exact or float64) and the pivot rule (override by t, or refuse below the
float tolerance) and packs the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .matrix import BAND_NAMES, CyclicHeptaMatrix, DenseMatrix
from .scalars import T

# perfbench/tracer.py wraps this module attribute, so it stays bound
from .scalars import eval_at_zero  # noqa: F401

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class FactorData:
    """All recurrence outputs, 1-based (index 0 of each vector unused).

    Valid index ranges: alpha 1..n, f 2..n-2, e 3..n-2, g 1..n-3, z 1..n-4,
    k 1..n-2, h 1..n-1, v 1..n-1, w 1..n-2; slots outside a range hold None.
    ``overrides`` lists the pivot indices replaced by the indeterminate.
    ``D`` and ``C`` are the 1-based bands the sweep read, which the
    substitutions read again: padded exact bands, or float64 arrays.
    """

    n: int
    alpha: tuple
    f: tuple
    e: tuple
    g: tuple
    z: tuple
    k: tuple
    h: tuple
    v: tuple
    w: tuple
    overrides: tuple
    D: object
    C: object
    backend: str = "exact"


@dataclass(frozen=True)
class DetResult:
    value: object  # Fraction on the exact lane, float on the float lane
    pivot_overrides: int
    singular: bool


def _padded(band) -> list:
    return [None, *band]


def factorize(H: CyclicHeptaMatrix, backend: str = "exact", tol: float = 1e-12) -> FactorData:
    """Run the full recurrence sweep and return the factor vectors.

    Both lanes run ``kernels.sweep``; they differ in the bands and the pivot
    rule.  Exact lane: entries are plain rationals, and by the paper's rule
    the first zero pivot is replaced by ``T`` and recorded; from that point
    arithmetic mixes in rational functions of t via operator coercion.
    Float lane: ``H`` may also be a ``FloatHeptaMatrix``; the bands are
    converted to float64 once, and a pivot that is zero, NaN or below
    tol * max(1, largest input magnitude) raises NearSingularPivotError; a
    tol that is not finite raises ValueError.
    """
    overrides = []
    if backend == "float":
        bands, rows = _float_sweep(H, tol)
    elif backend == "exact":
        def pivot(value, i):
            if value == 0:
                overrides.append(i)
                return T
            return value

        bands = [_padded(H.band(name)) for name in BAND_NAMES]
        rows = kernels.sweep(*bands, pivot)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return FactorData(H.n, *kernels.factor_vectors(rows), overrides=tuple(overrides),
                      D=bands[0], C=bands[6], backend=backend)


def _float_sweep(H, tol: float) -> tuple:
    """(the float64 bands of ``H``, the rows of the float lane's sweep)."""
    fb = H.float_bands()
    bands = [fb[name] for name in BAND_NAMES]
    return bands, kernels.ACTIVE_IMPLS["factor"](*bands, kernels.float_pivot(fb, tol))


def materialize_LU(fd: FactorData) -> tuple[DenseMatrix, DenseMatrix]:
    """Dense L and U with the bordered shapes spelled out."""
    n = fd.n
    zero = 0.0 if fd.backend == "float" else _ZERO
    one = 1.0 if fd.backend == "float" else _ONE
    Dv, Cv = fd.D, fd.C
    L = [[zero] * n for _ in range(n)]
    U = [[zero] * n for _ in range(n)]
    for i in range(1, n + 1):
        L[i - 1][i - 1] = one
        U[i - 1][i - 1] = fd.alpha[i]
    for i in range(2, n - 1):
        L[i - 1][i - 2] = fd.f[i]
    for i in range(3, n - 1):
        L[i - 1][i - 3] = fd.e[i]
    for i in range(4, n - 1):
        L[i - 1][i - 4] = Dv[i] / fd.alpha[i - 3]
    for j in range(1, n - 1):
        L[n - 2][j - 1] = fd.k[j]
    for j in range(1, n):
        L[n - 1][j - 1] = fd.h[j]
    for i in range(1, n - 2):
        U[i - 1][i] = fd.g[i]
    for i in range(1, n - 3):
        U[i - 1][i + 1] = fd.z[i]
    for i in range(1, n - 4):
        U[i - 1][i + 2] = Cv[i]
    for i in range(1, n - 1):
        U[i - 1][n - 2] = fd.w[i]
    for i in range(1, n):
        U[i - 1][n - 1] = fd.v[i]
    return DenseMatrix(L), DenseMatrix(U)


def determinant(H: CyclicHeptaMatrix, backend: str = "exact", tol: float = 1e-12) -> DetResult:
    """Determinant via the pivot product.

    Neither lane keeps a factor row.  The exact lane runs one
    division-free elimination over word-size primes (``residues.solve``),
    with the points of H + s*G as extra lanes when a pivot is structurally
    zero, and holds its window of six rows.  The float lane's pivots join
    the product as the sweep hands its rows over, so it holds the sweep's
    three register rows and its last eight, not nine vectors of n entries.
    ``pivot_overrides`` counts the pivots found structurally zero; a
    singular H gives value 0, not an error.  The float lane refuses pivots
    as ``factorize`` does.
    """
    if backend == "exact":
        from . import residues  # residues imports this module, so it loads here

        value, overrides, _ = residues.solve(H, [])
    elif backend == "float":
        _, rows = _float_sweep(H, tol)
        value, overrides = kernels.pivot_product(row[0] for row in rows), ()
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return DetResult(value=value, pivot_overrides=len(overrides), singular=value == 0)


def lu_substitute(fd: FactorData, rhs) -> list:
    """Solve L U x = rhs through the bordered factors; O(n).

    ``rhs`` is 0-based of length n; the result is 0-based.  No evaluation at
    t=0 happens here, so symbolic entries flow through untouched.  A float
    ``fd`` needs float entries in ``rhs``.
    """
    if len(rhs) != fd.n:
        raise ValueError(f"right-hand side length {len(rhs)} != order {fd.n}")
    substitute = kernels.ACTIVE_IMPLS["solve"] if fd.backend == "float" else kernels.substitute
    return substitute(fd, _padded(rhs))[1:]

