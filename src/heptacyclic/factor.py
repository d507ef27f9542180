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

The determinant, solve and inverse paths never carry t.  All three go
through ``interpolate``: one plain rational sweep of H, or, when a pivot is
structurally zero, sweeps of H(s) = H + s*G at concrete points, where G has
a one at (i, i) for every such pivot i: det H(s) and every entry of
adj H(s) are polynomials in s of degree <= r = |G|, so r + 1 points fix
their values at s = 0 (Lagrange interpolation).

The recurrences themselves are ``kernels.sweep`` and ``kernels.substitute``,
shared by both lanes; this module chooses the bands (exact or float64) and
the pivot rule (override by t, refuse an exact zero, or refuse below the
float tolerance) and packs the results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Optional

from . import kernels
from .errors import SingularMatrixError, ZeroPivotError
from .matrix import BAND_NAMES, CyclicHeptaMatrix, DenseMatrix
from .scalars import T, is_zero

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


def _refuse_zero(value, i):
    if value == 0:
        raise ZeroPivotError(i)
    return value


def factorize(H: CyclicHeptaMatrix, backend: str = "exact", tol: float = 1e-12,
              symbolic: bool = True) -> FactorData:
    """Run the full recurrence sweep and return the factor vectors.

    Both lanes run ``kernels.sweep``; they differ in the bands and the pivot
    rule.  Exact lane: entries are plain rationals.  With ``symbolic`` (the
    paper's rule) the first zero pivot is replaced by ``T`` and recorded,
    and from that point arithmetic mixes in rational functions of t via
    operator coercion; without it a zero pivot raises ZeroPivotError.
    Float lane: ``H`` may also be a ``FloatHeptaMatrix``; the bands are
    converted to float64 once, and a pivot that is zero, NaN or below
    tol * max(1, largest input magnitude) raises NearSingularPivotError; a
    tol that is not finite raises ValueError.
    """
    overrides = []
    if backend == "float":
        fb = H.float_bands()
        bands = [fb[name] for name in BAND_NAMES]
        vectors = kernels.ACTIVE_IMPLS["factor"](*bands, kernels.float_pivot(fb, tol))
    elif backend == "exact":
        def pivot(value, i):
            if is_zero(value):
                overrides.append(i)
                return T
            return value

        bands = [_padded(H.band(name)) for name in BAND_NAMES]
        vectors = kernels.sweep(*bands, pivot if symbolic else _refuse_zero)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return FactorData(H.n, *map(tuple, vectors), overrides=tuple(overrides),
                      D=bands[0], C=bands[6], backend=backend)


def materialize_LU(fd: FactorData, n: Optional[int] = None) -> tuple[DenseMatrix, DenseMatrix]:
    """Dense L and U with the bordered shapes spelled out."""
    if n is None:
        n = fd.n
    if n != fd.n:
        raise ValueError(f"factor data has order {fd.n}, not {n}")
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


def det_from_factors(fd: FactorData):
    """Pivot product of factors with no pivot overrides."""
    if fd.backend == "float":
        return kernels.pivot_product(fd.alpha[1:])
    det = fd.alpha[1]
    for i in range(2, fd.n + 1):
        det = det * fd.alpha[i]
    return det


def determinant(H: CyclicHeptaMatrix, backend: str = "exact", tol: float = 1e-12) -> DetResult:
    """Determinant via the pivot product.

    The exact lane goes through ``interpolate``, which runs one plain sweep
    unless a pivot is zero; ``pivot_overrides`` counts the pivots found
    structurally zero.
    """
    if backend == "exact":
        value, overrides, _ = interpolate(H, lambda fd, Hs: ())
    else:
        value, overrides = det_from_factors(factorize(H, backend=backend, tol=tol)), ()
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


def require_nonsingular(fd: FactorData):
    """Determinant of the factored matrix, raising on zero."""
    value = det_from_factors(fd)
    if value == 0:
        raise SingularMatrixError("singular matrix")
    return value


# ---------------------------------------------------------------------------
# concrete points of H(s) = H + s*G
# ---------------------------------------------------------------------------

def _shifted(H: CyclicHeptaMatrix, overrides, s) -> CyclicHeptaMatrix:
    """H(s): s added to d_i for each pivot override i; H itself without any."""
    if not overrides:
        return H
    d = list(H.band("d"))
    for i in overrides:
        d[i - 1] += s
    return H.replace_band("d", d)


def _sample(H, overrides, evaluate):
    """r + 1 points where every pivot of H(s) is nonzero: their s, det H(s)
    and ``evaluate`` values.

    With no override (r = 0) the one point is s = 0, the plain sweep of H;
    otherwise the points are s = 1, 2, ...  A point where a pivot is zero is
    skipped.  Pivot i of H(s) is N_i(s) / N_{i-1}(s), N_i the leading i x i
    minor, a polynomial of degree <= r; if it is zero at r + 1 points where
    pivots 1..i-1 are not, N_i vanishes identically, and ZeroPivotError(i)
    reports a structural zero.
    """
    r = len(overrides)
    points, dets, samples = [], [], []
    misses = Counter()
    s = 1 if overrides else 0
    while len(points) <= r:
        Hs = _shifted(H, overrides, s)
        try:
            fd = factorize(Hs, symbolic=False)
        except ZeroPivotError as exc:
            misses[exc.index] += 1
            if misses[exc.index] > r:
                raise
        else:
            points.append(s)
            dets.append(det_from_factors(fd))
            samples.append(evaluate(fd, Hs))
        s += 1
    return points, dets, samples


def interpolate(H: CyclicHeptaMatrix, evaluate: Callable) -> tuple:
    """det H and quantities of H^-1, the single exact entry point.

    G starts empty, so without a zero pivot this is one plain sweep of H and
    ``evaluate(fd, H)``.  A pivot found structurally zero joins G, a one at
    (i, i) (the paper's override rule), and sampling restarts at the points
    s = 1, 2, ... of H(s) = H + s*G.  There ``evaluate(fd, H(s))`` gives a
    flat list of values y(s) (entries of H(s)^-1, or of H(s)^-1 r) with
    det H(s) * y(s) a polynomial of degree <= r = |G|, so r + 1 points
    determine det H and y at s = 0.

    Returns (det H, overrides, y(0)), with y(0) None when det H == 0.
    """
    overrides = ()
    while True:
        try:
            points, dets, samples = _sample(H, overrides, evaluate)
            break
        except ZeroPivotError as exc:
            overrides += (exc.index,)
    if not overrides:
        return dets[0], overrides, samples[0]
    # Lagrange weights l_k(0) = prod_{m != k} s_m / (s_m - s_k)
    weights = [prod(Fraction(sm, sm - sk) for sm in points if sm != sk) for sk in points]
    det = sum(w * d for w, d in zip(weights, dets))
    if det == 0:
        return det, overrides, None
    # y(0) = sum_k l_k(0) det_k y_k / det
    lam = [w * d / det for w, d in zip(weights, dets)]
    return det, overrides, [sum(l * v for l, v in zip(lam, vs)) for vs in zip(*samples)]
