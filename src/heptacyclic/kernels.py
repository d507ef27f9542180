"""The bordered LU recurrences, written once over any field.

``sweep`` runs the factor recurrences and ``substitute`` the forward/back
substitution of one right-hand side.  They only add, subtract, multiply and
divide, so the same code runs over exact scalars (rationals, rational
functions of t), over vectors of residues modulo word-size primes
(``residues.Residues``) and over Python floats: the caller picks the field
by the bands it passes in, and picks what happens to each pivot through
``pivot(value, i)``.  The exact lane replaces a zero pivot by the
indeterminate (the symbolic factorization); the residue lane refuses a
pivot that is zero in any lane, and the caller reads from those lanes
whether to replace a point of H + s*G, add the pivot to G or drop a
prime; the op counter of ``bench`` refuses a zero pivot; the float
lane (``float_pivot``) refuses a pivot that is zero, NaN or below its
tolerance, and the caller tells the user to switch to the exact backend.

The float inverse is the same ``substitute`` with numpy rows for scalars:
the right-hand side is the identity, row by row, so x[i] comes out as row
i of the inverse, and every entry is bit-identical to the substitution of
its identity column alone.

All vectors are 1-based (length n+1, slot 0 unused) to keep the formulas
aligned with the band indexing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearSingularPivotError


def _ksum(xs, ys, upto, start=1):
    acc = xs[start] * ys[start]
    for j in range(start + 1, upto + 1):
        acc = acc + xs[j] * ys[j]
    return acc


def sweep(D, B, b, d, a, A, C, pivot):
    """Factor sweep over 1-based bands; returns (alpha, f, e, g, z, k, h, v, w).

    Every pivot passes through ``pivot(value, i)``, which returns the value
    to use or raises.  Slots outside a vector's index range hold None.
    """
    n = len(D) - 1
    al, f, e, g, z, k, h, v, w = ([None] * (n + 1) for _ in range(9))

    # first three pivots and the border heads
    al[1] = pivot(d[1], 1)
    g[1] = a[1]
    z[1] = A[1]
    k[1] = A[n - 1] / al[1]
    v[1] = b[1]
    w[1] = B[1]
    h[1] = a[n] / al[1]
    f[2] = b[2] / al[1]
    e[3] = B[3] / al[1]
    al[2] = pivot(d[2] - f[2] * g[1], 2)
    k[2] = -k[1] * g[1] / al[2]
    v[2] = B[2] - f[2] * v[1]
    w[2] = -f[2] * w[1]
    h[2] = (A[n] - h[1] * g[1]) / al[2]
    g[2] = a[2] - f[2] * z[1]
    f[3] = (b[3] - e[3] * g[1]) / al[2]
    al[3] = pivot(d[3] - e[3] * z[1] - f[3] * g[2], 3)
    k[3] = -(k[1] * z[1] + k[2] * g[2]) / al[3]
    h[3] = -(h[1] * z[1] + h[2] * g[2]) / al[3]
    v[3] = -e[3] * v[1] - f[3] * v[2]
    w[3] = -f[3] * w[2] - e[3] * w[1]

    # interior sweep: multipliers and pivots interleaved so every value a
    # formula reads has already been produced
    for i in range(4, n - 1):
        e[i] = (B[i] - D[i] * g[i - 3] / al[i - 3]) / al[i - 2]
        f[i] = (b[i] - D[i] * z[i - 3] / al[i - 3] - e[i] * g[i - 2]) / al[i - 1]
        z[i - 2] = A[i - 2] - f[i - 2] * C[i - 3]
        g[i - 1] = a[i - 1] - f[i - 1] * z[i - 2] - e[i - 1] * C[i - 3]
        al[i] = pivot(d[i] - D[i] * C[i - 3] / al[i - 3] - e[i] * z[i - 2] - f[i] * g[i - 1], i)

    # border interiors
    for i in range(4, n - 4):
        k[i] = -(k[i - 3] * C[i - 3] + k[i - 2] * z[i - 2] + k[i - 1] * g[i - 1]) / al[i]
        w[i] = -(D[i] * w[i - 3] / al[i - 3] + e[i] * w[i - 2] + f[i] * w[i - 1])
    for i in range(4, n - 3):
        h[i] = -(h[i - 3] * C[i - 3] + h[i - 2] * z[i - 2] + h[i - 1] * g[i - 1]) / al[i]
        v[i] = -(D[i] * v[i - 3] / al[i - 3] + e[i] * v[i - 2] + f[i] * v[i - 1])

    # border closures: from here on the entries of row n-1/n and column
    # n-1/n meet the genuine bands D, B, b / C, A, a of the corner region
    k[n - 4] = (D[n - 1] - k[n - 7] * C[n - 7] - k[n - 6] * z[n - 6] - k[n - 5] * g[n - 5]) / al[n - 4]
    k[n - 3] = (B[n - 1] - k[n - 6] * C[n - 6] - k[n - 5] * z[n - 5] - k[n - 4] * g[n - 4]) / al[n - 3]
    k[n - 2] = (b[n - 1] - k[n - 5] * C[n - 5] - k[n - 4] * z[n - 4] - k[n - 3] * g[n - 3]) / al[n - 2]
    w[n - 4] = C[n - 4] - D[n - 4] * w[n - 7] / al[n - 7] - e[n - 4] * w[n - 6] - f[n - 4] * w[n - 5]
    w[n - 3] = A[n - 3] - D[n - 3] * w[n - 6] / al[n - 6] - e[n - 3] * w[n - 5] - f[n - 3] * w[n - 4]
    w[n - 2] = a[n - 2] - D[n - 2] * w[n - 5] / al[n - 5] - e[n - 2] * w[n - 4] - f[n - 2] * w[n - 3]
    # row-n closure pairs h[n-5] with z[n-5]: any other pairing breaks the
    # product identity at (n, n-3)
    h[n - 3] = (D[n] - h[n - 6] * C[n - 6] - h[n - 5] * z[n - 5] - h[n - 4] * g[n - 4]) / al[n - 3]
    h[n - 2] = (B[n] - h[n - 5] * C[n - 5] - h[n - 4] * z[n - 4] - h[n - 3] * g[n - 3]) / al[n - 2]
    v[n - 3] = C[n - 3] - D[n - 3] * v[n - 6] / al[n - 6] - e[n - 3] * v[n - 5] - f[n - 3] * v[n - 4]
    v[n - 2] = A[n - 2] - D[n - 2] * v[n - 5] / al[n - 5] - e[n - 2] * v[n - 4] - f[n - 2] * v[n - 3]
    v[n - 1] = a[n - 1] - _ksum(v, k, n - 2)
    al[n - 1] = pivot(d[n - 1] - _ksum(w, k, n - 2), n - 1)
    h[n - 1] = (b[n] - _ksum(h, w, n - 2)) / al[n - 1]
    al[n] = pivot(d[n] - _ksum(v, h, n - 1), n)
    return al, f, e, g, z, k, h, v, w


def substitute(fd, r, start=1):
    """Forward/back substitution of one 1-based right-hand side through the
    factors in ``fd`` (a ``factor.FactorData``); returns 1-based x.  O(n).

    Rows of r before ``start`` (1 <= start <= n-2) must be zero: y = r
    there, the forward pass begins at row ``start`` and the border sums
    skip those rows.  A unit vector e_j runs from row j on.
    """
    n = fd.n
    al, f, e, g, z, k, h, v, w = fd.alpha, fd.f, fd.e, fd.g, fd.z, fd.k, fd.h, fd.v, fd.w
    D, C = fd.D, fd.C

    y = [None] * (n + 1)
    for i in range(1, max(start, 2)):
        y[i] = r[i]
    if start <= 2:
        y[2] = r[2] - f[2] * y[1]
    if start <= 3:
        y[3] = r[3] - f[3] * y[2] - e[3] * y[1]
    for i in range(max(start, 4), n - 1):
        y[i] = r[i] - f[i] * y[i - 1] - e[i] * y[i - 2] - D[i] * y[i - 3] / al[i - 3]
    y[n - 1] = r[n - 1] - _ksum(k, y, n - 2, start)
    y[n] = r[n] - _ksum(h, y, n - 1, start)

    x = [None] * (n + 1)
    x[n] = y[n] / al[n]
    x[n - 1] = (y[n - 1] - v[n - 1] * x[n]) / al[n - 1]
    for i in range(n - 2, 0, -1):
        acc = y[i] - w[i] * x[n - 1] - v[i] * x[n]
        if i + 1 <= n - 2:
            acc = acc - g[i] * x[i + 1]
        if i + 2 <= n - 2:
            acc = acc - z[i] * x[i + 2]
        if i + 3 <= n - 2:
            acc = acc - C[i] * x[i + 3]
        x[i] = acc / al[i]
    return x


class _IdentityRows:
    """1-based rows of the n x n float64 identity, each made when it is
    read, so the identity is never held whole."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def __getitem__(self, i):
        row = np.zeros(self.n)
        row[i - 1] = 1.0
        return row


def invert(fd):
    """All n identity columns through float factors: one ``substitute``
    whose right-hand side entries are numpy rows, so x[i] is row i of the
    inverse; O(n^2).  A float times an array runs the scalar operations
    entry by entry, in the same order, so every entry is bit-identical to
    the substitution of its identity column alone."""
    return np.stack(substitute(fd, _IdentityRows(fd.n))[1:])


# The float lane calls these through the table, looked up at call time, so a
# caller can wrap an entry (tracing, counting); the exact lane and ``invert``
# call sweep and substitute directly.
ACTIVE_IMPLS = {"factor": sweep, "solve": substitute, "invert": invert}


def float_pivot(bands: dict, tol: float):
    """Pivot rule of the float lane: refuse a pivot unless
    ``abs(pivot) >= tol * max(1, largest band magnitude)``, so NaN is refused
    too.  The floor of the absolute tolerance refuses an exact zero pivot
    even when tol <= 0."""
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol!r}")
    scale = max(1.0, *(max(max(band), -min(band)) for band in bands.values()))
    abs_tol = max(tol * scale, math.ulp(0.0))

    def pivot(value, i):
        if not abs(value) >= abs_tol:
            raise NearSingularPivotError(i)
        return value

    return pivot


def pivot_product(values) -> float:
    """Product of float pivots without intermediate overflow or underflow."""
    # accumulate mantissa/exponent separately so long products do not
    # overflow before the final fold
    mant, exp = 1.0, 0
    for value in values:
        mant *= value
        if mant == 0.0:
            return 0.0
        m, e = math.frexp(mant)
        mant, exp = m, exp + e
    try:
        return math.ldexp(mant, exp)
    except OverflowError:
        return math.inf if mant > 0 else -math.inf
