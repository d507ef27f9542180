"""Float64 kernels for the float backend.

The factor sweep and the single right-hand-side solve are sequential (every
pivot feeds the next few), so they are scalar loops over Python floats: the
bands arrive as ``array('d')`` and the factor vectors are lists, both of
which index faster than numpy arrays do one element at a time.  The
inverse solves all n identity columns in one pass: it steps over the rows
once and updates each row of every column as a numpy vector, in the order
of the scalar solve's statements, so every entry is bit-identical to the
single-column solve of its identity column.

All kernel vectors are 1-based (length n+1, slot 0 unused) to keep the
formulas aligned with the band indexing.  There is no symbolic machinery
here: a pivot that is zero, NaN or below the caller's tolerance aborts the
factorization and the wrapper tells the user to switch to the exact backend.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearSingularPivotError
from .matrix import BAND_NAMES, float_vector

FACTOR_NAMES = ("alpha", "f", "e", "g", "z", "k", "h", "v", "w")


def _factor_impl(D, B, b, d, a, A, C, tol):
    """Factor sweep; returns the nine vectors plus the index of the first
    pivot that is not >= tol (0 when none).  NaN fails that test too."""
    n = len(D) - 1
    al, f, e, g, z, k, h, v, w = ([0.0] * (n + 1) for _ in FACTOR_NAMES)

    al[1] = d[1]
    if not abs(al[1]) >= tol:
        return al, f, e, g, z, k, h, v, w, 1
    g[1] = a[1]
    z[1] = A[1]
    k[1] = A[n - 1] / al[1]
    v[1] = b[1]
    w[1] = B[1]
    h[1] = a[n] / al[1]
    f[2] = b[2] / al[1]
    e[3] = B[3] / al[1]
    al[2] = d[2] - f[2] * g[1]
    if not abs(al[2]) >= tol:
        return al, f, e, g, z, k, h, v, w, 2
    k[2] = -k[1] * g[1] / al[2]
    v[2] = B[2] - f[2] * v[1]
    w[2] = -f[2] * w[1]
    h[2] = (A[n] - h[1] * g[1]) / al[2]
    g[2] = a[2] - f[2] * z[1]
    f[3] = (b[3] - e[3] * g[1]) / al[2]
    al[3] = d[3] - e[3] * z[1] - f[3] * g[2]
    if not abs(al[3]) >= tol:
        return al, f, e, g, z, k, h, v, w, 3
    k[3] = -(k[1] * z[1] + k[2] * g[2]) / al[3]
    h[3] = -(h[1] * z[1] + h[2] * g[2]) / al[3]
    v[3] = -e[3] * v[1] - f[3] * v[2]
    w[3] = -f[3] * w[2] - e[3] * w[1]

    for i in range(4, n - 1):
        e[i] = (B[i] - D[i] * g[i - 3] / al[i - 3]) / al[i - 2]
        f[i] = (b[i] - D[i] * z[i - 3] / al[i - 3] - e[i] * g[i - 2]) / al[i - 1]
        z[i - 2] = A[i - 2] - f[i - 2] * C[i - 3]
        g[i - 1] = a[i - 1] - f[i - 1] * z[i - 2] - e[i - 1] * C[i - 3]
        al[i] = d[i] - D[i] * C[i - 3] / al[i - 3] - e[i] * z[i - 2] - f[i] * g[i - 1]
        if not abs(al[i]) >= tol:
            return al, f, e, g, z, k, h, v, w, i

    for i in range(4, n - 4):
        k[i] = -(k[i - 3] * C[i - 3] + k[i - 2] * z[i - 2] + k[i - 1] * g[i - 1]) / al[i]
        w[i] = -(D[i] * w[i - 3] / al[i - 3] + e[i] * w[i - 2] + f[i] * w[i - 1])
    for i in range(4, n - 3):
        h[i] = -(h[i - 3] * C[i - 3] + h[i - 2] * z[i - 2] + h[i - 1] * g[i - 1]) / al[i]
        v[i] = -(D[i] * v[i - 3] / al[i - 3] + e[i] * v[i - 2] + f[i] * v[i - 1])

    k[n - 4] = (D[n - 1] - k[n - 7] * C[n - 7] - k[n - 6] * z[n - 6] - k[n - 5] * g[n - 5]) / al[n - 4]
    k[n - 3] = (B[n - 1] - k[n - 6] * C[n - 6] - k[n - 5] * z[n - 5] - k[n - 4] * g[n - 4]) / al[n - 3]
    k[n - 2] = (b[n - 1] - k[n - 5] * C[n - 5] - k[n - 4] * z[n - 4] - k[n - 3] * g[n - 3]) / al[n - 2]
    w[n - 4] = C[n - 4] - D[n - 4] * w[n - 7] / al[n - 7] - e[n - 4] * w[n - 6] - f[n - 4] * w[n - 5]
    w[n - 3] = A[n - 3] - D[n - 3] * w[n - 6] / al[n - 6] - e[n - 3] * w[n - 5] - f[n - 3] * w[n - 4]
    w[n - 2] = a[n - 2] - D[n - 2] * w[n - 5] / al[n - 5] - e[n - 2] * w[n - 4] - f[n - 2] * w[n - 3]
    h[n - 3] = (D[n] - h[n - 6] * C[n - 6] - h[n - 5] * z[n - 5] - h[n - 4] * g[n - 4]) / al[n - 3]
    h[n - 2] = (B[n] - h[n - 5] * C[n - 5] - h[n - 4] * z[n - 4] - h[n - 3] * g[n - 3]) / al[n - 2]
    v[n - 3] = C[n - 3] - D[n - 3] * v[n - 6] / al[n - 6] - e[n - 3] * v[n - 5] - f[n - 3] * v[n - 4]
    v[n - 2] = A[n - 2] - D[n - 2] * v[n - 5] / al[n - 5] - e[n - 2] * v[n - 4] - f[n - 2] * v[n - 3]

    s = 0.0
    for j in range(1, n - 1):
        s += v[j] * k[j]
    v[n - 1] = a[n - 1] - s
    s = 0.0
    for j in range(1, n - 1):
        s += w[j] * k[j]
    al[n - 1] = d[n - 1] - s
    if not abs(al[n - 1]) >= tol:
        return al, f, e, g, z, k, h, v, w, n - 1
    s = 0.0
    for j in range(1, n - 1):
        s += h[j] * w[j]
    h[n - 1] = (b[n] - s) / al[n - 1]
    s = 0.0
    for j in range(1, n):
        s += v[j] * h[j]
    al[n] = d[n] - s
    if not abs(al[n]) >= tol:
        return al, f, e, g, z, k, h, v, w, n
    return al, f, e, g, z, k, h, v, w, 0


def _solve_impl(D, C, al, f, e, g, z, k, h, v, w, rhs):
    """Forward/back substitution of one right-hand side; O(n)."""
    n = len(al) - 1
    y = [0.0] * (n + 1)
    x = [0.0] * (n + 1)
    y[1] = rhs[1]
    y[2] = rhs[2] - f[2] * y[1]
    y[3] = rhs[3] - f[3] * y[2] - e[3] * y[1]
    for i in range(4, n - 1):
        y[i] = rhs[i] - f[i] * y[i - 1] - e[i] * y[i - 2] - D[i] * y[i - 3] / al[i - 3]
    s = 0.0
    for j in range(1, n - 1):
        s += k[j] * y[j]
    y[n - 1] = rhs[n - 1] - s
    s = 0.0
    for j in range(1, n):
        s += h[j] * y[j]
    y[n] = rhs[n] - s

    x[n] = y[n] / al[n]
    x[n - 1] = (y[n - 1] - v[n - 1] * x[n]) / al[n - 1]
    for i in range(n - 2, 0, -1):
        acc = y[i] - w[i] * x[n - 1] - v[i] * x[n]
        if i + 1 <= n - 2:
            acc -= g[i] * x[i + 1]
        if i + 2 <= n - 2:
            acc -= z[i] * x[i + 2]
        if i + 3 <= n - 2:
            acc -= C[i] * x[i + 3]
        x[i] = acc / al[i]
    return x


def _invert_impl(D, C, al, f, e, g, z, k, h, v, w):
    """All n identity columns through the factors in one pass; O(n^2).

    Row i of Y holds y[i], then x[i], of every column.  Each statement of
    _solve_impl becomes row operations in the same order, and the border
    sums are accumulated row by row (a dot product or BLAS call would sum
    in another order), so each entry matches _solve_impl bit for bit.
    """
    n = len(al) - 1
    Y = np.zeros((n + 1, n))
    np.fill_diagonal(Y[1:], 1.0)
    t = np.empty(n)

    def sub(i, c, j):  # Y[i] -= c * Y[j]
        np.multiply(Y[j], c, out=t)
        np.subtract(Y[i], t, out=Y[i])

    sub(2, f[2], 1)
    sub(3, f[3], 2)
    sub(3, e[3], 1)
    for i in range(4, n - 1):
        sub(i, f[i], i - 1)
        sub(i, e[i], i - 2)
        np.multiply(Y[i - 3], D[i], out=t)
        np.divide(t, al[i - 3], out=t)
        np.subtract(Y[i], t, out=Y[i])
    sk = np.zeros(n)
    sh = np.zeros(n)
    for j in range(1, n - 1):
        sk += np.multiply(Y[j], k[j], out=t)
        sh += np.multiply(Y[j], h[j], out=t)
    Y[n - 1] -= sk
    sh += np.multiply(Y[n - 1], h[n - 1], out=t)
    Y[n] -= sh

    Y[n] /= al[n]
    sub(n - 1, v[n - 1], n)
    Y[n - 1] /= al[n - 1]
    for i in range(n - 2, 0, -1):
        sub(i, w[i], n - 1)
        sub(i, v[i], n)
        if i + 1 <= n - 2:
            sub(i, g[i], i + 1)
        if i + 2 <= n - 2:
            sub(i, z[i], i + 2)
        if i + 3 <= n - 2:
            sub(i, C[i], i + 3)
        Y[i] /= al[i]
    return Y[1:]


# looked up at call time, so a caller can wrap an entry (tracing, counting)
ACTIVE_IMPLS = {"factor": _factor_impl, "solve": _solve_impl, "invert": _invert_impl}


# ---------------------------------------------------------------------------
# wrappers over CyclicHeptaMatrix
# ---------------------------------------------------------------------------

def _abs_tol(bands: dict, tol: float) -> float:
    scale = max(1.0, *(max(max(band), -min(band)) for band in bands.values()))
    # the floor refuses an exact zero pivot even when tol <= 0
    return max(tol * scale, math.ulp(0.0))


def factor_float(H, tol: float = 1e-12) -> dict:
    """Float factorization of an exact matrix; raises NearSingularPivotError.

    Converts the bands once; the result also carries the D and C bands the
    substitutions read.
    """
    fb = H.float_bands()
    *vectors, bad = ACTIVE_IMPLS["factor"](*(fb[name] for name in BAND_NAMES), _abs_tol(fb, tol))
    if bad:
        raise NearSingularPivotError(bad)
    fa = dict(zip(FACTOR_NAMES, vectors))
    fa["D"], fa["C"] = fb["D"], fb["C"]
    return fa


def _factor_args(fa: dict) -> list:
    return [fa[name] for name in ("D", "C", *FACTOR_NAMES)]


def solve_factored(fa: dict, rhs: list) -> list:
    """Solve with factors from factor_float; ``rhs`` is 1-based, as
    ``matrix.float_vector`` returns it, and the result is a 0-based list."""
    return ACTIVE_IMPLS["solve"](*_factor_args(fa), rhs)[1:]


def solve_float(H, rhs, tol: float = 1e-12) -> list:
    """Solve H x = rhs in float64; returns a 0-based list of length n."""
    if len(rhs) != H.n:
        raise ValueError(f"right-hand side length {len(rhs)} != order {H.n}")
    r = float_vector(rhs, "rhs")
    return solve_factored(factor_float(H, tol), r)


def inverse_float(H, tol: float = 1e-12) -> np.ndarray:
    """Dense float64 inverse: one factor sweep, then all columns at once."""
    return ACTIVE_IMPLS["invert"](*_factor_args(factor_float(H, tol)))


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
