"""The bordered LU recurrences, written once over any field.

``sweep`` runs the factor recurrences in one loop over the rows and
``substitute`` the forward/back substitution of one right-hand side.  They
only add, subtract, multiply and divide, so the same code runs over exact
scalars (rationals, rational functions of t) and over Python floats: the
caller picks the field by the bands it passes in, and every lane's
zero-pivot handling is its pivot rule, ``pivot(value, i)``.  The symbolic
factorization replaces a zero pivot by the indeterminate; the op counter
of ``bench`` refuses a zero pivot; the float lane (``float_pivot``)
refuses a pivot that is zero, NaN or below its tolerance.  The exact det,
solve and inverse do not run them: they eliminate over residue lanes
without dividing (``residues``), with the same pivots in the same order.

``sweep`` streams: a generator, it hands row i's factor entries over, in
row order, once no recurrence reads them again.  Its row loop holds rows
i-3 to i-1 in local registers, shifted by one each row, and reads the
bands through one zip, with no subscript; only the three head rows and
the last eight rows, which the head formulas and the border closures read
by index, live in small maps.  The closures' border sums (sum_j v_j k_j,
w_j k_j, h_j w_j and v_j h_j) are added up as their entries are made, in
ascending j, with the products and additions of ``_ksum`` in its order, so
every field sees the operations that ``_ksum`` makes over kept vectors.
A determinant keeps no row, only the pivot product, so it holds the
sweep's registers and its eight kept rows; ``factorize`` collects every
row (``factor_vectors``), since the substitutions read the whole factors.

The float inverse is the same ``substitute`` with numpy rows for scalars:
the right-hand side is the identity, row by row, so x[i] comes out as row
i of the inverse, and every entry is bit-identical to the substitution of
its identity column alone.

All vectors are 1-based (length n+1, slot 0 unused) to keep the formulas
aligned with the band indexing.
"""

from __future__ import annotations

import math
from itertools import islice

from .errors import NearSingularPivotError


def _ksum(xs, ys, upto):
    acc = xs[1] * ys[1]
    for x, y in zip(islice(xs, 2, upto + 1), islice(ys, 2, upto + 1)):
        acc = acc + x * y
    return acc


def sweep(D, B, b, d, a, A, C, pivot):
    """Factor sweep over 1-based bands: yields the entries of row i,
    (alpha_i, f_i, e_i, g_i, z_i, k_i, h_i, v_i, w_i), for i = 1, ..., n.

    Every pivot passes through ``pivot(value, i)``, which returns the value
    to use or raises.  Entries outside a vector's index range are None.
    Rows 1 to n-8 are yielded as they leave the loop's registers (rows i-3
    to i-1: ``al3``, ``al2``, ``al1`` and so on); the head rows 1-3 and the
    last eight rows live in nine small maps, for the head formulas and the
    border closures, and the last eight are yielded after the closures.
    """
    n = len(D) - 1
    al, f, e, g, z, k, h, v, w = maps = tuple({} for _ in range(9))

    def keep(j, *entries):
        for vector, entry in zip(maps, entries):
            vector[j] = entry

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

    # the closures' border sums, added up in ascending j as ``_ksum`` adds them
    vk, wk, hw, vh = v[1] * k[1], w[1] * k[1], h[1] * w[1], v[1] * h[1]
    for j in (2, 3):
        vk, wk, hw, vh = vk + v[j] * k[j], wk + w[j] * k[j], hw + h[j] * w[j], vh + v[j] * h[j]

    # one row loop: row i's multipliers and pivot, then the border entries
    # of column i, which read only values that rows up to i have produced;
    # g of row i-1 and z of row i-2 are made here, and are None before
    (al3, f3, e3, g3, z3, k3, h3, v3, w3), (al2, f2, e2, g2, z2, k2, h2, v2, w2), \
        (al1, f1, e1, g1, z1, k1, h1, v1, w1) = ([vector.get(j) for vector in maps] for j in (1, 2, 3))
    for i, Di, Bi, bi, di, A2, a1, C3 in zip(range(4, n - 1), islice(D, 4, None), islice(B, 4, None),
                                             islice(b, 4, None), islice(d, 4, None), islice(A, 2, None),
                                             islice(a, 3, None), islice(C, 1, None)):
        ei = (Bi - Di * g3 / al3) / al2
        fi = (bi - Di * z3 / al3 - ei * g2) / al1
        z2 = A2 - f2 * C3
        g1 = a1 - f1 * z2 - e1 * C3
        ali = pivot(di - Di * C3 / al3 - ei * z2 - fi * g1, i)
        hi = vi = ki = wi = None
        if i < n - 3:
            hi = -(h3 * C3 + h2 * z2 + h1 * g1) / ali
            vi = -(Di * v3 / al3 + ei * v2 + fi * v1)
            vh = vh + vi * hi
        if i < n - 4:
            ki = -(k3 * C3 + k2 * z2 + k1 * g1) / ali
            wi = -(Di * w3 / al3 + ei * w2 + fi * w1)
            vk, wk, hw = vk + vi * ki, wk + wi * ki, hw + hi * wi
            # no later step reads row i-3, and no closure reads below row n-7
            yield al3, f3, e3, g3, z3, k3, h3, v3, w3
        else:
            keep(i - 3, al3, f3, e3, g3, z3, k3, h3, v3, w3)
        al3, al2, al1 = al2, al1, ali
        f3, f2, f1 = f2, f1, fi
        e3, e2, e1 = e2, e1, ei
        g3, g2, g1 = g2, g1, None
        z3, z2, z1 = z2, z1, None
        k3, k2, k1 = k2, k1, ki
        h3, h2, h1 = h2, h1, hi
        v3, v2, v1 = v2, v1, vi
        w3, w2, w1 = w2, w1, wi
    keep(n - 4, al3, f3, e3, g3, z3, k3, h3, v3, w3)
    keep(n - 3, al2, f2, e2, g2, z2, k2, h2, v2, w2)
    keep(n - 2, al1, f1, e1, g1, z1, k1, h1, v1, w1)

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
    for j in range(n - 4, n - 1):
        vk, wk, hw = vk + v[j] * k[j], wk + w[j] * k[j], hw + h[j] * w[j]
    vh = vh + v[n - 3] * h[n - 3] + v[n - 2] * h[n - 2]
    v[n - 1] = a[n - 1] - vk
    al[n - 1] = pivot(d[n - 1] - wk, n - 1)
    h[n - 1] = (b[n] - hw) / al[n - 1]
    al[n] = pivot(d[n] - (vh + v[n - 1] * h[n - 1]), n)
    for j in range(n - 7, n + 1):
        yield tuple(vector.get(j) for vector in maps)


def factor_vectors(rows):
    """The nine 1-based factor vectors (alpha, f, e, g, z, k, h, v, w) of
    the rows a ``sweep`` yields, slot 0 None."""
    # nine Nones as the first row put slot 0 in place without another copy
    return list(zip((None,) * 9, *rows))


def substitute(fd, r):
    """Forward/back substitution of one 1-based right-hand side through the
    factors in ``fd`` (a ``factor.FactorData``); returns 1-based x.  O(n).

    ``r`` is read once, in row order: any iterable of n + 1 slots, slot 0
    unused.  Both passes keep their last three values in registers.
    """
    n = fd.n
    al, f, e, g, z, k, h, v, w = fd.alpha, fd.f, fd.e, fd.g, fd.z, fd.k, fd.h, fd.v, fd.w
    D, C = fd.D, fd.C

    rows = islice(r, 1, None)
    y3 = next(rows)
    y2 = next(rows) - f[2] * y3
    y1 = next(rows) - f[3] * y2 - e[3] * y3
    y = [None, y3, y2, y1]
    for ri, fi, ei, Di, al3 in zip(islice(rows, n - 5), islice(f, 4, None), islice(e, 4, None),
                                   islice(D, 4, None), islice(al, 1, None)):
        y3, y2, y1 = y2, y1, ri - fi * y1 - ei * y2 - Di * y3 / al3
        y.append(y1)
    y.append(next(rows) - _ksum(k, y, n - 2))
    y.append(next(rows) - _ksum(h, y, n - 1))

    xn = y[n] / al[n]
    xn1 = (y[n - 1] - v[n - 1] * xn) / al[n - 1]
    x = [xn, xn1]  # descending, turned round at the end
    # rows n-2 down to 1; U has no g in row n-2, no z past row n-4 and no C
    # past row n-5, where the registers x1, x2, x3 of x_{i+1..i+3} are None
    x1 = x2 = x3 = None
    backwards = (islice(reversed(vector), 2, n) for vector in (y, w, v, g, z, C, al))
    for yi, wi, vi, gi, zi, Ci, ali in zip(*backwards):
        acc = yi - wi * xn1 - vi * xn
        if x3 is not None:
            acc = acc - gi * x1 - zi * x2 - Ci * x3
        elif x2 is not None:
            acc = acc - gi * x1 - zi * x2
        elif x1 is not None:
            acc = acc - gi * x1
        x3, x2, x1 = x2, x1, acc / ali
        x.append(x1)
    x.append(None)
    x.reverse()
    return x


def _identity_rows(n):
    """1-based rows of the n x n float64 identity, each made when it is
    read, so the identity is never held whole."""
    import numpy as np

    yield None
    for i in range(n):
        row = np.zeros(n)
        row[i] = 1.0
        yield row


def invert(fd):
    """All n identity columns through float factors: one ``substitute``
    whose right-hand side entries are numpy rows, so x[i] is row i of the
    inverse; O(n^2).  A float times an array runs the scalar operations
    entry by entry, in the same order, so every entry is bit-identical to
    the substitution of its identity column alone."""
    import numpy as np  # loaded on first use, outside the import time of the package

    return np.stack(substitute(fd, _identity_rows(fd.n))[1:])


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
    """Product of float pivots without intermediate overflow or underflow.

    Every value is drawn, even after the product reaches zero: the values
    of a sweep's rows are its pivots, so a later pivot is still refused."""
    # accumulate mantissa/exponent separately so long products do not
    # overflow before the final fold
    mant, exp = 1.0, 0
    for value in values:
        if mant:
            mant, e = math.frexp(mant * value)
            exp += e
    if not mant:
        return 0.0
    try:
        return math.ldexp(mant, exp)
    except OverflowError:
        return math.inf if mant > 0 else -math.inf
