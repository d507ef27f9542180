"""Bordered Doolittle LU factorization of a cyclic heptadiagonal matrix.

L is unit lower triangular with three subdiagonals (f, e, D_i/alpha_{i-3})
plus two dense border rows: row n-1 holds k_1..k_{n-2} and row n holds
h_1..h_{n-1}.  U is upper triangular with diagonal pivots alpha, three
superdiagonals (g, z, C) plus two dense border columns: column n-1 holds
w_1..w_{n-2} and column n holds v_1..v_{n-1}.  The borders absorb the
cyclic corner entries, so no permutation is ever needed.

On the exact lane a pivot alpha_i that reduces to exactly zero is replaced
by the shared indeterminate ``T`` and recorded; the factorization then
satisfies L @ U == H + t * sum(E_ii over overrides) and every downstream
result is recovered by substituting t = 0.  Index pairings at the border
closures are pinned by that product identity, which the test suite checks
entry by entry on random instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import kernels
from .errors import SingularMatrixError
from .matrix import CyclicHeptaMatrix, DenseMatrix
from .scalars import RatFun, T, eval_at_zero, is_zero

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class FactorData:
    """All recurrence outputs, 1-based (index 0 of each vector unused).

    Valid index ranges: alpha 1..n, f 2..n-2, e 3..n-2, g 1..n-3, z 1..n-4,
    k 1..n-2, h 1..n-1, v 1..n-1, w 1..n-2; slots outside a range hold None.
    ``overrides`` lists the pivot indices replaced by the indeterminate.
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
    matrix: CyclicHeptaMatrix
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

    Exact lane: entries stay plain rationals until the first zero pivot;
    from that point arithmetic mixes in rational functions of t via operator
    coercion, which is the lazy promotion the symbolic rule needs.
    Float lane: delegates to the float64 kernels; a pivot that is zero, NaN
    or below tol * max(1, largest input magnitude) raises
    NearSingularPivotError.
    """
    if backend == "float":
        return _factorize_float(H, tol)
    if backend != "exact":
        raise ValueError(f"unknown backend {backend!r}")

    n = H.n
    Dv, Bv, bv, dv, av, Av, Cv = (_padded(H.band(k)) for k in ("D", "B", "b", "d", "a", "A", "C"))
    al = [None] * (n + 1)
    f = [None] * (n + 1)
    e = [None] * (n + 1)
    g = [None] * (n + 1)
    z = [None] * (n + 1)
    k = [None] * (n + 1)
    h = [None] * (n + 1)
    v = [None] * (n + 1)
    w = [None] * (n + 1)
    overrides = []

    def pivot(value, i):
        if is_zero(value):
            overrides.append(i)
            return T
        return value

    # first three pivots and the border heads
    al[1] = pivot(dv[1], 1)
    g[1] = av[1]
    z[1] = Av[1]
    k[1] = Av[n - 1] / al[1]
    v[1] = bv[1]
    w[1] = Bv[1]
    h[1] = av[n] / al[1]
    f[2] = bv[2] / al[1]
    e[3] = Bv[3] / al[1]
    al[2] = pivot(dv[2] - f[2] * g[1], 2)
    k[2] = -k[1] * g[1] / al[2]
    v[2] = Bv[2] - f[2] * v[1]
    w[2] = -f[2] * w[1]
    h[2] = (Av[n] - h[1] * g[1]) / al[2]
    g[2] = av[2] - f[2] * z[1]
    f[3] = (bv[3] - e[3] * g[1]) / al[2]
    al[3] = pivot(dv[3] - e[3] * z[1] - f[3] * g[2], 3)
    k[3] = -(k[1] * z[1] + k[2] * g[2]) / al[3]
    h[3] = -(h[1] * z[1] + h[2] * g[2]) / al[3]
    v[3] = -e[3] * v[1] - f[3] * v[2]
    w[3] = -f[3] * w[2] - e[3] * w[1]

    # interior sweep: multipliers and pivots interleaved so every value a
    # formula reads has already been produced
    for i in range(4, n - 1):
        e[i] = (Bv[i] - Dv[i] * g[i - 3] / al[i - 3]) / al[i - 2]
        f[i] = (bv[i] - Dv[i] * z[i - 3] / al[i - 3] - e[i] * g[i - 2]) / al[i - 1]
        z[i - 2] = Av[i - 2] - f[i - 2] * Cv[i - 3]
        g[i - 1] = av[i - 1] - f[i - 1] * z[i - 2] - e[i - 1] * Cv[i - 3]
        al[i] = pivot(dv[i] - Dv[i] * Cv[i - 3] / al[i - 3] - e[i] * z[i - 2] - f[i] * g[i - 1], i)

    # border interiors
    for i in range(4, n - 4):
        k[i] = -(k[i - 3] * Cv[i - 3] + k[i - 2] * z[i - 2] + k[i - 1] * g[i - 1]) / al[i]
        w[i] = -(Dv[i] * w[i - 3] / al[i - 3] + e[i] * w[i - 2] + f[i] * w[i - 1])
    for i in range(4, n - 3):
        h[i] = -(h[i - 3] * Cv[i - 3] + h[i - 2] * z[i - 2] + h[i - 1] * g[i - 1]) / al[i]
        v[i] = -(Dv[i] * v[i - 3] / al[i - 3] + e[i] * v[i - 2] + f[i] * v[i - 1])

    # border closures: from here on the entries of row n-1/n and column
    # n-1/n meet the genuine bands D, B, b / C, A, a of the corner region
    k[n - 4] = (Dv[n - 1] - k[n - 7] * Cv[n - 7] - k[n - 6] * z[n - 6] - k[n - 5] * g[n - 5]) / al[n - 4]
    k[n - 3] = (Bv[n - 1] - k[n - 6] * Cv[n - 6] - k[n - 5] * z[n - 5] - k[n - 4] * g[n - 4]) / al[n - 3]
    k[n - 2] = (bv[n - 1] - k[n - 5] * Cv[n - 5] - k[n - 4] * z[n - 4] - k[n - 3] * g[n - 3]) / al[n - 2]
    w[n - 4] = Cv[n - 4] - Dv[n - 4] * w[n - 7] / al[n - 7] - e[n - 4] * w[n - 6] - f[n - 4] * w[n - 5]
    w[n - 3] = Av[n - 3] - Dv[n - 3] * w[n - 6] / al[n - 6] - e[n - 3] * w[n - 5] - f[n - 3] * w[n - 4]
    w[n - 2] = av[n - 2] - Dv[n - 2] * w[n - 5] / al[n - 5] - e[n - 2] * w[n - 4] - f[n - 2] * w[n - 3]
    # row-n closure pairs h[n-5] with z[n-5]: any other pairing breaks the
    # product identity at (n, n-3)
    h[n - 3] = (Dv[n] - h[n - 6] * Cv[n - 6] - h[n - 5] * z[n - 5] - h[n - 4] * g[n - 4]) / al[n - 3]
    h[n - 2] = (Bv[n] - h[n - 5] * Cv[n - 5] - h[n - 4] * z[n - 4] - h[n - 3] * g[n - 3]) / al[n - 2]
    v[n - 3] = Cv[n - 3] - Dv[n - 3] * v[n - 6] / al[n - 6] - e[n - 3] * v[n - 5] - f[n - 3] * v[n - 4]
    v[n - 2] = Av[n - 2] - Dv[n - 2] * v[n - 5] / al[n - 5] - e[n - 2] * v[n - 4] - f[n - 2] * v[n - 3]
    v[n - 1] = av[n - 1] - _ksum(v, k, n - 2)
    al[n - 1] = pivot(dv[n - 1] - _ksum(w, k, n - 2), n - 1)
    h[n - 1] = (bv[n] - _ksum(h, w, n - 2)) / al[n - 1]
    al[n] = pivot(dv[n] - _ksum(v, h, n - 1), n)

    return FactorData(
        n=n,
        alpha=tuple(al),
        f=tuple(f),
        e=tuple(e),
        g=tuple(g),
        z=tuple(z),
        k=tuple(k),
        h=tuple(h),
        v=tuple(v),
        w=tuple(w),
        overrides=tuple(overrides),
        matrix=H,
    )


def _ksum(xs, ys, upto):
    acc = xs[1] * ys[1]
    for j in range(2, upto + 1):
        acc = acc + xs[j] * ys[j]
    return acc


def _factorize_float(H: CyclicHeptaMatrix, tol: float) -> FactorData:
    fa = kernels.factor_float(H, tol)
    ranges = {
        "alpha": (1, H.n), "f": (2, H.n - 2), "e": (3, H.n - 2), "g": (1, H.n - 3),
        "z": (1, H.n - 4), "k": (1, H.n - 2), "h": (1, H.n - 1), "v": (1, H.n - 1),
        "w": (1, H.n - 2),
    }
    vecs = {
        name: tuple(fa[name][i] if lo <= i <= hi else None for i in range(H.n + 1))
        for name, (lo, hi) in ranges.items()
    }
    return FactorData(n=H.n, overrides=(), matrix=H, backend="float", **vecs)


def materialize_LU(fd: FactorData, n: Optional[int] = None) -> tuple[DenseMatrix, DenseMatrix]:
    """Dense L and U with the bordered shapes spelled out."""
    if n is None:
        n = fd.n
    if n != fd.n:
        raise ValueError(f"factor data has order {fd.n}, not {n}")
    zero = 0.0 if fd.backend == "float" else _ZERO
    one = 1.0 if fd.backend == "float" else _ONE
    Dv = _padded(fd.matrix.band("D"))
    Cv = _padded(fd.matrix.band("C"))
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
    """Pivot product evaluated at t=0 (exact lane) or directly (float lane)."""
    if fd.backend == "float":
        return kernels.pivot_product(fd.alpha[1:])
    prod = fd.alpha[1]
    for i in range(2, fd.n + 1):
        prod = prod * fd.alpha[i]
    return eval_at_zero(prod) if isinstance(prod, RatFun) else prod


def determinant(H: CyclicHeptaMatrix, backend: str = "exact", tol: float = 1e-12) -> DetResult:
    """Determinant via the pivot product, symbolic substitution included."""
    fd = factorize(H, backend=backend, tol=tol)
    value = det_from_factors(fd)
    return DetResult(value=value, pivot_overrides=len(fd.overrides), singular=value == 0)


def lu_substitute(fd: FactorData, rhs) -> list:
    """Solve L U x = rhs through the bordered factors; O(n).

    ``rhs`` is 0-based of length n; the result is 0-based.  No evaluation at
    t=0 happens here, so symbolic entries flow through untouched.
    """
    n = fd.n
    if len(rhs) != n:
        raise ValueError(f"right-hand side length {len(rhs)} != order {n}")
    al, f, e, k, h = fd.alpha, fd.f, fd.e, fd.k, fd.h
    g, z, v, w = fd.g, fd.z, fd.v, fd.w
    Dv = _padded(fd.matrix.band("D"))
    Cv = _padded(fd.matrix.band("C"))
    r = _padded(rhs)

    y = [None] * (n + 1)
    y[1] = r[1]
    y[2] = r[2] - f[2] * y[1]
    y[3] = r[3] - f[3] * y[2] - e[3] * y[1]
    for i in range(4, n - 1):
        y[i] = r[i] - f[i] * y[i - 1] - e[i] * y[i - 2] - Dv[i] * y[i - 3] / al[i - 3]
    y[n - 1] = r[n - 1] - _ksum(k, y, n - 2)
    y[n] = r[n] - _ksum(h, y, n - 1)

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
            acc = acc - Cv[i] * x[i + 3]
        x[i] = acc / al[i]
    return x[1:]


def require_nonsingular(fd: FactorData):
    """Determinant of the factored matrix, raising on zero."""
    value = det_from_factors(fd)
    if value == 0:
        raise SingularMatrixError("singular matrix")
    return value
