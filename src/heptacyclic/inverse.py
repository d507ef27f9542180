"""Exact inversion from the bordered factors.

The last five columns of the inverse are H^-1 e_n, ..., H^-1 e_{n-4}.
They are mutually independent, so they are taken as one block of
right-hand sides of one elimination, each from its first nonzero row on.
The remaining n-5 columns follow from the band identity S @ H = I, peeled
column by column: column j is obtained from columns j+1..j+6 by dividing
through the band entry C_j.  Where C_j is zero, column j is instead
H^-1 e_j, one more column of the block, and the recursion continues above
it.

Only the seeds and the zero-C columns need an elimination, and they run
over residue lanes (``residues.adjugate``): one division-free elimination
of H' = diag(L) H, L_i the lcm of the denominators in row i, over
word-size primes, with their unit vectors e_j as its right-hand sides,
and one Chinese remaindering.  That gives det H' and those 5 + z columns
of adj H' = det H' * H'^-1 as Python ints.  A structurally zero pivot is
handled at concrete points rather than with a symbolic t: the lanes then
cover the r + 1 points of H'(s) = H' + s*diag(L)*G (G a one at each such
pivot), and the columns are interpolated to s = 0 before the
remaindering.  A prime that divides a nonzero pivot is dropped and the
lane eliminates again.  The peeling reads only the bands of H', so it
runs once, whatever r.

The peeling runs over Python ints.  H' is an integer matrix, so
adj H' is one too: each step of the recursion is one exact division by
C'_j = L_j C_j per entry, the fraction-free idea of Bareiss (Math. Comp.
22, 1968), and no gcd is taken until each entry is put back over det H' at
the end.  There the rank of adj H' modulo a prime of det H' (at most 1)
lets all but a few entries take their gcd with a small factor of det H'
(``_gcd_screen``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt, prod
from operator import floordiv

from . import kernels
from .errors import InternalContractError, SingularMatrixError
from .factor import factorize
from .matrix import CyclicHeptaMatrix, DenseMatrix, row_scaled
from .scalars import coprime_fraction

# perfbench/tracer.py wraps these module attributes, so they stay bound
from .factor import lu_substitute  # noqa: F401
from .scalars import eval_at_zero  # noqa: F401

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


def seed_columns(H: CyclicHeptaMatrix, zero_c=()) -> tuple:
    """(det H', the pivots found structurally zero, given) with
    H' = diag(L) H: ``given`` maps j to column j of adj H' (0-based ints)
    for j = n, n-1, ..., n-4 and each j of ``zero_c``.  They are one
    ``residues.adjugate`` with r' = e_j, not L e_j, so its ints are the
    columns det H' * H'^-1 e_j of adj H' themselves.
    """
    from . import residues  # loaded on first use, outside the import time of the package

    n = H.n
    indices = (*range(n, n - SEED_COLUMN_COUNT, -1), *zero_c)
    scales, bands, _ = row_scaled(H)
    units = [[int(i == j) for i in range(1, n + 1)] for j in indices]
    delta, overrides, values = residues.adjugate(scales, bands, units)
    return delta, overrides, {j: values[k * n:(k + 1) * n] for k, j in enumerate(indices)}


def _back_column(bands, cols, j: int, delta: int) -> list:
    """Column j of adj H' from columns j+1..j+6 and column j+3 of H'.

    ``bands`` are the 0-based integer bands of H' (``BAND_NAMES`` order),
    ``cols[m]`` is column m of adj H', 0-based.  adj H' * H' = delta * I read
    at column j+3 gives C'_j adj'[i][j] = delta [i = j+3] minus the six other
    band terms.  Reads nothing below j, so earlier columns cannot influence
    it; for j = n-5 the D-band term falls off the matrix and its coefficient
    is taken as zero.  Each entry is one exact division by C'_j; a remainder
    raises.
    """
    D, B, b, d, a, A, C = bands
    c = C[j - 1]
    if c == 0:
        raise InternalContractError(f"zero divisor C_{j} reached the back recursion")
    A1, a2, d3, b4, B5 = A[j], a[j + 1], d[j + 2], b[j + 3], B[j + 4]
    x1, x2, x3, x4, x5 = cols[j + 1], cols[j + 2], cols[j + 3], cols[j + 4], cols[j + 5]
    D6, x6 = (D[j + 5], cols[j + 6]) if j + 6 <= len(C) else (0, x5)
    acc = [-(A1 * y1 + a2 * y2 + d3 * y3 + b4 * y4 + B5 * y5 + D6 * y6)
           for y1, y2, y3, y4, y5, y6 in zip(x1, x2, x3, x4, x5, x6)]
    acc[j + 2] += delta
    col = []
    for i, value in enumerate(acc, start=1):
        q, r = divmod(value, c)
        if r:
            raise InternalContractError(f"inexact division by C'_{j} in row {i}")
        col.append(q)
    return col


def _split(size: int, g: int) -> tuple:
    """(S, size // S), S the full powers in ``size`` of the primes of ``g``."""
    S = 1
    g = gcd(size, g)
    while g > 1:
        size //= g
        S *= g
        g = gcd(size, g)
    return S, size


def _primorial(bound: int) -> int:
    """The product of the primes below ``bound``."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for q in range(2, isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, bound, q)))
    return prod(compress(range(bound), sieve))


# the primes whose full powers in det H' ``_gcd_screen`` puts into S; their
# product takes about 0.3 ms to make
_SMALL_PRIMORIAL = _primorial(1 << 12)


def _gcd_screen(delta: int, cols: list) -> tuple:
    """(S, r, c) for the entries A_ij = ``cols[j][i - 1]`` of
    A = adj H' diag(L) over delta = det H' (``back_columns``).

    |delta| = S * R with S and R coprime: S holds the full powers of the
    primes below 2**12 and of the primes that divide every A_ij, R the
    rest.  r_i = gcd(A_in, R) and c_j = gcd(A_nj, R), 0-based
    lists.  An entry with r_i = c_j = 1 has gcd(A_ij, delta) = gcd(A_ij, S).

    Why: a prime q of R divides delta, so H' is singular mod q and
    adj H' mod q has rank at most 1 (M. Newman, *Integral Matrices*,
    Academic Press 1972), and so has A mod q; q does not divide every
    A_ij, so A = u w^T mod q with u, w nonzero.  Then q | A_ij means
    q | u_i, and so q | A_in, or q | w_j, and so q | A_nj.  With
    r_i = c_j = 1 no prime of R divides A_ij, and gcd(A_ij, delta) =
    gcd(A_ij, S) gcd(A_ij, R) = gcd(A_ij, S).  A small prime is in S
    because it divides the u_i or w_j of one index in q, and would send
    that share of the rows or columns to the full gcd.
    """
    S, R = _split(abs(delta), _SMALL_PRIMORIAL)
    # the primes of R that divide every entry: gcd falls to 1 after a few
    # entries, and gcd(1, ...) only checks the rest
    common = R
    for col in reversed(cols[1:]):
        if common == 1:
            break
        common = gcd(common, *col)
    S_common, R = _split(R, common)
    S *= S_common
    return S, [gcd(a, R) for a in cols[-1]], [gcd(col[-1], R) for col in cols[1:]]


def back_columns(H: CyclicHeptaMatrix, delta: int, given: dict) -> list:
    """All n columns of H^-1, from column 1 to column n.

    The recursion runs over the integer adjugate of H' = diag(L) H, with
    delta = det H' = det H * prod(L).  ``given`` maps j to column j of
    adj H' (0-based ints) for every column the recursion cannot produce:
    the five seeds and each column whose C_j is zero.  Going from j = n
    down to 1, a given column is popped from ``given``; every other column
    follows by ``_back_column``.  Entry (i, j) of H^-1 is then
    A_ij / delta, A_ij = adj'[i][j] * L_j, reduced by gcd(A_ij, delta).
    ``_gcd_screen`` takes that gcd by a small number S for all but the
    entries it cannot vouch for, which take the full gcd.  Each reduced
    denominator |delta| / g is made once per distinct g, and each entry
    without a second gcd.
    """
    n = H.n
    scales, bands, _ = row_scaled(H)
    cols = [None] * (n + 1)
    for j in range(n, 0, -1):
        cols[j] = given.pop(j) if j in given else _back_column(bands, cols, j, delta)
    if delta == 0:
        raise ZeroDivisionError("det H' is zero: H has no inverse")
    # A = sign(delta) adj H' diag(L), so that each reduced denominator,
    # |delta| / g, is positive
    for j, scale in enumerate(scales, start=1):
        if delta < 0:
            scale = -scale
        if scale != 1:
            cols[j] = [v * scale for v in cols[j]]
    S, r, c = _gcd_screen(delta, cols)
    size = abs(delta)
    # the modulus each entry's gcd is taken with: S where the screen vouches
    # for the entry, delta where it does not
    screened = [S if r_i == 1 else delta for r_i in r]
    unscreened = [delta] * n
    denominators = {}  # g -> |delta| / g
    # each column is replaced in turn, so no column is held both as ints
    # and as Fractions
    for j in range(1, n + 1):
        col = cols[j]
        gs = list(map(gcd, col, screened if c[j - 1] == 1 else unscreened))
        for g in set(gs).difference(denominators):
            denominators[g] = size // g
        cols[j] = list(map(coprime_fraction, map(floordiv, col, gs),
                           map(denominators.__getitem__, gs)))
    return cols[1:]


def _zero_c(H: CyclicHeptaMatrix) -> tuple:
    """Indices j <= n-5 whose C_j, a divisor of the back recursion, is zero:
    the columns taken by substitution instead."""
    C = H.band("C")
    return tuple(j for j in range(1, H.n - 4) if C[j - 1] == 0)


def invert(H: CyclicHeptaMatrix) -> InverseResult:
    """Exact inverse of H, or SingularMatrixError.

    Pipeline: ``seed_columns`` takes det H' and the five seed columns and
    the columns of the zero C_j as columns of adj H', H' = diag(L) H, by
    one ``residues.adjugate`` over residue lanes (H'(s) at concrete
    points, if a pivot is zero).  The recursion then recovers the
    remaining columns once, from the bands of H'.
    """
    zero_c = _zero_c(H)
    delta, overrides, given = seed_columns(H, zero_c)
    if delta == 0:
        raise SingularMatrixError("singular matrix")
    return InverseResult(
        S=DenseMatrix(zip(*back_columns(H, delta, given))),
        c_substitutions=zero_c,
        pivot_overrides=overrides,
    )


def inverse_float(H: CyclicHeptaMatrix, tol: float = 1e-12):
    """Dense float64 inverse: one factor sweep, then all columns at once.

    ``H`` is a ``CyclicHeptaMatrix`` or a ``FloatHeptaMatrix``.  Near-singular
    pivots are refused as in ``factorize(H, "float", tol)``.
    """
    return kernels.ACTIVE_IMPLS["invert"](factorize(H, "float", tol))
