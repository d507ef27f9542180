"""Exact determinant, solve and inverse over word-size primes.

The bordered LU sweep does O(n) field operations, but over ``Fraction``
each one works on operands of O(n) digits and takes their gcd.  Here the
sweep runs once over many lanes at the same time: every value is a
``Residues``, a numpy int64 vector holding one lane per (point, prime)
for primes below 2**30, and ``kernels.sweep`` and ``kernels.substitute``
run over it unchanged.  Each value carries a bound on its lanes and is
reduced only when the next operation could overflow int64, so most field
operations are one numpy call.  The integers det H' and det H' * y, for
the columns y each caller takes from the factors, are then rebuilt from
their residues by Chinese remaindering (the sum of each residue times the
idempotent of its prime; von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 5).  ``solve`` takes
H'^-1 r' for each right-hand side; ``adjugate`` takes the columns its
caller's ``evaluate`` yields, for the inverse the five seed columns and
the columns of the zero C_j, so det H' * y are columns of adj H'.

The sweep runs on H' = diag(L) H, where L_i is the lcm of the denominators
in row i of H and of the right-hand sides, so H' and r' = L r are integer
and det H = det H' / prod(L_i).

A structurally zero pivot is handled at concrete points of
H'(s) = H' + s diag(L) G, G a one at (i, i) for each such pivot i.  The
K primes are tiled over the points s = 1 ... r + 1 (r = |G|), and only
the lanes of d'_i + s L_i, i in G, differ between points.  det H'(s) and
each entry of det H'(s) * y(s) are polynomials of degree <= r in s, so
each is interpolated to s = 0 modulo each prime (Lagrange) before one
CRT.  Without a zero pivot there is one point, s = 0, and G is empty.

K is chosen so that M = prod(p) exceeds twice the Hadamard bound of H'(s)
at the largest point, with r' included and every row norm taken as at
least 1.  That bounds |det H'(s)|, every |det H'(s) * x_j(s)| (Cramer) and
every leading minor N_i(s).  It bounds every (n-1)-minor too, that is,
every entry of adj H'(s): deleting a column only shrinks the rows' norms,
and deleting a row drops a factor that is at least 1.  The rebuilt
integers are therefore exact, and a pivot N_i(s) / N_{i-1}(s) that is
zero in every lane of a point is zero there.  A pivot zero at every point
is structurally zero: it joins G and the sweep restarts with one point
more.  A point where it is zero, but not at every point, is replaced by
the next integer.  The lane therefore finds the same G as the symbolic
sweep, and it says when H is singular (det H' = 0) without dividing by
it.

A pivot that is zero in some but not all lanes of a point is not zero
there: a lane prime divides a nonzero minor N_i(s).  Those primes are
dropped, K primes are taken again from the table, skipping the dropped
ones, until prod(p) again exceeds twice the bound, and the sweep
restarts.  The point rule and the bound are unchanged, and with nothing
dropped the primes are the first K of the table.  The restarts end:

- G only grows, up to n;
- with G fixed, each pivot skips at most r points, since a minor N_i(s)
  that is not identically zero has at most r roots;
- each such configuration, G and its points, has finitely many nonzero
  leading minors, each with finitely many prime divisors, so only
  finitely many primes are ever dropped (and the table holds some
  2.6 * 10^7 primes in (2**29, 2**30) alone).

So ``solve`` and ``adjugate`` always complete.  They read rational
entries (``Fraction`` or int): a ``CyclicHeptaMatrix`` holds nothing else,
and ``solve_many`` converts each right-hand-side entry as the matrix
converts its bands, refusing any other scalar with TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count, islice, repeat
from math import isqrt, prod
from operator import add, mul

import numpy as np

from . import kernels
from .factor import FactorData, det_from_factors
from .matrix import BAND_NAMES, CyclicHeptaMatrix, row_scaled

_TOP = 1 << 30
_SEGMENT = 1 << 18
_INT64 = 1 << 63
# the bound of a reduced lane, in [0, p) with p < 2**30, and of a product of two
_REDUCED = _TOP - 1
_PRODUCT = _REDUCED * _REDUCED
# a call whose lane vectors took this many bytes or more trims the C heap
_TRIM_BYTES = 768 << 10
# from this many lanes on, a pivot's inverse is Fermat's power over the lane
# vector, below it one Python pow per lane: the two cross between about 56
# and 80 lanes (README, "Exact det, solve and inverse over word-size primes")
_FERMAT_LANES = 64
# the band entries reduced by one numpy call, kept while the sweep reads them
_BLOCK = 16


class _PrimeTable:
    """The largest primes below 2**30, in descending order (2**30 - 35
    first), sieved on demand one segment of 2**18 integers at a time (a
    segmented sieve of Eratosthenes, so the table is the same on every
    run).  Some 2.6 * 10**7 of them lie in (2**29, 2**30)."""

    def __init__(self):
        self.low = _TOP
        self.found = np.empty(0, dtype=np.int64)
        self.base = None

    def take(self, count: int) -> np.ndarray:
        while len(self.found) < count:
            if self.base is None:
                limit = isqrt(_TOP)
                sieve = np.ones(limit + 1, dtype=bool)
                sieve[:2] = False
                for q in range(2, isqrt(limit) + 1):
                    if sieve[q]:
                        sieve[q * q::q] = False
                self.base = np.flatnonzero(sieve).tolist()
            low = self.low - _SEGMENT
            # every base prime is below low, so each mark is a proper multiple
            mark = np.ones(_SEGMENT, dtype=bool)
            for q in self.base:
                mark[-low % q::q] = False
            segment = (low + np.flatnonzero(mark))[::-1].astype(np.int64)
            self.found = np.concatenate([self.found, segment])
            self.low = low
        return self.found[:count]

    def __iter__(self):
        """The primes of the table one by one, sieving more as they run out."""
        for start in count(0, 64):
            yield from self.take(start + 64)[start:].tolist()


_PRIMES = _PrimeTable()


def _lanes(x: int, p: np.ndarray) -> np.ndarray:
    """x mod each prime of ``p``; an int beyond int64 goes through Python ints."""
    if -_INT64 <= x < _INT64:
        return np.remainder(x, p)
    return np.array([x % q for q in p.tolist()], dtype=np.int64)


def _inverse_lanes(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """v^-1 mod p lane by lane; every lane of v must be reduced and nonzero.

    Below ``_FERMAT_LANES`` lanes, one Python ``pow`` per lane.  From there
    on, v^(p-2) (Fermat) over the whole vector, by 4-bit windows of the
    exponents e = p - 2, high to low: a table of v^0 ... v^15, then per
    window four squarings and one product by a row of the table.  The
    exponents agree above their highest differing bit (the table's primes
    lie just below 2**30), so a window above it is one row for every lane,
    and only the low windows gather a row per lane.  Every step multiplies
    two reduced lanes, below 2**60, and reduces the product in place.
    """
    K = len(p)
    if K < _FERMAT_LANES:
        return np.array(list(map(pow, v.tolist(), repeat(-1), p.tolist())), dtype=np.int64)
    mul, rem = np.multiply, np.remainder
    e = p - 2
    # the windows from bit ``low`` up are the same in every exponent
    low = -(-int(np.bitwise_xor(e, e[0]).max()).bit_length() // 4) * 4
    T = np.empty((16, K), dtype=np.int64)
    T[0], T[1] = 1, v
    T[2] = v * v % p
    T[3] = T[2] * v % p
    for lo, hi in ((4, 8), (8, 16)):
        mul(T[:hi - lo], T[lo - 1] * v % p, out=T[lo:hi])
        rem(T[lo:hi], p, out=T[lo:hi])
    first, lanes = int(e[0]), np.arange(K)

    def window(t):
        return T[first >> t & 15] if t >= low else T[e >> t & 15, lanes]

    top = max(int(e.max()).bit_length() - 1, 0) // 4 * 4
    x = window(top).copy()
    for t in range(top - 4, -1, -4):
        for _ in range(4):
            mul(x, x, out=x)
            rem(x, p, out=x)
        mul(x, window(t), out=x)
        rem(x, p, out=x)
    return x


class Residues:
    """A value modulo each of K primes below 2**30, reduced lazily.

    ``v[k]`` is congruent to the value mod ``p[k]``, and the int ``b``
    bounds every lane: |v[k]| <= b < 2**63, so int64 holds each lane
    exactly.  ``b`` is 2**30 - 1 exactly when every lane is reduced, in
    [0, p[k]); every other bound is larger.

    Reduction is lazy, as in multi-modular and NTT code (D. Harvey, J.
    Symb. Comput. 60, 2014): ``+``, ``-`` and unary minus are one numpy
    call each and add the bounds, and ``*`` is one call that multiplies
    them.  An operation whose bound would reach 2**63 first reduces an
    operand, the one with the larger bound, and then, if need be, the
    other; two reduced lanes multiply to below 2**60, so every operation
    ends with a bound below 2**63.  That headroom is why the primes sit
    below 2**30: eight products of reduced lanes, or one reduced lane and
    seven products, sum within int64, so a sum of the sweep's three or
    four products reduces nothing.  ``/`` reduces the dividend and
    multiplies by the divisor's inverse, computed once and kept on it:
    the sweep divides by each pivot several times.

    An operand is reduced in place (``reduced``), so a factor entry that
    the sweep reads again is reduced once.  ``reduced`` assigns ``v``
    before it lowers ``b``, and every operation reads ``b`` before ``v``,
    so a thread that reads a value while another reduces it (the
    per-column substitutions that ``inverse.seed_columns(parallel=True)``
    runs on its thread pool) sees a bound that holds for the lanes it
    reads.  The same threads read band entries through one block cache
    (``_Band``), which is one attribute for that reason.
    """

    __slots__ = ("v", "p", "b", "_inv")

    def __init__(self, v: np.ndarray, p: np.ndarray, b: int = _REDUCED):
        self.v = v
        self.p = p
        self.b = b
        self._inv = None

    def reduced(self) -> np.ndarray:
        """The lanes reduced into [0, p); this value is reduced in place."""
        if self.b != _REDUCED:
            v = self.v % self.p
            self.v = v
            self.b = _REDUCED
            return v
        return self.v

    def inverse(self) -> np.ndarray:
        """The lanes of 1/self; ZeroDivisionError when a lane is zero."""
        if self._inv is None:
            v = self.reduced()
            if not v.all():
                raise ZeroDivisionError("residue vector is zero in some lane")
            self._inv = _inverse_lanes(v, self.p)
        return self._inv

    def __add__(self, other: Residues) -> Residues:
        b = self.b + other.b
        if b >= _INT64:
            b = _make_room(self, other, add)
        return Residues(self.v + other.v, self.p, b)

    def __sub__(self, other: Residues) -> Residues:
        b = self.b + other.b
        if b >= _INT64:
            b = _make_room(self, other, add)
        return Residues(self.v - other.v, self.p, b)

    def __mul__(self, other: Residues) -> Residues:
        b = self.b * other.b
        if b >= _INT64:
            b = _make_room(self, other, mul)
        return Residues(self.v * other.v, self.p, b)

    def __truediv__(self, other: Residues) -> Residues:
        inv = other.inverse()
        return Residues(self.reduced() * inv, self.p, _PRODUCT)

    def __neg__(self) -> Residues:
        b = self.b
        # -v of a reduced value lies in (-p, 0]: not reduced, so a larger bound
        return Residues(-self.v, self.p, b if b != _REDUCED else _REDUCED + 1)


def _make_room(x: Residues, y: Residues, combine) -> int:
    """Reduce x or y in place, the one with the larger bound first, until
    combine(x.b, y.b) is below 2**63; returns that bound."""
    b = combine(x.b, y.b)
    while b >= _INT64:
        (x if x.b >= y.b else y).reduced()
        b = combine(x.b, y.b)
    return b


class _Band:
    """1-based integer band read as residue vectors, ``_BLOCK`` entries at a
    time: a read reduces the block of entries that holds it in one numpy
    call (an int beyond int64 through ``_lanes``) and keeps that block's
    values until a read leaves it, so no residue array is kept per band
    entry and a repeat read returns the same value.  Blocks are aligned
    (1, 1 + _BLOCK, ...), so reads that run down the band, as the back
    substitution's do, reuse a block as well as reads that run up.
    ``shifted`` maps an index to its lanes given outright (d'_i + s L_i for
    a pivot override).

    The block is one attribute, a tuple (first index, values), read once
    per read: threads reading one band (the per-column substitutions that
    ``inverse.seed_columns(parallel=True)`` runs on its thread pool read D
    and C) each see some whole block, never the index of one and the
    values of another.
    """

    __slots__ = ("ints", "p", "shifted", "block")

    def __init__(self, ints, p, shifted=None):
        self.ints = [None, *ints]
        self.p = p
        self.shifted = shifted or {}
        self.block = (0, ())

    def __len__(self):
        return len(self.ints)

    def __getitem__(self, i):
        lanes = self.shifted.get(i)
        if lanes is not None:
            return Residues(lanes, self.p)
        start, values = self.block
        if 0 <= i - start < len(values):
            return values[i - start]
        start = i - (i - 1) % _BLOCK
        ints, p = self.ints[start:start + _BLOCK], self.p
        try:
            rows = np.array(ints, dtype=np.int64)[:, None] % p
        except OverflowError:
            rows = [_lanes(x, p) for x in ints]
        values = [Residues(row, p) for row in rows]
        self.block = (start, values)
        return values[i - start]


class _ZeroLanes(Exception):
    """Pivot ``index`` is zero in the lanes that ``zero`` marks."""

    def __init__(self, index: int, zero: np.ndarray):
        super().__init__(index)
        self.index = index
        self.zero = zero


def _nonzero(value, i):
    v = value.reduced()
    if not v.all():
        raise _ZeroLanes(i, v == 0)
    return value


def _crt(U: np.ndarray, p: np.ndarray) -> list:
    """The integers in (-M/2, M/2], M = prod(p), whose residues are the
    columns of U (lane k in row k): the textbook Chinese remainder sum
    x = sum_k U[k] c_k mod M, with c_k = (M/p_k) ((M/p_k)^-1 mod p_k), which
    is 1 mod p_k and 0 mod every other prime.

    One c_k is held at a time, and the sums are Python ints, one per column,
    so the memory is O(K m).
    """
    primes = p.tolist()
    M = prod(primes)
    acc = [0] * U.shape[1]
    for q, row in zip(primes, U):
        c = M // q
        c *= pow(c % q, -1, q)
        acc = list(map(add, acc, map(mul, row.tolist(), repeat(c))))
    half = M // 2
    return [v - M if v > half else v for v in (a % M for a in acc)]


def _lagrange_at_zero(points) -> list:
    """Lagrange weights l_k(0) = prod_{m != k} s_m / (s_m - s_k): a
    polynomial f of degree < len(points) has f(0) = sum_k l_k(0) f(s_k)."""
    return [prod((Fraction(sm, sm - sk) for sm in points if sm != sk), start=Fraction(1))
            for sk in points]


def _choose_primes(floor: int, dropped: set) -> np.ndarray:
    """The first primes of the table, less ``dropped``, whose product
    exceeds ``floor``: primes are taken until it does, whatever their size."""
    chosen, M = [], 1
    for q in _PRIMES:
        if q not in dropped:
            chosen.append(q)
            M *= q
            if M > floor:
                break
    return np.array(chosen, dtype=np.int64)


@cache
def _malloc_trim():
    """The C library's ``malloc_trim`` (glibc), or None where it has none."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def unit_block(fd: FactorData, indices) -> list:
    """The unit vectors e_j, j in ``indices``, as one 1-based right-hand
    side over the lanes of ``fd``: entry i is a ``Residues`` block of
    len(indices) x lanes, row k of it e_{indices[k]} at i.

    ``kernels.substitute`` runs over the blocks as it runs over single
    lanes (numpy broadcasts every factor entry over the rows), so row k of
    each entry of its result holds the residues of that entry of the
    substitution of e_{indices[k]} alone.  The entries before min(indices)
    are zero, so the substitution may start there.
    """
    p = fd.alpha[1].p
    zero = Residues(np.zeros((len(indices), len(p)), dtype=np.int64), p)
    rhs = [None, *repeat(zero, fd.n)]
    for k, j in enumerate(indices):
        unit = np.zeros_like(zero.v)
        unit[k] = 1
        rhs[j] = Residues(unit, p)
    return rhs


def solve(H: CyclicHeptaMatrix, columns) -> tuple:
    """(det H, the pivots found structurally zero, the entries of x with
    H x = r for each of ``columns``, column after column) over residue
    lanes.  The entries are None when det H == 0.

    ``columns`` may be empty: then this is the determinant alone.
    """
    scales, delta, overrides, values = adjugate(
        H, lambda fd, rhs: (kernels.substitute(fd, r) for r in rhs), columns)
    det = Fraction(delta, prod(scales))
    if delta == 0:
        return det, overrides, None
    return det, overrides, [Fraction(v, delta) for v in values]


def adjugate(H: CyclicHeptaMatrix, evaluate, columns=()) -> tuple:
    """(L, det H', the pivots found structurally zero, det H' * y as ints)
    over residue lanes, H' = diag(L) H the integer matrix of
    ``matrix.row_scaled(H, columns)``.

    ``evaluate(fd, rhs)`` yields 1-based columns y from the factors ``fd``
    of H' (of H'(s), at the points, when a pivot is zero) and the
    right-hand sides r' = L r of ``columns`` as residue bands ``rhs``.
    Each y must be H'^-1 r' or a column of H'^-1, so that det H' * y is
    H' x = r' solved by Cramer's rule or a column of adj H', whose entries
    are (n-1)-minors of H': the Hadamard bound that K is chosen by covers
    both.  The ints come back flat, column after column.  The entries of
    ``columns`` are rationals (``Fraction`` or int), as H's are.
    """
    found, lane_bytes = _solve(H, columns, evaluate)
    # each lane vector is a small buffer on the C heap, and glibc keeps the
    # pages of freed small buffers: after a large call, hand them back, or a
    # process that runs more work after it (an inverse, say) holds them
    # resident next to what it allocates through Python's own allocator.
    # After a small call the pages are reused at once by what follows, and
    # a trim would only make it fault them in again.  A call that drops a
    # prime trims once, after the sweep that completes.
    if lane_bytes >= _TRIM_BYTES:
        trim = _malloc_trim()
        if trim is not None:
            trim(0)
    return found


def _solve(H: CyclicHeptaMatrix, columns, evaluate) -> tuple:
    """(what ``adjugate`` returns, the bytes of the lane vectors made)."""
    n = H.n
    scales, bands, rhs = row_scaled(H, columns)
    d = bands[BAND_NAMES.index("d")]
    norms = [sum(v * v for v in entries) for entries in zip(*bands)]
    for i, entries in enumerate(zip(*rhs)):
        norms[i] += max(v * v for v in entries)
    overrides, skipped, dropped = (), set(), set()
    while True:
        if overrides:
            # s = 1, 2, ..., less the points where a pivot was zero
            points = list(islice((s for s in count(1) if s not in skipped), len(overrides) + 1))
        else:
            points = [0]  # H itself
        top = points[-1]
        grown = norms.copy()
        for i in overrides:
            grown[i - 1] += (abs(d[i - 1]) + top * scales[i - 1]) ** 2 - d[i - 1] ** 2
        # Hadamard, rows at s <= top: every leading minor of H'(s), det H'(s),
        # every det H'(s) * x_j(s) and every entry of adj H'(s) are at most
        # prod(sqrt(max(1, norm_i)))
        bound = isqrt(prod(max(1, v) for v in grown)) + 1
        primes = _choose_primes(2 * bound, dropped)
        K = len(primes)
        # lane k * K + j is point k modulo prime j
        p = np.tile(primes, len(points))
        s_lanes = np.repeat(np.array(points, dtype=np.int64), K)
        shifted = {i: (_lanes(d[i - 1], p) + s_lanes * _lanes(scales[i - 1], p)) % p
                   for i in overrides}
        lanes = [_Band(band, p, shifted if band is d else None) for band in bands]
        try:
            vectors = kernels.sweep(*lanes, _nonzero)
            break
        except _ZeroLanes as exc:
            zero = exc.zero.reshape(len(points), K)
            zero_at = zero.all(axis=1)  # the points where the pivot is zero
            unlucky = zero[zero.any(axis=1) != zero_at].any(axis=0)
            if unlucky.any():
                # a prime divides a nonzero pivot: drop it and sweep again
                dropped.update(primes[unlucky].tolist())
                continue
            # zero modulo M, and below M/2 in magnitude, so zero: pivot i is
            # N_i / N_{i-1}, N_i the leading i x i minor, a polynomial in s of
            # degree <= r, and zero at all r + 1 points makes it vanish
            if zero_at.all():
                overrides, skipped = overrides + (exc.index,), set()
            else:
                skipped.update(s for s, hit in zip(points, zero_at.tolist()) if hit)
    fd = FactorData(n, *map(tuple, vectors), overrides=(), D=lanes[0], C=lanes[6],
                    backend="residues")
    # det H'(s) times the Lagrange weight of its point, lane by lane: a value
    # y(s) times it, summed over the points, is det H' * y at s = 0 mod each
    # prime (a polynomial of degree <= r in s)
    weights = [w.numerator * pow(w.denominator, -1, q) % q
               for w in _lagrange_at_zero(points) for q in primes.tolist()]
    scaled_det = det_from_factors(fd).reduced() * np.array(weights, dtype=np.int64) % p

    def at_zero(rows):
        return rows.reshape(len(rows), len(points), K).sum(axis=1) % primes

    # one block of rows per column, n x K once taken to s = 0: a column
    # over every lane can be dropped as soon as its block is made
    blocks = [at_zero(scaled_det[None])]
    for y in evaluate(fd, [_Band(r, p) for r in rhs]):
        Y = np.array([value.reduced() for value in y[1:]])
        Y *= scaled_det
        Y %= p
        blocks.append(at_zero(Y))
    U = np.concatenate(blocks)
    del blocks
    values = _crt(U.T, primes)
    # the lane vectors made: 9 factor vectors, and about 3 per entry of y
    return (scales, values[0], overrides, values[1:]), p.nbytes * (9 * n + 3 * (len(U) - 1))
