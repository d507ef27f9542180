"""Exact determinant, solve and inverse over word-size primes.

The bordered LU sweep does O(n) field operations, but over ``Fraction``
each one works on operands of O(n) digits and takes their gcd.  Here the
sweep runs once over many lanes at the same time: every value is a
``Residues``, a numpy int64 vector holding one lane per (point, prime)
for primes below 2**30, and ``kernels.sweep`` and ``kernels.substitute``
run over it unchanged.  Each value carries a bound on its lanes and is
reduced only when the next operation could overflow int64, so most field
operations are one numpy call.  The integers det H' and det H' * y, for
y = H'^-1 r' and each integer right-hand side r', are then rebuilt from
their residues by Chinese remaindering (the sum of each residue times the
idempotent of its prime; von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 5).  ``adjugate`` takes all its right-hand sides by one
substitution, from the first row where some column is nonzero: for
``solve`` they are r' = L r, and for the inverse the unit vectors e_j of
its seed and zero-C columns, so that det H' * y are columns of adj H'.
That substitution reads the whole factors, so it keeps every row that
the sweep hands over.  A determinant alone keeps none: each pivot joins a
running product as its row arrives, and the lanes held are the sweep's
window of eight rows, at most 72 vectors, not 9 n.

The sweep runs on H' = diag(L) H, where L_i is the lcm of the denominators
in row i of H and of the right-hand sides, so H' and r' = L r are integer
and det H = det H' / prod(L_i).

A structurally zero pivot is handled at concrete points of
H'(s) = H' + s diag(L) G, G a one at (i, i) for each such pivot i.  The
K primes are tiled over the points s = 1 ... r + 1 (r = |G|), and only
pivot i, i in G, differs between points: the sweep reads d'_i only there,
so the lane's pivot rule adds the lanes of s L_i to it.  det H'(s) and
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

So ``solve`` and ``adjugate`` always complete.  ``solve`` reads rational
entries (``Fraction`` or int): a ``CyclicHeptaMatrix`` holds nothing else,
and ``solve_many`` converts each right-hand-side entry as the matrix
converts its bands, refusing any other scalar with TypeError.
``adjugate`` reads the ints that ``matrix.row_scaled`` makes of them.

Both conversions between ints and residues are linear maps with small
coefficients, so each is a float64 matrix product (J. Doliskani, P.
Giorgi, R. Lebreton and E. Schost, "Simultaneous conversions with the
residue number system using linear algebra", ACM TOMS 44(3), 2018), made
exact by keeping every sum below 2**53:

- *Ints to residues* (``_wide_lanes``), for entries beyond int64 (the
  others take one int64 remainder): |x| in 16-bit limbs x_j times the
  table 2**(16 j) mod p_k, the table split into 15-bit halves.  A sum has
  a term below 2**16 * 2**15 per limb, so it stays below 2**53 for fewer
  than 2**22 limbs; the two sums are then below 2**53 in int64 and
  combine mod p_k.  The table is made 2**17 / (2 limbs) primes at a time,
  and every entry of every band beyond int64 is converted by one call
  when the lane is set up (``_bands``), so they share it.
- *Residues to ints* (``_crt``): x = sum_k ((u_k w_k) mod p_k) M/p_k, with
  M = prod(p) and w_k = (M/p_k)^-1 mod p_k, is the lanes times the 16-bit
  limbs of the M/p_k, the lanes split into 15-bit halves: below 2**53 for
  fewer than 2**22 primes.  Added up in int64 as low + (high << 15), a limb
  sum is below K * 2**46, so below 2**63 for up to 2**17 primes a group;
  the limbs then make one int per value, reduced mod M.  The memory is
  O(K m): the limbs of the M/p_k are held for at most max(m, 2**17 /
  limbs) primes at a time, and the limb sums of all m values only when
  that is fewer than K; otherwise 2**14 limb sums at a time.

Every product is made in tiles of at most 2**18 multiply-adds, which
OpenBLAS runs on the calling thread whatever its thread count (its
threads cost up to milliseconds a call on a shared machine, see README).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import count, islice, repeat
from math import isqrt, prod
from operator import add, mul

import numpy as np

from . import kernels
from .factor import FactorData
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
# the multiply-adds of one float64 product: OpenBLAS runs a product of at
# most 65536 * 4 on the calling thread alone
_TILE = 1 << 18
# the entries of a table of limbs or powers made at once: 1 MB of float64
_CHUNK = 1 << 17
# the primes whose CRT limb sums are added up in int64, below 2**17 * 2**46
_GROUP = 1 << 17
# the CRT limb sums made and turned into ints at once: 128 KB of float64
_SUMS = 1 << 14


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


def _lanes(x, p: np.ndarray) -> np.ndarray:
    """x mod each prime of ``p``, one lane axis after the axes of x: an int,
    a list of ints or a list of rows of ints.  One int64 remainder, and the
    entries beyond int64, if any, by ``_wide_lanes``."""
    try:
        return np.array(x, dtype=np.int64)[..., None] % p
    except OverflowError:
        X = np.array(x, dtype=object)
        wide = (X < -_INT64) | (X >= _INT64)
        lanes = np.where(wide, 0, X).astype(np.int64)[..., None] % p
        lanes[wide] = _wide_lanes(X[wide].tolist(), p)
        return lanes


def _add_product(acc: np.ndarray, wide: np.ndarray, small: np.ndarray) -> None:
    """acc += [wide & (2**15 - 1); wide >> 15] @ small, exactly.

    ``wide`` (r x k) holds ints in [0, 2**30), ``small`` (k x c) float64 ints
    in [0, 2**16), and ``acc`` (2r x c) float64: rows i and r + i take the
    low and high halves of row i of ``wide``.  Every term is below 2**31, so
    acc stays exact while it adds up fewer than 2**22 terms, in any order.
    The product is made in tiles of at most ``_TILE`` multiply-adds.
    """
    r, k = wide.shape
    c = small.shape[1]
    halves = np.empty((2 * r, k))
    np.bitwise_and(wide, 0x7FFF, out=halves[:r], casting="unsafe")
    np.right_shift(wide, 15, out=halves[r:], casting="unsafe")
    # rows and inner dimension 64 at most; the columns take what they leave,
    # and the inner dimension what few columns leave
    rt, kt = min(2 * r, 64), min(k, 64)
    ct = max(1, _TILE // (rt * kt))
    kt = max(1, _TILE // (rt * min(c, ct)))
    for a in range(0, 2 * r, rt):
        for b in range(0, c, ct):
            tile = acc[a:a + rt, b:b + ct]
            for i in range(0, k, kt):
                tile += halves[a:a + rt, i:i + kt] @ small[i:i + kt, b:b + ct]


def _powers(L: int, q: np.ndarray) -> np.ndarray:
    """2**(16 j) mod q_k for j < L, row k for the prime q[k, 0]: doubling
    the columns known, each step one product by 2**(16 s) mod q_k."""
    P = np.empty((len(q), L), dtype=np.int64)
    P[:, 0] = 1
    step, s = (1 << 16) % q, 1
    while s < L:
        t = min(s, L - s)
        np.multiply(P[:, :t], step, out=P[:, s:s + t])
        P[:, s:s + t] %= q
        step = step * step % q
        s += t
    return P


def _wide_lanes(xs: list, p: np.ndarray) -> np.ndarray:
    """x mod each prime of ``p`` for each int x of ``xs``, one row per x:
    the 16-bit limbs of |x| times the table 2**(16 j) mod p_k, as one
    exact float64 product per chunk of primes (module docstring), then
    one remainder.  A negative x takes p_k minus the lane of |x|."""
    L = max(x.bit_length() for x in xs) // 16 + 1
    if L >= 1 << 22:
        raise MemoryError(f"an entry of {L} 16-bit limbs is past the exact product")
    raw = b"".join([abs(x).to_bytes(2 * L, "little") for x in xs])
    limbs = np.frombuffer(raw, dtype="<u2").reshape(len(xs), L).T.astype(np.float64)
    del raw
    lanes = np.empty((len(p), len(xs)), dtype=np.int64)
    chunk = max(1, _CHUNK // (2 * L))
    for i in range(0, len(p), chunk):
        q = p[i:i + chunk, None]
        acc = np.zeros((2 * len(q), len(xs)))
        _add_product(acc, _powers(L, q), limbs)
        low, high = acc.astype(np.int64).reshape(2, len(q), len(xs))
        # below 2**30 + 2**45
        lanes[i:i + chunk] = (low % q + (high % q << 15)) % q
    negative = np.array([x < 0 for x in xs])
    lanes[:, negative] = (p[:, None] - lanes[:, negative]) % p[:, None]
    return lanes.T


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
    the sweep reads again is reduced once.
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
    """1-based band of ints, or of rows of m ints (m right-hand sides),
    read as residue vectors, or m x lanes blocks, ``_BLOCK`` entries at a
    time: a read reduces the block of entries that holds it by one int64
    remainder and keeps that block's values until a read leaves it, so no
    residue array is kept per band entry and a repeat read returns the
    same value.  Blocks are aligned (1, 1 + _BLOCK, ...), so reads that run
    down the band, as the back substitution's do, reuse a block as well as
    reads that run up.  An entry reads the same at every point of H'(s):
    the shift of a zero pivot is made by the sweep's pivot rule.

    ``ints`` is an int64 array, with 0 in each row that holds an entry
    beyond int64; ``wide`` maps such a row, 1-based, to its lanes, made
    once by ``_bands``.
    """

    __slots__ = ("ints", "p", "block", "wide")

    def __init__(self, ints: np.ndarray, p: np.ndarray, wide: dict):
        self.ints = ints
        self.p = p
        self.wide = wide
        self.block = (0, ())

    def __len__(self):
        return len(self.ints) + 1

    def __getitem__(self, i):
        start, values = self.block
        if 0 <= i - start < len(values):
            return values[i - start]
        start = i - (i - 1) % _BLOCK
        block = self.ints[start - 1:start - 1 + _BLOCK, ..., None] % self.p
        if self.wide:
            for k in range(len(block)):
                lanes = self.wide.get(start + k)
                if lanes is not None:
                    block[k] = lanes
        values = [Residues(row, self.p) for row in block]
        self.block = (start, values)
        return values[i - start]


def _bands(columns, p: np.ndarray) -> list:
    """A ``_Band`` of each of ``columns`` (int64 arrays, lists of ints or
    lists of rows of ints).  The rows that hold an entry beyond int64, in
    all of them, are reduced by one ``_lanes`` call, so that their entries
    share one table of powers, and their lanes are kept for the sweep."""
    arrays, wide = [], []
    for ints in columns:
        try:
            arrays.append((np.asarray(ints, dtype=np.int64), None))
        except OverflowError:
            X = np.array(ints, dtype=object)
            at = np.flatnonzero(((X < -_INT64) | (X >= _INT64)).reshape(len(X), -1).any(axis=1))
            wide.append(X[at])
            X[at] = 0
            arrays.append((X.astype(np.int64), at))
    lanes = _lanes(np.concatenate([w.ravel() for w in wide]).tolist(), p) if wide else None
    bands, used = [], 0
    for ints, at in arrays:
        kept = {}
        if at is not None:
            # a row of m entries takes the next m rows of lanes
            count = len(at) * (ints.size // len(ints))
            rows = lanes[used:used + count].reshape(len(at), *ints.shape[1:], len(p))
            kept = dict(zip((at + 1).tolist(), rows))
            used += count
        bands.append(_Band(ints, p, kept))
    return bands


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
    columns of U (lane k in row k, reduced): the Chinese remainder sum
    x = sum_k ((U[k] w_k) mod p_k) M/p_k mod M, w_k = (M/p_k)^-1 mod p_k, as
    exact float64 products of the lanes and the 16-bit limbs of the M/p_k
    (module docstring).

    The limbs of the M/p_k are held for as many primes at once as there
    are values, and for at least ``_CHUNK`` limbs.  With as many values as
    primes or more, that is all the primes, and the values' limb sums are
    made and turned into ints a slice of values at a time (``_SUMS``
    floats, and 32 values at least: 64 rows of a tile).  With fewer values,
    the sums of all of them are added up over the chunks of primes and
    turned into ints once per ``_GROUP`` primes.  Either way the memory is
    O(K m).
    """
    primes = p.tolist()
    M = prod(primes)
    K, m = U.shape
    # a group's sum is below its prime count times M
    L = -(-(M.bit_length() + K.bit_length()) // 16)
    size = max(m, _CHUNK // L)
    rows = m if K > size else max(32, _SUMS // (2 * L))
    sums = [0] * m
    for group in range(0, K, _GROUP):
        end = min(K, group + _GROUP)
        kept = {}  # the sums of each slice of values, while chunks of primes remain
        for i in range(group, end, size):
            q = primes[i:min(end, i + size)]
            cofactors = [M // r for r in q]
            w = np.array([pow(c % r, -1, r) for c, r in zip(cofactors, q)], dtype=np.int64)
            raw = b"".join([c.to_bytes(2 * L, "little") for c in cofactors])
            del cofactors
            C = np.frombuffer(raw, dtype="<u2").reshape(len(q), L).astype(np.float64)
            del raw
            for a in range(0, m, rows):
                b = min(m, a + rows)
                acc = kept.pop(a, None)
                if acc is None:
                    acc = np.zeros((2 * (b - a), L))
                _add_product(acc, U[i:i + len(q), a:b].T * w % p[i:i + len(q)], C)
                if i + size < end:
                    kept[a] = acc
                else:
                    sums[a:b] = map(add, sums[a:b], _limb_ints(acc))
            del C  # or it is held while the next chunk's is made
    half = M // 2
    return [v - M if v > half else v for v in (x % M for x in sums)]


def _limb_ints(acc: np.ndarray) -> list:
    """The ints sum_j (low[v, j] + high[v, j] 2**15) 2**(16 j), one per row
    v of ``acc`` = [low; high], exact float64 sums whose combinations lie
    in [0, 2**63) and whose ints are below 2**(16 L), L = acc.shape[1].

    Made ``_SUMS`` limb sums at a time: two carry passes in int64 leave every
    limb sum below 2**32 (below 2**16 + 2**47, then 2**16 + 2**31; the top
    limb never carries, as the int is below 2**(16 L)), and each int is
    then its low 16 bits plus its high 16 bits one limb up.
    """
    m, L = len(acc) // 2, acc.shape[1]
    rows = max(1, _SUMS // L)
    ints = []
    for a in range(0, m, rows):
        b = min(m, a + rows)
        T = acc[m + a:m + b].astype(np.int64)
        T <<= 15
        T += acc[a:b].astype(np.int64)
        for _ in range(2):
            carry = T >> 16
            T &= 0xFFFF
            T[:, 1:] += carry[:, :-1]
        low = memoryview(T.astype("<u2")).cast("B")
        high = memoryview((T >> 16).astype("<u2")).cast("B")
        ints += [int.from_bytes(low[o:o + 2 * L], "little")
                 + (int.from_bytes(high[o:o + 2 * L], "little") << 16)
                 for o in range(0, len(low), 2 * L)]
    return ints


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


def solve(H: CyclicHeptaMatrix, columns) -> tuple:
    """(det H, the pivots found structurally zero, the entries of x with
    H x = r for each of ``columns``, column after column) over residue
    lanes.  The entries are None when det H == 0.

    ``columns`` may be empty: then this is the determinant alone.
    """
    scales, bands, rhs = row_scaled(H, columns)
    delta, overrides, values = adjugate(scales, bands, rhs)
    det = Fraction(delta, prod(scales))
    if delta == 0:
        return det, overrides, None
    return det, overrides, [Fraction(v, delta) for v in values]


def adjugate(scales, bands, rhs) -> tuple:
    """(det H', the pivots found structurally zero, det H' * H'^-1 r' as
    ints for each r' of ``rhs``, column after column) over residue lanes,
    for L, the bands of H' = diag(L) H and the integer r' as
    ``matrix.row_scaled`` returns them.  By Cramer's rule the ints are
    determinants of H' with a column replaced by r', and for r' = e_j the
    entries of column j of adj H': the Hadamard bound that K is chosen by,
    r' included, covers both.  With ``rhs`` empty this is det H' alone,
    and no factor row is kept.
    """
    U, primes, overrides, lane_bytes = _solve(scales, bands, rhs)
    # each lane vector is a small buffer on the C heap, and glibc keeps the
    # pages of freed small buffers: after a large call, hand them back, or a
    # process that runs more work after it (an inverse, say) holds them
    # resident next to what it allocates through Python's own allocator.
    # After a small call the pages are reused at once by what follows, and
    # a trim would only make it fault them in again.  A call that drops a
    # prime trims once, after the sweep that completes; a determinant keeps
    # no factor row and never trims.  Returning from ``_solve`` frees its
    # rows, factors and blocks, so the trim runs here, before the CRT
    # allocates its limb sums.
    if lane_bytes >= _TRIM_BYTES:
        trim = _malloc_trim()
        if trim is not None:
            trim(0)
    values = _crt(U.T, primes)
    return values[0], overrides, values[1:]


def _solve(scales, bands, rhs) -> tuple:
    """(the lanes of det H' and of the ints of ``adjugate``, one row each
    and one column per prime, the primes, the pivots found structurally
    zero, the bytes of the lane vectors held at once)."""
    n = len(scales)
    d = bands[BAND_NAMES.index("d")]
    norms = [sum(v * v for v in entries) for entries in zip(*bands)]
    # r' and the forward pass are zero above the first row where some
    # column is nonzero, so the substitution starts there (at most n - 2)
    start = n - 2
    for i, entries in enumerate(zip(*rhs), start=1):
        largest = max(v * v for v in entries)
        norms[i - 1] += largest
        if largest:
            start = min(start, i)
    # the bands, and the right-hand sides as one band of rows of m ints for
    # m columns, read as int64 arrays once for every sweep where they fit
    columns = [*bands, rhs[0] if len(rhs) == 1 else list(zip(*rhs))] if rhs else list(bands)
    for k, ints in enumerate(columns):
        try:
            columns[k] = np.array(ints, dtype=np.int64)
        except OverflowError:
            pass  # _bands splits it for each sweep
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
        shifts = {i: Residues(s_lanes * _lanes(scales[i - 1], p) % p, p) for i in overrides}

        def pivot(value, i):
            shift = shifts.get(i)
            return _nonzero(value if shift is None else value + shift, i)

        lanes = _bands(columns, p)
        rows = kernels.sweep(*lanes[:7], pivot)
        try:
            if rhs:  # the substitution reads every row; a det streams
                rows = list(rows)
            det = reduce(mul, (row[0] for row in rows))
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
    # det H'(s) times the Lagrange weight of its point, lane by lane: a value
    # y(s) times it, summed over the points, is det H' * y at s = 0 mod each
    # prime (a polynomial of degree <= r in s)
    weights = [w.numerator * pow(w.denominator, -1, q) % q
               for w in _lagrange_at_zero(points) for q in primes.tolist()]
    scaled_det = det.reduced() * np.array(weights, dtype=np.int64) % p

    def at_zero(rows):
        return rows.reshape(len(rows), len(points), K).sum(axis=1) % primes

    # one block of rows for det H' and one for y, n x K per column once taken
    # to s = 0.  One column stays one: numpy multiplies (K,) by (K,) faster
    # than by (1, K)
    blocks = [at_zero(scaled_det[None])]
    kept = 0  # a det keeps no factor row, only the sweep's window
    if rhs:
        fd = FactorData(n, *kernels.factor_vectors(rows), overrides=(), D=lanes[0], C=lanes[6],
                        backend="residues")
        del rows
        kept = n
        y = kernels.substitute(fd, lanes[7], start)
        # n x lanes, or n x m x lanes for m columns: its columns one after the other
        Y = np.moveaxis(np.array([value.reduced() for value in y[1:]]), 0, -2).reshape(-1, len(p))
        Y *= scaled_det
        Y %= p
        blocks.append(at_zero(Y))
    U = np.concatenate(blocks)
    # the lane vectors held at once: 9 per factor row kept, and about 3 per entry of y
    return U, primes, overrides, p.nbytes * (9 * kept + 3 * (len(U) - 1))
