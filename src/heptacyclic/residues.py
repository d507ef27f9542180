"""Exact determinant and solve over word-size primes.

The bordered LU sweep does O(n) field operations, but over ``Fraction``
each one works on operands of O(n) digits and takes their gcd.  Here the
sweep runs once over K primes p < 2**31 at the same time: every value is a
``Residues``, a numpy int64 vector holding one lane per prime, and
``kernels.sweep`` and ``kernels.substitute`` run over it unchanged.  The
integers det H' and det H' * x are then rebuilt from their residues by
Chinese remaindering (Garner's algorithm; von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 5).

The sweep runs on H' = diag(L) H, where L_i is the lcm of the denominators
in row i of H and of the right-hand sides, so H' and r' = L r are integer
and det H = det H' / prod(L_i).  K is chosen from the Hadamard bound of H'
with r' included, which bounds |det H'| and every |det H' * x_j| (Cramer),
so the rebuilt integers are exact.

The lane gives up, and ``solve`` returns None, when an entry is not a
``Fraction`` (the op-counting scalar, rational functions in t) or when a
pivot is zero in any lane: a structurally zero pivot, a prime that divides
a nonzero pivot, or a singular H.  The caller then runs the ``Fraction``
path, so the lane never gives a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import repeat
from math import isqrt, prod

import numpy as np

from . import kernels
from .errors import ZeroPivotError
from .factor import FactorData, det_from_factors
from .matrix import CyclicHeptaMatrix, row_scaled

_TOP = 1 << 31
_SEGMENT = 1 << 18
_INT64 = 1 << 63


class _PrimeTable:
    """The largest primes below 2**31, in descending order, sieved on demand
    one segment of 2**18 integers at a time (a segmented sieve of
    Eratosthenes, so the table is the same on every run)."""

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


_PRIMES = _PrimeTable()


def _lanes(x: int, p: np.ndarray) -> np.ndarray:
    """x mod each prime of ``p``; an int beyond int64 goes through Python ints."""
    if -_INT64 <= x < _INT64:
        return np.remainder(x, p)
    return np.array([x % q for q in p.tolist()], dtype=np.int64)


def _inverse_lanes(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """v^-1 mod p lane by lane; every lane of v must be nonzero."""
    return np.array(list(map(pow, v.tolist(), repeat(-1), p.tolist())), dtype=np.int64)


class Residues:
    """A value modulo each of K primes below 2**31: ``v[k]`` is the value
    mod ``p[k]``, reduced into [0, p[k]).

    Supports ``+ - * /`` with another ``Residues`` over the same primes, and
    unary minus.  Every result is reduced before it is returned, so a
    product of two lanes stays below 2**62 and fits int64.  A divisor's
    inverse is computed once and kept on it: the sweep divides by each
    pivot several times.
    """

    __slots__ = ("v", "p", "_inv")

    def __init__(self, v: np.ndarray, p: np.ndarray):
        self.v = v
        self.p = p
        self._inv = None

    def inverse(self) -> np.ndarray:
        """The lanes of 1/self; ZeroDivisionError when a lane is zero."""
        if self._inv is None:
            if not self.v.all():
                raise ZeroDivisionError("residue vector is zero in some lane")
            self._inv = _inverse_lanes(self.v, self.p)
        return self._inv

    def __add__(self, other: Residues) -> Residues:
        return Residues((self.v + other.v) % self.p, self.p)

    def __sub__(self, other: Residues) -> Residues:
        return Residues((self.v - other.v) % self.p, self.p)

    def __mul__(self, other: Residues) -> Residues:
        return Residues(self.v * other.v % self.p, self.p)

    def __truediv__(self, other: Residues) -> Residues:
        return Residues(self.v * other.inverse() % self.p, self.p)

    def __neg__(self) -> Residues:
        return Residues(-self.v % self.p, self.p)


class _Band:
    """1-based integer band read as residue vectors, each made when it is
    read, so no residue array is kept per band entry."""

    __slots__ = ("ints", "p")

    def __init__(self, ints, p):
        self.ints = [None, *ints]
        self.p = p

    def __len__(self):
        return len(self.ints)

    def __getitem__(self, i):
        return Residues(_lanes(self.ints[i], self.p), self.p)


def _nonzero(value, i):
    if not value.v.all():
        raise ZeroPivotError(i)
    return value


def _garner(U: np.ndarray, p: np.ndarray) -> list:
    """The integers in (-M/2, M/2], M = prod(p), whose residues are the
    columns of U (lane k in row k); Garner's mixed-radix algorithm.

    The radix digits V_j come one at a time, each step vectorised over the
    columns.  The radices P_j = p_0 ... p_{j-1} are carried mod every prime
    as one vector w, so the memory is O(K m), not O(K^2).  Until step k
    turns it into V_k, row k of V holds the sum of P_i V_i mod p_k over the
    digits i < k found so far.
    """
    K = len(p)
    primes = p.tolist()
    w = np.ones(K, dtype=np.int64)
    V = np.zeros(U.shape, dtype=np.int64)
    terms = np.empty(U.shape, dtype=np.int64)
    for j, q in enumerate(primes):
        V[j] = (U[j] - V[j]) % q * pow(int(w[j]), -1, q) % q
        # each term is below 2**31, so K of them sum within int64
        t = np.multiply(w[j + 1:, None], V[j], out=terms[j + 1:])
        V[j + 1:] += np.remainder(t, p[j + 1:, None], out=t)
        w = w * q % p
    x = V[K - 1].tolist()
    for k in range(K - 2, -1, -1):
        x = [a * primes[k] + b for a, b in zip(x, V[k].tolist())]
    M = prod(primes)
    return [v - M if 2 * v > M else v for v in x]


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


def solve(H: CyclicHeptaMatrix, columns) -> tuple | None:
    """(det H, the entries of x with H x = r for each of ``columns``, column
    after column) through one residue sweep, or None when the lane gives up.

    ``columns`` may be empty: then this is the determinant alone.
    """
    if not all(type(v) is Fraction for row in (*H.bands().values(), *columns) for v in row):
        return None
    found = _solve(H, columns)
    # each lane vector is a small buffer on the C heap, and glibc keeps the
    # pages of freed small buffers: hand them back, or a process that runs
    # more work after this call (an inverse, say) holds them resident next
    # to what it allocates through Python's own allocator.  When the lane
    # gives up, the caller's Fraction path reuses those pages at once, so
    # the heap is left as it is and the fallback leaves no trace on it.
    if found is not None:
        trim = _malloc_trim()
        if trim is not None:
            trim(0)
    return found


def _solve(H: CyclicHeptaMatrix, columns) -> tuple | None:
    n = H.n
    scales, bands, rhs = row_scaled(H, columns)
    norms = [sum(v * v for v in entries) for entries in zip(*bands)]
    for i, entries in enumerate(zip(*rhs)):
        norms[i] += max(v * v for v in entries)
    # Hadamard: |det H'| and |det H' * x_j| are at most prod(sqrt(norm_i)) <= bound
    bound = isqrt(prod(norms)) + 1
    candidates = _PRIMES.take((2 * bound).bit_length() // 30 + 1).tolist()
    K, M = 0, 1
    while M <= 2 * bound:
        M *= candidates[K]
        K += 1
    p = _PRIMES.take(K)
    lanes = [_Band(band, p) for band in bands]
    try:
        vectors = kernels.sweep(*lanes, _nonzero)
    except ZeroPivotError:
        return None
    fd = FactorData(n, *map(tuple, vectors), overrides=(), D=lanes[0], C=lanes[6],
                    backend="residues")
    det = det_from_factors(fd)
    # one row per value: det H', then det H' * x for each column
    U = np.empty((1 + n * len(rhs), K), dtype=np.int64)
    U[0] = det.v
    for c, r in enumerate(rhs):
        x = kernels.substitute(fd, _Band(r, p))
        for i in range(1, n + 1):
            U[c * n + i] = x[i].v
    U[1:] = U[1:] * det.v % p
    values = _garner(U.T, p)
    det_h = values[0]
    return Fraction(det_h, prod(scales)), [Fraction(v, det_h) for v in values[1:]]
