"""Exact determinant, solve and inverse over word-size primes.

The bordered LU recurrences do O(n) field operations, but over
``Fraction`` each one works on operands of O(n) digits and takes their
gcd.  Here the elimination runs once over many lanes at the same time:
every entry is a numpy int64 vector holding one lane per (point, prime)
for primes below 2**30.  The integers det H' and det H' * y, for
y = H'^-1 r' and each integer right-hand side r', are then rebuilt from
their residues by Chinese remaindering (the sum of each residue times the
idempotent of its prime; von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 5).  ``adjugate`` takes all its right-hand sides in one
elimination: for ``solve`` they are r' = L r, and for the inverse the unit
vectors e_j of its seed and zero-C columns, so that det H' * y are columns
of adj H'.

The elimination is division-free (fraction-free in the sense of E. H.
Bareiss, Math. Comp. 22, 1968, without his exact division, which the
lanes do not need): in the natural order of the paper's bordered LU, each
step j takes row <- U'_jj * row - row[j] * pivot row for the rows j+1 ..
j+3 and the border rows n-1 and n, and reduces mod p once; each product
of two reduced lanes is below 2**60, so a difference of two stays in
int64.  Those are the only rows with an entry in column j, and they span
columns j .. j+6, n-1 and n and the right-hand sides: the rows sit in a
window of six rows, each step updates the whole window as one int64
block, and the last eight rows and columns are eliminated as a dense
block.  U'_jj is the pivot alpha_j times the pivots that have scaled row
j, all already checked nonzero, so its zero lanes are those of the
leading minor N_j, and every rule below reads U'_jj as it would alpha_j.
Scaling a row scales the determinant, so det H' = prod U'_jj / S with
S = prod U'_jj^c_j, c_j the rows scaled at step j.  The back substitution
divides by nothing either (``_back_substitute``), so one call takes one
inverse, that of S: one Python ``pow`` per lane.  A determinant keeps
only the window, O(K) lanes whatever n; a solve keeps U' and y' row by
row, (7 + m) n lane vectors for m columns.  The right-hand sides join the
window at step ``start`` - 3, ``start`` the first row where one of them is
nonzero: above it every row but the border rows is zero there, and those
are only scaled.

The elimination runs on H' = diag(L) H, where L_i is the lcm of the
denominators in row i of H and of the right-hand sides, so H' and
r' = L r are integer and det H = det H' / prod(L_i).

A structurally zero pivot is handled at concrete points of
H'(s) = H' + s diag(L) G, G a one at (i, i) for each such pivot i.  The
K primes are tiled over the points s = 1 ... r + 1 (r = |G|), and only
d'_i, i in G, differs between points: its lanes gain those of s L_i as
row i is read.  det H'(s) and each entry of det H'(s) * y(s) are
polynomials of degree <= r in s, so each is interpolated to s = 0 modulo
each prime (Lagrange) before one CRT.  Without a zero pivot there is one
point, s = 0, and G is empty.

K is chosen so that M = prod(p) exceeds twice the Hadamard bound of H'(s)
at the largest point, with r' included and every row norm taken as at
least 1.  That bounds |det H'(s)|, every |det H'(s) * x_j(s)| (Cramer) and
every leading minor N_i(s).  It bounds every (n-1)-minor too, that is,
every entry of adj H'(s): deleting a column only shrinks the rows' norms,
and deleting a row drops a factor that is at least 1.  The rebuilt
integers are therefore exact, and a pivot N_i(s) / N_{i-1}(s) that is
zero in every lane of a point is zero there.  A pivot zero at every point
is structurally zero: it joins G and the elimination restarts with one
point more.  A point where it is zero, but not at every point, is
replaced by the next integer.  The lane therefore finds the same G as the
symbolic sweep, and it says when H is singular (det H' = 0) without
dividing by it.

A pivot that is zero in some but not all lanes of a point is not zero
there: a lane prime divides a nonzero minor N_i(s).  Those primes are
dropped, K primes are taken again from the table, skipping the dropped
ones, until prod(p) again exceeds twice the bound, and the elimination
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
  when the elimination is set up, so they share it, and a row read takes
  their lanes from that one table.
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
from functools import cache
from itertools import count, islice, repeat
from math import isqrt, prod
from operator import add

import numpy as np

from .matrix import BAND_NAMES, CyclicHeptaMatrix, row_scaled

_TOP = 1 << 30
_SEGMENT = 1 << 18
_INT64 = 1 << 63
# a call whose lane arrays took this many bytes or more trims the C heap
_TRIM_BYTES = 768 << 10
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
    """v^-1 mod p lane by lane, one Python ``pow`` per lane; every lane of
    v must be reduced and nonzero.  An elimination makes one such call."""
    return np.array(list(map(pow, v.tolist(), repeat(-1), p.tolist())), dtype=np.int64)


class _ZeroLanes(Exception):
    """Pivot ``index`` is zero in the lanes that ``zero`` marks."""

    def __init__(self, index: int, zero: np.ndarray):
        super().__init__(index)
        self.index = index
        self.zero = zero


def _int64_rows(columns) -> tuple:
    """(n x len(columns) int64, with 0 at each entry beyond int64; those
    entries as a list; their (row, column) positions, 0-based, in that
    order) for ``columns``, lists of n ints."""
    ints = np.zeros((len(columns[0]), len(columns)), dtype=np.int64)
    wide, at = [], []
    for c, values in enumerate(columns):
        try:
            ints[:, c] = values
        except OverflowError:
            X = np.array(values, dtype=object)
            beyond = (X < -_INT64) | (X >= _INT64)
            ints[:, c] = np.where(beyond, 0, X).astype(np.int64)
            rows = np.flatnonzero(beyond).tolist()
            wide += X[rows].tolist()
            at += [(i, c) for i in rows]
    return ints, wide, at


class _Rows:
    """n rows of ints read as lanes: ``ints`` (int64, 0 where an entry is
    beyond int64) and, for each such entry, a row of ``table``, the one
    ``_wide_lanes`` table of the elimination, which a read does not copy.
    ``wide`` maps row i to the (column, row of ``table``) of its entries
    beyond int64."""

    __slots__ = ("ints", "wide", "table", "p")

    def __init__(self, ints: np.ndarray, at: list, first: int, table, p: np.ndarray):
        self.ints = ints
        self.wide = {}
        for k, (i, c) in enumerate(at, start=first):
            self.wide.setdefault(i, []).append((c, k))
        self.table = table
        self.p = p

    def entry(self, i: int, c: int) -> np.ndarray:
        """The lanes of entry c of row i."""
        for col, k in self.wide.get(i, ()):
            if col == c:
                return self.table[k]
        return self.ints[i, c] % self.p

    def read(self, out: np.ndarray, i: int) -> None:
        """The lanes of row i into ``out``."""
        np.fmod(self.ints[i, :, None], self.p, out=out)
        for c, k in self.wide.get(i, ()):
            out[c] = self.table[k]


def _readers(bands, rhs):
    """``read(p)``, the ``_Rows`` of H' and of r' (None without columns)
    over the lanes of p, for the bands of H' and the columns of r' as
    ``adjugate`` takes them.  Row i of H' holds entry b at slot
    (i - 3 + b) % 7, the slot of its column in the window.  The ints are
    split once; each ``read`` makes one ``_wide_lanes`` table of every
    entry beyond int64, which both read from."""
    n = len(bands[0])
    ints, wide, at = _int64_rows(bands)
    slots = (np.arange(1, n + 1)[:, None] + np.arange(-3, 4)) % 7
    rows = np.empty_like(ints)
    rows[np.arange(n)[:, None], slots] = ints
    at = [(i, int(slots[i, b])) for i, b in at]
    if rhs:
        rhs_ints, rhs_wide, rhs_at = _int64_rows(rhs)
        wide += rhs_wide

    def read(p):
        table = _wide_lanes(wide, p) if wide else None
        columns = _Rows(rhs_ints, rhs_at, len(at), table, p) if rhs else None
        return _Rows(rows, at, 0, table, p), columns

    return read


def _eliminate(band: _Rows, rhs, start: int, shifts: dict) -> tuple:
    """(det H'(s), and det H'(s) * H'(s)^-1 r' as n x m x lanes or None)
    by one division-free elimination of H'(s), in natural order, over the
    lanes of ``band.p``: each step takes row <- u * row - row[j] * pivot
    row, u = U'_jj the pivot, and reduces once.

    ``band`` holds the rows of H' with row i's entry of column c at slot
    c % 7, ``rhs`` those of r' (or None), which are zero before row
    ``start``; ``shifts`` maps i in G to the lanes of s L_i, added to d'_i
    as row i is read.  Raises ``_ZeroLanes`` at the first pivot with a zero
    lane (module docstring).
    """
    p = band.p
    n, P = len(band.ints), len(p)
    m = rhs.ints.shape[1] if rhs is not None else 0
    keep = rhs is not None
    if keep:
        # per row: the pivot, the product of the pivots above it, and
        # U'_{i,i+1..i+3}, U'_{i,n-1}, U'_{i,n} and y'_i
        pivots = np.empty((n, P), dtype=np.int64)
        above = np.empty((n, P), dtype=np.int64)
        kept = np.zeros((n, 5 + m, P), dtype=np.int64)
    R = np.ones(P, dtype=np.int64)  # the product of the pivots so far

    def shifted(v, i):
        return (v + shifts[i]) % p if i in shifts else v

    def border_rhs(out):
        """The border rows' right-hand sides into ``out``, scaled as every
        step so far has scaled those rows."""
        for k, i in enumerate((n - 2, n - 1)):
            rhs.read(out[k], i)
        out *= R
        out %= p

    def read_row(out, i, at, with_rhs):
        """Row i of H'(s) into the slots ``at`` gives its columns (None: not
        held), and, ``with_rhs``, row i of r' into the last m."""
        for b in range(7):
            if (b == 0 and i <= 3) or (b == 6 and i >= n - 2):
                continue  # the wrap positions D_1..D_3, C_{n-2}..C_n hold zero
            slot = at((i - 4 + b) % n + 1)
            if slot is not None:
                v = band.entry(i - 1, (i - 3 + b) % 7)
                if b == 3:
                    v = shifted(v, i)
                out[slot] = v
        if with_rhs:
            rhs.read(out[len(out) - m:], i - 1)

    # the window: rows j..j+3 at slots i % 4, then rows n-1 and n; columns
    # j..j+6 at slots c % 7, then n-1 and n, then the right-hand sides,
    # which it takes from step max(1, start - 3) on: above, every row of
    # the window but the border rows has zero there, and theirs are only
    # scaled
    regular = max(0, n - 8)
    attach = max(1, start - 3) if keep else n
    if regular:
        A = np.zeros((6, 9 + (m if attach == 1 else 0), P), dtype=np.int64)

        def window(c):
            return c % 7 if c <= 7 else {n - 1: 7, n: 8}.get(c)

        for slot, i in ((1, 1), (2, 2), (3, 3), (0, 4), (4, n - 1), (5, n)):
            read_row(A[slot], i, window, attach == 1)
        # the border rows' own entries in columns past the first window join
        # it times the pivots that have scaled those rows
        late = {}
        for slot, i, count in ((4, n - 1, 3), (5, n, 2)):
            for b in range(count):
                if i - 3 + b > 7:
                    late.setdefault(i - 3 + b, []).append((slot, i - 1, (i - 3 + b) % 7))
        takes = [[(c + u) % 7 for u in (1, 2, 3)] + list(range(7, 9 + m)) for c in range(7)]
        X = np.empty_like(A)
    for j in range(1, regular + 1):
        if j > 1:
            if j == attach:
                A = np.concatenate([A, np.zeros((6, m, P), dtype=np.int64)], axis=1)
                X = np.empty_like(A)
                border_rhs(A[4:, 9:])
            i, s = j + 3, (j + 3) % 4
            band.read(A[s, :7], i - 1)
            if i in shifts:
                A[s, i % 7] = shifted(A[s, i % 7], i)
            if j >= attach:
                rhs.read(A[s, 9:], i - 1)
            for slot, row, c in late.get(j + 6, ()):
                A[slot, c] = band.entry(row, c) * R % p
        s, c = j % 4, j % 7
        u = A[s, c].copy()
        if np.count_nonzero(u) < P:
            raise _ZeroLanes(j, u == 0)
        if keep:
            pivots[j - 1] = u
            above[j - 1] = R
            width = 5 + (m if j >= attach else 0)
            A[s].take(takes[c][:width], axis=0, out=kept[j - 1, :width], mode="clip")
        R *= u
        np.fmod(R, p, out=R)
        np.multiply(A[:, c, None], A[s], out=X)
        A *= u
        A -= X
        np.fmod(A, p, out=A)
    # S = prod_j U'_jj^c_j, c_j the rows scaled at step j: five per window step
    S = R * R % p
    S = S * S % p * R % p

    # the last eight rows and columns, dense
    j0 = n - 7
    T = np.zeros((8, 8 + m, P), dtype=np.int64)
    if regular:
        columns = [(j0 + t) % 7 for t in range(6)]
        for t, slot in ((0, j0 % 4), (1, (j0 + 1) % 4), (2, (j0 + 2) % 4), (6, 4), (7, 5)):
            T[t, :6] = A[slot, columns]
            T[t, 6:8 + (m if regular >= attach else 0)] = A[slot, 7:]
        if keep and regular < attach:
            border_rhs(T[6:, 8:])
        del A
    # rows n-4 .. n-2 enter here; at n = 8 every row does, the border rows
    # with their entries of every column
    for i in range(j0 + 3, n - 1) if regular else range(1, 9):
        read_row(T[i - j0], i, lambda c: c - j0 if c >= j0 else None, keep)
    lead = np.ones(P, dtype=np.int64)  # the product of the pivots of the block so far
    for t in range(8):
        j = j0 + t
        u = T[t, t].copy()
        if np.count_nonzero(u) < P:
            raise _ZeroLanes(j, u == 0)
        if keep:
            pivots[j - 1] = u
            above[j - 1] = R
            for v in (1, 2, 3):
                if t + v <= 5:
                    kept[j - 1, v - 1] = T[t, t + v]
            if t <= 5:
                kept[j - 1, 3] = T[t, 6]
            if t <= 6:
                kept[j - 1, 4] = T[t, 7]
            kept[j - 1, 5:] = T[t, 8:]
        R *= u
        np.fmod(R, p, out=R)
        if t < 7:
            lead *= u
            np.fmod(lead, p, out=lead)
            S *= lead
            np.fmod(S, p, out=S)
            # a row at a time, so that no temporary holds the whole block
            X = np.empty_like(T[t, t:])
            for row in T[t + 1:, t:]:
                np.multiply(T[t, t:], row[0], out=X)
                row *= u
                row -= X
                np.fmod(row, p, out=row)
    inverse = _inverse_lanes(S, p)
    det = R * inverse % p
    if not keep:
        return det, None
    return det, _back_substitute(pivots, above, kept, inverse, p)


def _back_substitute(pivots, above, kept, inverse, p) -> np.ndarray:
    """det H' * x (n x m x lanes) from U' x = y' without dividing.

    W_i = x_i prod_{k >= i} U'_kk runs up from W_n = y'_n: with Q_i the
    product of the pivots i .. n-2,

        W_i = Q_{i+1} E_i - U'_{i,i+1} W_{i+1} - U'_{i,i+2} U'_{i+1,i+1} W_{i+2}
              - U'_{i,i+3} U'_{i+1,i+1} U'_{i+2,i+2} W_{i+3},
        E_i = y'_i U'_{n-1,n-1} U'_nn - U'_{i,n-1} W_{n-1} - U'_{i,n} U'_{n-1,n-1} W_n,

    and det H' x_i = W_i prod_{k < i} U'_kk / S, S = ``inverse``^-1.  E and
    the coefficients are made for every row at once; the loop is the three
    products of the band.  Each product of reduced lanes is below 2**60,
    so a sum of four stays in int64.
    """
    n, P = pivots.shape
    sup, border, y = kept[:, :3], kept[:, 3:5], kept[:, 5:]
    W = np.zeros((n + 1, y.shape[1], P), dtype=np.int64)
    W[n - 1] = y[n - 1]
    W[n - 2] = (y[n - 2] * pivots[n - 1] - border[n - 2, 1] * W[n - 1]) % p
    E = y[:n - 2] * (pivots[n - 2] * pivots[n - 1] % p)
    E -= border[:n - 2, 0, None] * W[n - 2]
    E -= border[:n - 2, 1, None] * (pivots[n - 2] * W[n - 1] % p)
    E %= p
    sup[:-1, 1] *= pivots[1:]
    sup[:-1, 1] %= p
    sup[:-2, 2] *= pivots[1:-1]
    sup[:-2, 2] %= p
    sup[:-2, 2] *= pivots[2:]
    sup[:-2, 2] %= p
    Q = np.ones(P, dtype=np.int64)
    for r in range(n - 3, -1, -1):
        w = Q * E[r]
        w -= (sup[r, :, None] * W[r + 1:r + 4]).sum(axis=0)
        np.fmod(w, p, out=W[r])
        Q *= pivots[r]
        np.fmod(Q, p, out=Q)
    above *= inverse
    above %= p
    W = W[:n]
    W *= above[:, None]
    W %= p
    return W


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
    and no row is kept.
    """
    U, primes, overrides, lane_bytes = _solve(scales, bands, rhs)
    # glibc raises its mmap threshold to the size of each mmapped block it
    # frees, so after the first large lane array is freed the next ones come
    # from the heap, whose freed pages it keeps: after a large call, hand
    # them back, or a process that runs more work after it (an inverse,
    # say) holds them resident next to what it allocates then.  After a
    # small call the pages are reused at once by what follows, and a trim
    # would only make it fault them in again.  A call that drops a prime
    # trims once, after the elimination that completes; a determinant keeps
    # no row and never trims.  Returning from ``_solve`` frees its arrays,
    # so the trim runs here, before the CRT allocates its limb sums.
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
    # r' is zero above the first row where some column is nonzero, so the
    # elimination takes the right-hand sides from there on (at most n - 2)
    start = n - 2
    for i, entries in enumerate(zip(*rhs), start=1):
        largest = max(v * v for v in entries)
        norms[i - 1] += largest
        if largest:
            start = min(start, i)
    read = _readers(bands, rhs)
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
        shifts = {i: s_lanes * _lanes(scales[i - 1], p) % p for i in overrides}
        try:
            det, Y = _eliminate(*read(p), start, shifts)
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
    # each lane times the Lagrange weight of its point: summed over the
    # points, a value of degree <= r in s is its value at s = 0 mod each prime
    weights = np.array([w.numerator * pow(w.denominator, -1, q) % q
                        for w in _lagrange_at_zero(points) for q in primes.tolist()],
                       dtype=np.int64)

    def at_zero(rows):
        rows = rows * weights % p
        return rows.reshape(len(rows), len(points), K).sum(axis=1) % primes

    blocks = [at_zero(det[None])]
    if rhs:
        # n x m x lanes: its columns one after the other
        blocks.append(at_zero(np.moveaxis(Y, 1, 0).reshape(-1, len(p))))
        del Y
    U = np.concatenate(blocks)
    # the lane vectors held at once: (7 + m) n kept for the back
    # substitution, and its 2 m n more
    return U, primes, overrides, p.nbytes * (7 + 3 * len(rhs)) * n if rhs else 0
