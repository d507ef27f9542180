"""Independent references and output checks.

Nothing here calls the package's banded solvers: determinants come from
dense elimination modulo two primes, exact solutions and inverses are
checked by multiplying back with the benchmark's own cyclic band product,
and float results by their residuals.  The dense rational oracle
(``heptacyclic.oracle.dense_inverse``) is used for the small exact inverses,
because it shares no code with the banded solvers either.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from instances import BAND_NAMES, BAND_OFFSETS, Instance

# two primes below 2^28: a product of two residues stays below 2^56, so the
# int64 elimination below never overflows
PRIMES = (268435399, 268435367)

FLOAT_TOL = 1e-8


def dense_rows(inst: Instance) -> list:
    """Dense rows (0-based lists) of exact band entries."""
    n = inst.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for name in BAND_NAMES:
        off = BAND_OFFSETS[name]
        for i, v in enumerate(inst.bands[name]):
            rows[i][(i + off) % n] = v
    return rows


def integer_bands(inst: Instance) -> tuple:
    """Bands with row i scaled by the lcm m_i of its denominators.

    Returns (bands of ints, [m_i]); det of the scaled matrix is
    det(H) * prod(m_i), and H x = r holds iff the scaled rows give m_i r_i.
    """
    n = inst.n
    scales = [
        lcm(*(Fraction(inst.bands[name][i]).denominator for name in BAND_NAMES))
        for i in range(n)
    ]
    bands = {
        name: [int(Fraction(v) * m) for v, m in zip(inst.bands[name], scales)]
        for name in BAND_NAMES
    }
    return bands, scales


def det_mod_p(n: int, int_bands: dict, p: int) -> int:
    """Determinant modulo p by Gaussian elimination on the dense matrix.

    Only rows with a nonzero entry in the pivot column are updated, which
    keeps banded inputs cheap without assuming any structure.
    """
    A = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    for name in BAND_NAMES:
        A[rows, (rows + BAND_OFFSETS[name]) % n] = [v % p for v in int_bands[name]]
    det = 1
    for c in range(n):
        nz = np.flatnonzero(A[c:, c])
        if nz.size == 0:
            return 0
        r = c + int(nz[0])
        if r != c:
            A[[c, r]] = A[[r, c]]
            det = -det
        piv = int(A[c, c])
        det = det * piv % p
        below = c + 1 + np.flatnonzero(A[c + 1:, c])
        if below.size:
            f = A[below, c] * pow(piv, -1, p) % p
            A[below, c:] = (A[below, c:] - f[:, None] * A[c, c:][None, :] % p) % p
    return det % p


def det_reference(inst: Instance) -> dict:
    """Residues of det(H) * scale modulo each prime, plus the scale."""
    bands, scales = integer_bands(inst)
    scale = 1
    for m in scales:
        scale *= m
    return {"scale": scale, "residues": [det_mod_p(inst.n, bands, p) for p in PRIMES]}


def det_matches(ref: dict, text: str) -> bool:
    """Does the reported determinant P/Q agree with the residues?"""
    value = Fraction(text)
    for p, res in zip(PRIMES, ref["residues"]):
        if (value.numerator * ref["scale"] - res * value.denominator) % p:
            return False
    return True


def band_product(bands: dict, x: list) -> list:
    """H @ x for an exact vector, straight from the bands."""
    n = len(x)
    return [
        sum(bands[name][i] * x[(i + BAND_OFFSETS[name]) % n] for name in BAND_NAMES)
        for i in range(n)
    ]


def _common_denominator(texts: list) -> tuple:
    """Integer numerators over the lcm of the denominators of ``texts``."""
    fracs = [Fraction(t) for t in texts]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def exact_solution_ok(inst: Instance, rhs: list, x_texts: list) -> bool:
    """H x == r exactly."""
    if len(x_texts) != inst.n:
        return False
    nums, den = _common_denominator(x_texts)
    bands, scales = integer_bands(inst)
    return band_product(bands, nums) == [Fraction(v) * m * den for v, m in zip(rhs, scales)]


def exact_inverse_ok(inst: Instance, S_texts: list) -> bool:
    """H S == I exactly, column by column."""
    n = inst.n
    if len(S_texts) != n or any(len(row) != n for row in S_texts):
        return False
    bands, scales = integer_bands(inst)
    for j in range(n):
        nums, den = _common_denominator([S_texts[i][j] for i in range(n)])
        col = band_product(bands, nums)
        if any(v != (scales[i] * den if i == j else 0) for i, v in enumerate(col)):
            return False
    return True


def oracle_inverse(inst: Instance) -> list:
    """Exact inverse from the package's dense Gauss-Jordan oracle."""
    from heptacyclic.oracle import dense_inverse
    from heptacyclic.matrix import DenseMatrix

    return dense_inverse(DenseMatrix(dense_rows(inst))).rows


def inverse_equals(expected: list, S_texts: list) -> bool:
    if len(S_texts) != len(expected):
        return False
    return all(
        len(row) == len(ref) and all(Fraction(t) == v for t, v in zip(row, ref))
        for row, ref in zip(S_texts, expected)
    )


def float_bands(inst: Instance) -> dict:
    return {name: np.array([float(v) for v in inst.bands[name]]) for name in BAND_NAMES}


def float_band_product(fb: dict, X: np.ndarray) -> np.ndarray:
    """H @ X for a float vector or an (n, k) block."""
    out = np.zeros_like(X)
    for name in BAND_NAMES:
        band = fb[name] if X.ndim == 1 else fb[name][:, None]
        out += band * np.roll(X, -BAND_OFFSETS[name], axis=0)
    return out


def float_solution_ok(fb: dict, rhs_columns: list, x_payload) -> bool:
    """Relative residual max|H x - r| / max|r| <= FLOAT_TOL for every column."""
    cols = [x_payload] if len(rhs_columns) == 1 else x_payload
    if len(cols) != len(rhs_columns):
        return False
    X = np.array(cols, dtype=np.float64).T
    R = np.array(rhs_columns, dtype=np.float64).T
    if X.shape != R.shape or not np.all(np.isfinite(X)):
        return False
    resid = np.abs(float_band_product(fb, X) - R).max(axis=0)
    return bool(np.all(resid <= FLOAT_TOL * np.maximum(np.abs(R).max(axis=0), 1.0)))


def _parity(perm: np.ndarray) -> int:
    """+1 for an even permutation, -1 for an odd one."""
    seen = np.zeros(perm.size, dtype=bool)
    sign = 1
    for start in range(perm.size):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def float_det_reference(fb: dict) -> float:
    """Determinant from SuperLU (scipy), with its row and column pivoting."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    n = fb["d"].shape[0]
    rows = np.tile(np.arange(n), len(BAND_NAMES))
    cols = np.concatenate([(np.arange(n) + BAND_OFFSETS[name]) % n for name in BAND_NAMES])
    vals = np.concatenate([fb[name] for name in BAND_NAMES])
    lu = splu(csc_matrix((vals, (rows, cols)), shape=(n, n)))
    diag = lu.U.diagonal()
    sign = _parity(lu.perm_r) * _parity(lu.perm_c) * int(np.prod(np.sign(diag)))
    return sign * float(np.exp(np.sum(np.log(np.abs(diag)))))


def float_det_ok(ref: float, text: str) -> bool:
    value = float(text)
    return bool(np.isfinite(value) and abs(value - ref) <= FLOAT_TOL * abs(ref))


def float_inverse_ok(fb: dict, S_payload: list) -> bool:
    """max|H S - I| <= FLOAT_TOL."""
    S = np.array(S_payload, dtype=np.float64)
    n = fb["d"].shape[0]
    if S.shape != (n, n) or not np.all(np.isfinite(S)):
        return False
    return bool(np.abs(float_band_product(fb, S) - np.eye(n)).max() <= FLOAT_TOL)
