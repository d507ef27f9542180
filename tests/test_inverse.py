import json
import random
from contextlib import contextmanager
from fractions import Fraction as Fr
from math import prod

import numpy as np
import pytest

from heptacyclic import factor, inverse, kernels, residues, solve
from heptacyclic.cli import main
from heptacyclic.errors import InternalContractError, SingularMatrixError
from heptacyclic.factor import determinant, factorize
from heptacyclic.inverse import _back_column, invert, seed_columns
from heptacyclic.matrix import (
    BAND_NAMES,
    CyclicHeptaMatrix,
    matrix_to_json,
    random_instance,
    row_scaled,
    to_dense,
)
from heptacyclic.oracle import compare, dense_det, dense_inverse
from heptacyclic.solve import solve_many

from test_factor import duplicated_row_matrix, identity_matrix

ALL_PROFILES = ("general", "diagonally-dominant", "zero-pivot-prone", "zero-C")


def oracle_inverse_or_none(H):
    dense = to_dense(H)
    if dense_det(dense) == 0:
        return None
    return dense_inverse(dense)


def units(n, indices):
    return [[int(i == j) for i in range(1, n + 1)] for j in indices]


def column_rows(columns, p):
    """Right-hand-side columns of small ints as the ``residues._Rows`` of an
    elimination over the lanes of p."""
    return residues._Rows(np.array(columns, dtype=np.int64).T, [], 0, None, p)


class TestSeedColumns:
    """``seed_columns`` is one elimination over the residue lanes of
    H' = diag(L) H with the unit vectors as one block of right-hand sides:
    column k of the block holds the lanes of the k-th seed, and its ints
    are the columns of adj H'."""

    def test_identity_seeds_are_basis_columns(self):
        H = identity_matrix()
        with eliminations() as calls:
            delta, overrides, given = seed_columns(H)
        ((_, _, start, _, det, Y),) = calls
        assert start == 6
        assert Y.shape == (10, 5, len(det)) and set(det.tolist()) == {1}
        for i, lanes in enumerate(Y.tolist(), start=1):
            for offset, row in enumerate(lanes):
                assert set(row) == {1 if i == 10 - offset else 0}
        assert (delta, overrides) == (1, ())
        assert given == {j: [int(i == j) for i in range(1, 11)] for j in range(10, 5, -1)}

    def test_example_seed_entries(self, example10, example10_inverse):
        # last five columns straight from the factorization; published spot
        # values included (S_{10,10}, S_{1,10}, S_{1,6} live in the back pass)
        res = invert(example10)
        assert res.S.rows[9][9] == Fr(-1643, 32715)
        assert res.S.rows[0][9] == Fr(6316, 32715)
        assert res.S.rows[0][5] == Fr(-24419, 32715)
        for j in range(5, 10):
            for i in range(10):
                assert res.S.rows[i][j] == example10_inverse[i][j]

    def test_product_with_matrix_gives_identity_columns(self):
        H = random_instance(8, 6, "general")
        if oracle_inverse_or_none(H) is None:
            pytest.skip("singular draw")
        with eliminations() as calls:
            delta, _, given = seed_columns(H)
        ((band, _, _, _, det, Y),) = calls
        p = band.p.tolist()
        # one point and L = 1: the lanes are those of det H * H^-1 itself
        assert len(set(p)) == len(p) and set(row_scaled(H)[0]) == {1}
        for offset in range(5):
            j = 8 - offset
            for lane, q in enumerate(p):
                values = Y[:, offset, lane].tolist()
                assert [v % q for v in H.mat_vec(values)] == \
                    [int(det[lane]) * (i == j) for i in range(1, 9)]
            assert H.mat_vec(given[j]) == [delta * (i == j) for i in range(1, 9)]

    def test_parallel_equals_sequential(self):
        # the five seed columns eliminated side by side in one block are
        # the five eliminated one after another; seed columns never divide
        # by C, so zero C entries need no substitution
        H = random_instance(12, 13, "zero-C")
        assert inverse._zero_c(H)
        with eliminations() as calls:
            seed_columns(H)
        ((band, _, start, shifts, det, Y),) = calls
        for k, j in enumerate(range(12, 7, -1)):
            alone = residues._eliminate(band, column_rows(units(12, [j]), band.p), start, shifts)
            assert np.array_equal(alone[0], det) and np.array_equal(alone[1][:, 0], Y[:, k])

    @pytest.mark.parametrize("points", [1, 3])
    def test_rows_are_the_column_substitutions(self, points):
        # column k of the block, taken from its first nonzero row on, is
        # the k-th unit vector alone, taken from row 1
        if points == 1:
            H = random_instance(40, 2, "diagonally-dominant")
        else:
            H = zero_rows(random_instance(24, 0, "zero-C"), (5, 9))
        zero_c = inverse._zero_c(H)
        assert len(zero_c) >= 2
        with eliminations() as calls:
            seed_columns(H, zero_c)
        ((band, _, start, shifts, det, Y),) = calls
        p = band.p
        assert len(p) == points * len(set(p.tolist())) and len(shifts) == points - 1
        assert start == min(zero_c)
        for k, j in enumerate((*range(H.n, H.n - 5, -1), *zero_c)):
            alone = residues._eliminate(band, column_rows(units(H.n, [j]), p), 1, shifts)
            assert np.array_equal(alone[0], det) and np.array_equal(alone[1][:, 0], Y[:, k])


class TestBackColumns:
    def test_example_first_column(self, example10):
        res = invert(example10)
        col1 = [res.S.rows[i][0] for i in range(10)]
        assert col1 == [
            Fr(-12664, 32715), Fr(2686, 32715), Fr(5417, 10905), Fr(293, 10905),
            Fr(6344, 32715), Fr(938, 3635), Fr(1178, 10905), Fr(-6356, 10905),
            Fr(16382, 32715), Fr(-808, 32715),
        ]

    def test_columns_are_the_oracle_adjugate(self):
        # column j of adj H', H' = diag(L) H, from columns j+1..j+6 over int
        H = rational_entries(random_instance(14, 21, "diagonally-dominant"), 2)
        scales, bands, delta, adj = oracle_adjugate(H)
        assert set(scales) != {1}
        for j in range(14 - 5, 0, -1):
            assert _back_column(bands, adj, j, delta) == adj[j]

    def test_column_locality(self):
        # column j reads only columns j+1..j+6 (and column j+3 of H'):
        # corrupting lower columns must not change a recomputation
        H = random_instance(14, 21, "general")
        if oracle_inverse_or_none(H) is None:
            pytest.skip("singular draw")
        _, bands, delta, adj = oracle_adjugate(H)
        j = 5
        corrupted = list(adj)
        for m in range(1, j):
            corrupted[m] = [999] * 14
        assert _back_column(bands, corrupted, j, delta) == adj[j]

    def test_zero_divisor_is_internal_error(self):
        H = random_instance(10, 11, "zero-C")
        _, bands, delta, adj = oracle_adjugate(H)
        j = max(j for j in range(1, 6) if H.band("C")[j - 1] == 0)
        with pytest.raises(InternalContractError, match="zero divisor"):
            # back_columns takes this column by substitution instead
            _back_column(bands, adj, j, delta)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name``; the returned list gains a 1 per call."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@contextmanager
def on_the_lane():
    """Inside, neither ``factor.factorize`` nor ``kernels.sweep`` may run:
    the exact det, solve and inverse are residue eliminations.  Yields the
    lane primes of each ``residues._eliminate``, a set per elimination,
    completed or not."""
    primes = []
    eliminate = residues._eliminate

    def spy(band, rhs, start, shifts):
        primes.append(set(band.p.tolist()))
        return eliminate(band, rhs, start, shifts)

    def refused(name):
        def run(*args, **kwargs):
            raise AssertionError(f"{name} ran on the exact lane")

        return run

    with pytest.MonkeyPatch.context() as m:
        m.setattr(residues, "_eliminate", spy)
        m.setattr(kernels, "sweep", refused("kernels.sweep"))
        for module in (factor, inverse, solve):
            m.setattr(module, "factorize", refused("factor.factorize"))
        yield primes


@contextmanager
def eliminations():
    """Inside, each completed ``residues._eliminate`` appends its (band,
    rhs, start, shifts, det lanes, det * x lanes or None) to the yielded
    list."""
    calls = []
    eliminate = residues._eliminate

    def spy(band, rhs, start, shifts):
        det, Y = eliminate(band, rhs, start, shifts)
        calls.append((band, rhs, start, shifts, det, Y))
        return det, Y

    with pytest.MonkeyPatch.context() as m:
        m.setattr(residues, "_eliminate", spy)
        yield calls


def oracle_adjugate(H):
    """(L, bands of H', det H', columns of adj H') with H' = diag(L) H, from
    the dense oracle; the columns are 0-based and indexed 1..n."""
    scales, bands, _ = row_scaled(H)
    delta = dense_det(to_dense(H)) * prod(scales)
    assert delta.denominator == 1
    delta = delta.numerator
    S = dense_inverse(to_dense(H)).rows
    adj = [None] + [[delta * S[i][j] / scales[j] for i in range(H.n)] for j in range(H.n)]
    assert all(v.denominator == 1 for col in adj[1:] for v in col)
    return scales, bands, delta, [None] + [[int(v) for v in col] for col in adj[1:]]


def rational_entries(H, seed):
    """H with every entry divided by its own draw from 1..6."""
    rng = random.Random(seed)
    return CyclicHeptaMatrix(H.n, *([v / rng.randint(1, 6) for v in H.band(name)]
                                    for name in BAND_NAMES))


def zero_rows(H, rows):
    """H with D_i, B_i, b_i and d_i set to zero for each i in ``rows``: row i
    of the leading i x i minor is then zero, so pivot i is structurally zero."""
    bands = {k: list(v) for k, v in H.bands().items()}
    for i in rows:
        for name in ("D", "B", "b", "d"):
            bands[name][i - 1] = 0
    return CyclicHeptaMatrix(H.n, **bands)


def inexact_matrix():
    """Dominant integer n = 16 with C_11 = 7 and B_16 = 1: adding 1 to an
    entry of column 16 of adj H makes the division by C_11 inexact."""
    H = random_instance(16, 2, "diagonally-dominant")
    H = H.replace_band("C", [7 if k == 10 else c for k, c in enumerate(H.band("C"))])
    H = H.replace_band("B", [1 if k == 15 else c for k, c in enumerate(H.band("B"))])
    assert dense_det(to_dense(H)) != 0
    return H


class TestInvert:
    def test_identity(self):
        res = invert(identity_matrix())
        assert res.S == to_dense(identity_matrix())
        # every C_i with i <= n-5 is zero here, so all five columns were
        # taken by substitution
        assert res.c_substitutions == (1, 2, 3, 4, 5)
        assert res.pivot_overrides == ()

    def test_example_full_inverse(self, example10, example10_inverse):
        res = invert(example10)
        assert res.S.rows == example10_inverse
        assert res.c_substitutions == (4,)
        assert res.pivot_overrides == ()
        assert res.back_path == "recursion"

    def test_example_spot_values(self, example10):
        res = invert(example10)
        assert res.S.rows[6][5] == Fr(-14012, 10905)
        assert res.S.rows[8][5] == Fr(27832, 32715)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError, match="singular matrix"):
            invert(duplicated_row_matrix())

    def test_zero_C_instance_matches_oracle(self):
        for seed in range(12):
            H = random_instance(9, seed, "zero-C")
            expected = oracle_inverse_or_none(H)
            if expected is None:
                continue
            res = invert(H)
            assert compare(res.S, expected).equal
            assert res.c_substitutions

    def test_zero_pivot_instance_matches_oracle(self):
        hits = 0
        for seed in range(12):
            H = random_instance(8 + seed % 4, seed, "zero-pivot-prone")
            expected = oracle_inverse_or_none(H)
            if expected is None:
                continue
            res = invert(H)
            assert compare(res.S, expected).equal
            hits += 1
            assert 1 in res.pivot_overrides
        assert hits >= 5

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_two_sided_inverse(self, profile):
        checked = 0
        for seed in range(10):
            n = 8 + (seed % 7)
            H = random_instance(n, seed, profile)
            dense = to_dense(H)
            if dense_det(dense) == 0:
                continue
            S = invert(H).S
            eye = [[Fr(1) if i == j else Fr(0) for j in range(n)] for i in range(n)]
            assert (dense @ S).rows == eye
            assert (S @ dense).rows == eye
            checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seed_block_at_n_128(self, seed):
        # at n = 128 the block joins the window at its first nonzero row,
        # some hundred steps in; each column it makes, seed or zero-C, is a
        # column of H^-1
        H = random_instance(128, seed, "diagonally-dominant")
        res = invert(H)
        zero_c = inverse._zero_c(H)
        assert res.c_substitutions == zero_c and len(zero_c) >= 2
        for j in (*range(124, 129), *zero_c):
            column = [row[j - 1] for row in res.S.rows]
            assert H.mat_vec(column) == [int(i == j) for i in range(1, 129)]


class TestIntegerAdjugate:
    """The back recursion runs over the integer adjugate of H' = diag(L) H
    with one exact division per entry; rational entries make L_i != 1."""

    @pytest.mark.parametrize("profile", ["diagonally-dominant", "zero-C", "zero-pivot-prone",
                                         "collision", "three-zero-pivots"])
    def test_rational_entries_match_oracle(self, profile):
        checked = 0
        for seed in range(8):
            if profile == "collision":
                H = collision_matrix(seed)
            elif profile == "three-zero-pivots":
                H = zero_rows(random_instance(16 + seed % 7, seed, "diagonally-dominant"),
                              (3, 8, 13))
            else:
                H = random_instance(8 + seed % 7, seed, profile)
            H = rational_entries(H, seed)
            assert set(row_scaled(H)[0]) != {1}
            expected = oracle_inverse_or_none(H)
            if expected is None:
                continue
            res = invert(H)
            assert res.S == expected
            if profile == "three-zero-pivots":
                assert res.pivot_overrides == (3, 8, 13)
            checked += 1
        assert checked >= 4

    def test_corrupted_column_is_internal_error(self, monkeypatch, tmp_path, capsys):
        # H is integer, so L = 1 and entry (1, 16) of adj H moves by 1
        H = inexact_matrix()
        seeds = inverse.seed_columns

        def corrupted(H, zero_c=()):
            delta, overrides, given = seeds(H, zero_c)
            given[H.n][0] += 1
            return delta, overrides, given

        monkeypatch.setattr(inverse, "seed_columns", corrupted)
        with pytest.raises(InternalContractError, match="inexact division by C'_11"):
            invert(H)
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(H))
        assert main(["inv", "--input", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")


def collision_matrix(seed):
    """Structural zero pivot at index 4 together with C_1 = 0.

    With D_4 = B_4 = b_4 = d_4 = 0 the fourth pivot is identically zero even
    after C_1 is replaced by the indeterminate, so both substitutions share t.
    """
    H = random_instance(10, seed, "general")
    bands = {k: list(H.band(k)) for k in ("D", "B", "b", "d", "a", "A", "C")}
    bands["C"][0] = 0
    bands["D"][3] = bands["B"][3] = bands["b"][3] = bands["d"][3] = 0
    if bands["a"][3] == 0:
        bands["a"][3] = 1
    return CyclicHeptaMatrix(10, **bands)


class TestCollisionGuard:
    def test_detected_and_correct(self):
        hits = 0
        for seed in range(8):
            H = collision_matrix(seed)
            expected = oracle_inverse_or_none(H)
            if expected is None:
                continue
            res = invert(H)
            if 4 in res.pivot_overrides and 1 in res.c_substitutions:
                assert res.back_path == "recursion"
                hits += 1
            assert compare(res.S, expected).equal
        assert hits >= 3

    def test_plain_substitutions_stay_on_recursion_path(self):
        H = random_instance(10, 3, "zero-C")
        if oracle_inverse_or_none(H) is None:
            pytest.skip("singular draw")
        res = invert(H)
        assert res.back_path == "recursion"


class TestZeroBEntries:
    def test_default_inverse_matches_oracle(self):
        # B entries are only ever multipliers, never divisors, so zero B_i
        # (i >= 6) need no substitution
        checked = 0
        for seed in range(10):
            H = random_instance(9, seed, "general")
            if not any(H.band("B")[i] == 0 for i in range(5, 9)):
                continue
            expected = oracle_inverse_or_none(H)
            if expected is None:
                continue
            assert compare(invert(H).S, expected).equal
            checked += 1
        assert checked >= 2


def block_triangular(seed, negative=False):
    """Integer n = 12, block upper triangular over rows and columns 1..6 and
    7..12: every entry of H below the first block is zero, and the first
    block is upper triangular, so det H = d_1 ... d_6 det B2 has no prime
    above 100 but those of det B2.  Rows 7..12 of columns 1..6 of H^-1 are
    zero, so row n has zeros; the entries above them are multiples of
    det B2.  Row n is negated where that gives det H the sign asked for."""
    H = random_instance(12, seed, "diagonally-dominant")
    bands = {k: list(v) for k, v in H.bands().items()}
    for i in range(2, 7):  # below the diagonal of the first block
        for name, offset in (("D", 3), ("B", 2), ("b", 1)):
            if i - offset >= 1:
                bands[name][i - 1] = 0
    for name, i in (("b", 7), ("B", 7), ("D", 7), ("B", 8), ("D", 8), ("D", 9),
                    ("A", 11), ("a", 12), ("A", 12)):  # rows 7..12, columns 1..6
        bands[name][i - 1] = 0
    H = CyclicHeptaMatrix(12, **bands)
    if (dense_det(to_dense(H)) < 0) != negative:
        for name in BAND_NAMES:
            bands[name][11] = -bands[name][11]
    return CyclicHeptaMatrix(12, **bands)


def scaled_by_prime(seed, q=4099):
    """q H0, q a prime above the small primes of the gcd screen: q^(n-1)
    divides every entry of adj H, so the screen's S must take q."""
    H = random_instance(12, seed, "diagonally-dominant")
    return CyclicHeptaMatrix(12, *([q * v for v in H.band(name)] for name in BAND_NAMES))


def perfbench_style(n, seed):
    """Strictly diagonally dominant with no zero band entry off the wraps,
    as the benchmark's plain inverse instances are: no substitution fires."""
    rng = random.Random(seed)
    bands = {name: [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]
             for name in BAND_NAMES}
    bands["D"][:3] = [0, 0, 0]
    bands["C"][n - 3:] = [0, 0, 0]
    for i in range(n):
        others = sum(abs(bands[k][i]) for k in BAND_NAMES if k != "d")
        bands["d"][i] = rng.choice((-1, 1)) * (others + rng.randint(1, 9))
    return CyclicHeptaMatrix(n, **bands)


@contextmanager
def screens():
    """Inside, each ``inverse._gcd_screen`` call appends its (delta, S, r, c)
    to the yielded list."""
    calls = []
    screen = inverse._gcd_screen

    def recorded(delta, cols):
        S, r, c = screen(delta, cols)
        calls.append((delta, S, r, c))
        return S, r, c

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inverse, "_gcd_screen", recorded)
        yield calls


def assert_reduced_as_fractions(H):
    """invert(H) equals the dense oracle, and entry (i, j) has the numerator
    and denominator of Fraction(A_ij, delta), A_ij = adj'_ij L_j; returns
    the screen's (delta, S, r, c)."""
    with screens() as calls:
        res = invert(H)
    assert res.S == dense_inverse(to_dense(H))
    scales, _, delta, adj = oracle_adjugate(H)
    for j in range(1, H.n + 1):
        for i in range(H.n):
            x, expected = res.S.rows[i][j - 1], Fr(adj[j][i] * scales[j - 1], delta)
            assert type(x) is Fr and type(x.numerator) is int
            assert (x.numerator, x.denominator) == (expected.numerator, expected.denominator)
    (screen,) = calls
    assert screen[0] == delta
    return screen


def full_gcd_entries(r, c) -> int:
    """How many entries the screen leaves to the full gcd."""
    return sum(r_i != 1 for r_i in r) * len(c) + sum(c_j != 1 for c_j in c) * len(r) \
        - sum(r_i != 1 for r_i in r) * sum(c_j != 1 for c_j in c)


class TestGcdScreen:
    """Each entry of the inverse is A_ij / delta reduced by gcd(A_ij, delta),
    taken by the small part S of delta wherever r_i = c_j = 1."""

    @pytest.mark.parametrize("seed", range(3))
    def test_prime_dividing_every_entry_goes_to_S(self, seed):
        q = 4099
        delta, S, r, c = assert_reduced_as_fractions(scaled_by_prime(seed, q))
        assert S % q == 0 and (abs(delta) // S) % q != 0
        # with q left in R, every r_i and c_j would hold it
        assert full_gcd_entries(r, c) == 0

    @pytest.mark.parametrize("negative", [False, True], ids=["positive", "negative"])
    # seeds whose det B2 has a prime above the small ones (2, 5 and 6 have none)
    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_zeros_in_row_n_take_the_full_gcd(self, seed, negative):
        H = block_triangular(seed, negative)
        res = invert(H)
        assert all(v == 0 for v in res.S.rows[-1][:6])
        delta, S, r, c = assert_reduced_as_fractions(H)
        assert (delta < 0) == negative
        # R > 1, so a zero A_nj makes c_j = R: the columns 1..6 take the full
        # gcd (a zero reduced by S alone would keep the denominator R), and
        # the others are screened
        assert abs(delta) // S > 1
        assert [c_j != 1 for c_j in c] == [True] * 6 + [False] * 6
        assert 0 < full_gcd_entries(r, c) < 144

    @pytest.mark.parametrize("seed", range(4))
    def test_negative_delta(self, seed):
        H = random_instance(12 + seed, seed, "diagonally-dominant")
        if dense_det(to_dense(H)) > 0:
            H = H.replace_band("d", [-v if k == 0 else v for k, v in enumerate(H.band("d"))])
        delta, *_ = assert_reduced_as_fractions(H)
        assert delta < 0

    @pytest.mark.parametrize("make", [
        lambda seed: random_instance(10 + seed, seed, "general"),
        lambda seed: block_triangular(seed, negative=seed % 2 == 1),
    ], ids=["general", "block-triangular"])
    def test_rational_entries(self, make):
        checked = 0
        for seed in range(4):
            H = rational_entries(make(seed), seed)
            if oracle_inverse_or_none(H) is None:
                continue
            assert set(row_scaled(H)[0]) != {1}
            assert_reduced_as_fractions(H)
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_pivot_and_zero_c(self, seed):
        H = zero_rows(random_instance(14 + seed, seed, "zero-C"), (5,))
        if oracle_inverse_or_none(H) is None:
            pytest.skip("singular draw")
        res = invert(H)
        assert res.pivot_overrides == (5,) and res.c_substitutions
        assert_reduced_as_fractions(H)

    def test_no_full_gcd_on_a_plain_instance(self):
        # the benchmark's plain inverse: every entry is screened
        with screens() as calls:
            res = invert(perfbench_style(64, 1))
        assert res.c_substitutions == () and res.pivot_overrides == ()
        ((delta, S, r, c),) = calls
        assert abs(delta) // S > 1
        assert full_gcd_entries(r, c) == 0

    def test_zero_delta_refused(self):
        # as Fraction(A_ij, 0) did
        H = duplicated_row_matrix()
        with pytest.raises(ZeroDivisionError):
            inverse.back_columns(H, 0, {j: [0] * H.n for j in range(1, H.n + 1)})


def point_skip_matrix():
    """The plain sweep of H (s = 0) finds d_1 = 0 and puts (1, 1) into G;
    pivot 2 of H(s) is d_2 - b_2 a_1 / s, zero at s = 1 only, so that point
    is skipped and pivot 2 is not overridden."""
    H = random_instance(10, 3, "diagonally-dominant")
    bands = {k: list(v) for k, v in H.bands().items()}
    bands["C"][0] = 2
    bands["d"][0], bands["a"][0], bands["b"][1], bands["d"][1] = 0, 1, 1, 1
    return CyclicHeptaMatrix(10, **bands)


def acceptance_corpora():
    """The instances of acceptance criteria 3 and 4, then the collision corpus."""
    for seed in range(52):
        for p_idx, profile in enumerate(ALL_PROFILES):
            yield random_instance(8 + ((seed + 3 * p_idx) % 13), seed, profile)
    for profile in ("zero-pivot-prone", "zero-C"):
        seed = completed = 0
        while completed < 50:
            H = random_instance(8 + (seed % 7), seed, profile)
            seed += 1
            if dense_det(to_dense(H)) != 0:
                completed += 1
                yield H
    for seed in range(8):
        yield collision_matrix(seed)


class TestConcretePoints:
    """The determinant, solve and inverse run at concrete points of
    H(s) = H + s*G; the symbolic sweep over t stays the reference for which
    pivots are overridden."""

    def test_override_lists_match_symbolic_sweep(self):
        with_overrides = 0
        for H in acceptance_corpora():
            det = determinant(H)
            expected = factorize(H).overrides
            assert det.pivot_overrides == len(expected)
            if det.singular:
                continue
            assert invert(H).pivot_overrides == expected
            with_overrides += bool(expected)
        assert with_overrides >= 100

    def test_point_with_a_zero_pivot_is_skipped(self, monkeypatch):
        H = point_skip_matrix()
        assert factorize(H).overrides == (1,)
        dense = to_dense(H)
        assert dense_det(dense) != 0

        sweeps = count_calls(monkeypatch, residues, "_eliminate")
        factorizations = count_calls(monkeypatch, factor, "factorize")
        res = invert(H)
        # s = 0 stops at pivot 1, s = 1 at pivot 2, and s = 2, 3 run through
        assert len(sweeps) == 3 and factorizations == []
        assert res.pivot_overrides == (1,) and res.c_substitutions == ()
        assert compare(res.S, dense_inverse(dense)).equal
        assert determinant(H).value == dense_det(dense)
        r = [Fr(i) for i in range(1, 11)]
        (report,) = solve_many(H, [r])
        assert H.mat_vec(list(report.x)) == r
        assert report.det == dense_det(dense)

    def test_back_columns_run_once_whatever_r(self, monkeypatch):
        # only the seed and zero-C columns are interpolated; the recursion
        # runs once, on H itself
        H = zero_rows(random_instance(20, 1, "diagonally-dominant"), (5, 15))
        calls = []
        back = inverse.back_columns

        def counting(*args, **kwargs):
            calls.append(1)
            return back(*args, **kwargs)

        monkeypatch.setattr(inverse, "back_columns", counting)
        res = invert(H)
        assert res.pivot_overrides == (5, 15) and res.c_substitutions == (8, 9)
        assert len(calls) == 1
        assert res.S == dense_inverse(to_dense(H))


def pentadiagonal(n, seed):
    """A diagonally dominant matrix with C = D = 0."""
    H = random_instance(n, seed, "diagonally-dominant")
    return H.replace_band("C", [0] * n).replace_band("D", [0] * n)


def override_only_through_zero_c(seed):
    """Dominant n = 12 with C_3 = 0 and d_6 reduced by its own pivot: pivot 6
    is zero only because C_3 = 0, so with C_3 replaced by t it would not be."""
    H = random_instance(12, seed, "diagonally-dominant")
    H = H.replace_band("C", [0 if k == 2 else c for k, c in enumerate(H.band("C"))])
    alpha6 = factorize(H).alpha[6]
    return H.replace_band("d", [v - alpha6 if k == 5 else v for k, v in enumerate(H.band("d"))])


class TestZeroCColumns:
    """A column with C_j = 0 is one more right-hand side of the elimination
    of H, so zero C entries cost no further elimination."""

    @pytest.mark.parametrize("H", [identity_matrix(64), pentadiagonal(32, 1)],
                             ids=["identity", "pentadiagonal"])
    def test_one_sweep(self, H, monkeypatch):
        sweeps = count_calls(monkeypatch, residues, "_eliminate")
        factorizations = count_calls(monkeypatch, factor, "factorize")
        res = invert(H)
        assert len(sweeps) == 1 and factorizations == []
        assert res.c_substitutions == tuple(range(1, H.n - 4))
        assert res.pivot_overrides == ()
        assert res.S == dense_inverse(to_dense(H))

    def test_one_block_substitution(self, monkeypatch):
        H = random_instance(64, 1, "diagonally-dominant")
        with eliminations() as calls:
            res = invert(H)
        assert len(res.c_substitutions) == 3 and len(calls) == 1
        ((_, rhs, _, _, _, Y),) = calls
        assert rhs.ints.shape == (64, 8) and Y.shape[1] == 8

    @pytest.mark.parametrize("H", [
        random_instance(40, 2, "diagonally-dominant"),
        zero_rows(random_instance(24, 0, "zero-C"), (5, 9)),
    ], ids=["one-point", "three-points"])
    def test_block_lanes_are_the_column_lanes(self, H):
        # one adjugate of the block of unit vectors gives the ints that one
        # adjugate per unit vector gives
        zero_c = inverse._zero_c(H)
        assert len(zero_c) >= 2
        indices = (*range(H.n, H.n - inverse.SEED_COLUMN_COUNT, -1), *zero_c)
        scales, bands, _ = row_scaled(H)
        units = [[int(i == j) for i in range(1, H.n + 1)] for j in indices]
        delta, overrides, values = residues.adjugate(scales, bands, units)
        alone = [residues.adjugate(scales, bands, [unit]) for unit in units]
        assert all(found[:2] == (delta, overrides) for found in alone)
        assert values == [v for _, _, column in alone for v in column]
        given = inverse.seed_columns(H, zero_c)[2]
        assert [given[j] for j in indices] == [column for _, _, column in alone]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_override_list_for_det_solve_and_inv(self, seed, tmp_path, capsys):
        H = override_only_through_zero_c(seed)
        assert factorize(H).overrides == (6,)
        dense = to_dense(H)
        expected = dense_inverse(dense)

        res = invert(H)
        assert res.pivot_overrides == (6,) and 3 in res.c_substitutions
        assert res.S == expected
        det = determinant(H)
        assert det.pivot_overrides == 1 and det.value == dense_det(dense)
        r = [Fr(i) for i in range(1, 13)]
        (report,) = solve_many(H, [r])
        assert report.substitutions_fired == {"pivot_overrides": 1}
        assert H.mat_vec(list(report.x)) == r

        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(H))
        assert main(["inv", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["pivot_overrides"] == [6]


def zero_c_at(H, js):
    """H with C_j set to zero for each j in ``js``."""
    return H.replace_band("C", [0 if k + 1 in js else c for k, c in enumerate(H.band("C"))])


def residue_rows(H):
    """The band rows of H' = diag(L) H over residue lanes and the shifts of
    its points, from a solve of one zero column: it adds nothing to the row
    norms, so K is that of det H."""
    with eliminations() as calls:
        residues.adjugate(*row_scaled(H, [[0] * H.n]))
    band, _, _, shifts, _, _ = calls[0]
    return band, shifts


class TestSubstitutionStart:
    """An elimination whose right-hand sides are zero before row j, taken
    from step j - 3 on (``start`` = j), gives the lanes of one that takes
    them from row 1, and ``solve`` starts at its first nonzero row."""

    @pytest.mark.parametrize("H, points", [
        (random_instance(20, 4, "diagonally-dominant"), 1),
        (zero_rows(random_instance(24, 0, "diagonally-dominant"), (5, 9)), 3),
    ], ids=["one-point", "three-points"])
    def test_residue_lanes(self, H, points):
        band, shifts = residue_rows(H)
        n, p = H.n, band.p
        assert len(p) == points * len(set(p.tolist())) and len(shifts) == points - 1
        rng = random.Random(n)
        # from the first window on, from the last window step, and in the
        # last eight rows
        for j in (1, 4, 5, n - 5, n - 4, n - 3, n - 2):
            ints = [0] * (j - 1) + [rng.choice((-3, 2, 7))]
            ints += [rng.randint(-50, 50) for _ in range(n - j)]
            r = column_rows([ints], p)
            det, x = residues._eliminate(band, r, j, shifts)
            ref_det, ref = residues._eliminate(band, r, 1, shifts)
            assert np.array_equal(det, ref_det) and np.array_equal(x, ref)

    @pytest.mark.parametrize("H", [
        random_instance(20, 4, "diagonally-dominant"),
        zero_rows(random_instance(24, 0, "diagonally-dominant"), (5, 9)),
    ], ids=["one-point", "three-points"])
    def test_solve_starts_at_the_first_nonzero_row(self, H):
        # the lane reads its start from r: the first row where some column
        # is nonzero, at most n - 2; x is the oracle's in every case
        n = H.n
        S = dense_inverse(to_dense(H))
        rng = random.Random(n)

        def from_row(j):
            return [Fr(0)] * (j - 1) + [Fr(rng.randint(1, 9), rng.randint(1, 4))
                                        for _ in range(n - j + 1)]

        cases = [(j, [from_row(j)]) for j in (1, 2, 4, 9, n - 3, n - 2)]
        cases += [
            (4, [from_row(7), from_row(4)]),
            (n - 2, [[0] * (n - 2) + [Fr(3, 2), -5]]),
            (n - 2, [[0] * (n - 1) + [1]]),
            (n - 2, [[0] * n]),
        ]
        for start, columns in cases:
            with eliminations() as calls:
                _, _, x = residues.solve(H, columns)
            assert [call[2] for call in calls] == [start]
            assert x == [sum(u * v for u, v in zip(row, r)) for r in columns for row in S.rows]
        assert x == [0] * n

    @pytest.mark.parametrize("H", [
        zero_c_at(random_instance(20, 4, "diagonally-dominant"), (1,)),
        zero_c_at(random_instance(20, 4, "diagonally-dominant"), (15,)),
        zero_c_at(random_instance(24, 5, "diagonally-dominant"), (1, 2, 3, 7, 12, 13, 19)),
        zero_rows(zero_c_at(random_instance(20, 6, "diagonally-dominant"), (1, 15)), (1,)),
        zero_rows(zero_c_at(random_instance(20, 6, "diagonally-dominant"), (4, 9)), (1, 7)),
        *(collision_matrix(seed) for seed in range(8)),
    ], ids=["C1", "C_n-5", "many", "pivot-1-C1", "pivots-1-7", *(f"collision-{s}" for s in range(8))])
    def test_block_equals_per_column(self, H):
        res = invert(H)
        assert res.S == dense_inverse(to_dense(H))
        assert res.c_substitutions == inverse._zero_c(H)
        assert res.pivot_overrides == factorize(H).overrides


def test_unknown_backend_rejected():
    H = random_instance(10, 1, "diagonally-dominant")
    with pytest.raises(ValueError, match="unknown backend"):
        determinant(H, "single")
    with pytest.raises(ValueError, match="unknown backend"):
        solve_many(H, [[1] * 10], backend="single")
