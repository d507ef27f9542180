from fractions import Fraction as Fr

import pytest

from heptacyclic.errors import SingularMatrixError
from heptacyclic.factor import factorize
from heptacyclic.inverse import (
    _back_column,
    _padded_bands,
    back_columns,
    invert,
    seed_columns,
)
from heptacyclic.matrix import CyclicHeptaMatrix, random_instance, to_dense
from heptacyclic.oracle import compare, dense_det, dense_inverse
from heptacyclic.scalars import eval_at_zero

from test_factor import duplicated_row_matrix, identity_matrix

ALL_PROFILES = ("general", "diagonally-dominant", "zero-pivot-prone", "zero-C")


def oracle_inverse_or_none(H):
    dense = to_dense(H)
    if dense_det(dense) == 0:
        return None
    return dense_inverse(dense)


class TestSeedColumns:
    def test_identity_seeds_are_basis_columns(self):
        H = identity_matrix()
        fd = factorize(H)
        seeds = seed_columns(fd, H)
        for offset, col in enumerate(seeds):
            j = 10 - offset
            assert [eval_at_zero(v) for v in col[1:]] == [
                1 if i == j else 0 for i in range(1, 11)
            ]

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
        fd = factorize(H)
        seeds = seed_columns(fd, H)
        for offset, col in enumerate(seeds):
            j = 8 - offset
            values = [eval_at_zero(v) for v in col[1:]]
            assert H.mat_vec(values) == [1 if i == j else 0 for i in range(1, 9)]

    def test_parallel_equals_sequential(self):
        H = random_instance(12, 13, "zero-C")
        from heptacyclic.inverse import _substitute_zero_c

        Hp, _ = _substitute_zero_c(H)
        fd = factorize(Hp)
        assert seed_columns(fd, Hp, parallel=True) == seed_columns(fd, Hp, parallel=False)


class TestBackColumns:
    def test_example_first_column(self, example10):
        res = invert(example10)
        col1 = [res.S.rows[i][0] for i in range(10)]
        assert col1 == [
            Fr(-12664, 32715), Fr(2686, 32715), Fr(5417, 10905), Fr(293, 10905),
            Fr(6344, 32715), Fr(938, 3635), Fr(1178, 10905), Fr(-6356, 10905),
            Fr(16382, 32715), Fr(-808, 32715),
        ]

    def test_column_locality(self):
        # column j reads only columns j+1..j+6 (and column j+3 of H):
        # corrupting lower columns must not change a recomputation
        H = random_instance(14, 21, "general")
        if oracle_inverse_or_none(H) is None:
            pytest.skip("singular draw")
        fd = factorize(H)
        seeds = seed_columns(fd, H)
        bands = _padded_bands(H)
        cols = {14 - off: col for off, col in enumerate(seeds)}
        for j in range(14 - 5, 0, -1):
            cols[j] = _back_column(bands, cols, j, 14)
        j = 5
        corrupted = dict(cols)
        for m in range(1, j):
            corrupted[m] = [None] + [Fr(999)] * 14
        assert _back_column(bands, corrupted, j, 14) == cols[j]

    def test_zero_divisor_is_internal_error(self):
        from heptacyclic.errors import InternalContractError

        H = random_instance(10, 11, "zero-C")
        fd = factorize(H)
        seeds = seed_columns(fd, H)
        with pytest.raises(InternalContractError, match="zero divisor"):
            back_columns(H, seeds)  # substitution step skipped on purpose


class TestInvert:
    def test_identity(self):
        res = invert(identity_matrix())
        assert res.S == to_dense(identity_matrix())
        # every C_i with i <= n-5 is zero here, so all five were substituted
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

    def test_parallel_seeds_identical_result(self):
        for seed in (0, 1, 2):
            H = random_instance(10, seed, "zero-C")
            if oracle_inverse_or_none(H) is None:
                continue
            a = invert(H, parallel_seeds=False)
            b = invert(H, parallel_seeds=True)
            assert a.S == b.S and a.c_substitutions == b.c_substitutions


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
                assert res.back_path == "bordered-solve"
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
