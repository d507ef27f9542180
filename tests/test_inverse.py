import json
from fractions import Fraction as Fr

import pytest

from heptacyclic import factor
from heptacyclic.cli import main
from heptacyclic.errors import SingularMatrixError, ZeroPivotError
from heptacyclic.factor import determinant, factorize
from heptacyclic.inverse import (
    _back_column,
    _padded_bands,
    back_columns,
    invert,
    seed_columns,
)
from heptacyclic.matrix import CyclicHeptaMatrix, matrix_to_json, random_instance, to_dense
from heptacyclic.oracle import compare, dense_det, dense_inverse
from heptacyclic.scalars import eval_at_zero
from heptacyclic.solve import solve_many

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
        # seed columns never divide by C, so zero C entries need no substitution
        H = random_instance(12, 13, "zero-C")
        fd = factorize(H)
        assert seed_columns(fd, H, parallel=True) == seed_columns(fd, H, parallel=False)


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
        cols = back_columns(fd, H, seeds)
        cols.update({10 - off: col for off, col in enumerate(seeds)})
        j = max(j for j in range(1, 6) if H.band("C")[j - 1] == 0)
        with pytest.raises(InternalContractError, match="zero divisor"):
            # back_columns takes this column by substitution instead
            _back_column(_padded_bands(H), cols, j, 10)


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
        # the plain sweep of H (s = 0) finds d_1 = 0 and puts (1, 1) into G;
        # pivot 2 of H(s) is d_2 - b_2 a_1 / s, zero at s = 1 only, so that
        # point is skipped and pivot 2 is not overridden
        H = random_instance(10, 3, "diagonally-dominant")
        bands = {k: list(v) for k, v in H.bands().items()}
        bands["C"][0] = 2
        bands["d"][0], bands["a"][0], bands["b"][1], bands["d"][1] = 0, 1, 1, 1
        H = CyclicHeptaMatrix(10, **bands)
        assert factorize(H).overrides == (1,)
        dense = to_dense(H)
        assert dense_det(dense) != 0

        skipped = []
        sweep = factor.factorize

        def recording(Hs, *args, **kwargs):
            try:
                return sweep(Hs, *args, **kwargs)
            except ZeroPivotError as exc:
                skipped.append((Hs.band("d")[0], exc.index))
                raise

        monkeypatch.setattr(factor, "factorize", recording)
        res = invert(H)
        assert skipped == [(0, 1), (1, 2)]
        assert res.pivot_overrides == (1,) and res.c_substitutions == ()
        assert compare(res.S, dense_inverse(dense)).equal
        assert determinant(H).value == dense_det(dense)
        r = [Fr(i) for i in range(1, 11)]
        (report,) = solve_many(H, [r])
        assert H.mat_vec(list(report.x)) == r
        assert report.det == dense_det(dense)


def pentadiagonal(n, seed):
    """A diagonally dominant matrix with C = D = 0."""
    H = random_instance(n, seed, "diagonally-dominant")
    return H.replace_band("C", [0] * n).replace_band("D", [0] * n)


def override_only_through_zero_c(seed):
    """Dominant n = 12 with C_3 = 0 and d_6 reduced by its own pivot: pivot 6
    is zero only because C_3 = 0, so with C_3 replaced by t it would not be."""
    H = random_instance(12, seed, "diagonally-dominant")
    H = H.replace_band("C", [0 if k == 2 else c for k, c in enumerate(H.band("C"))])
    alpha6 = factorize(H, symbolic=False).alpha[6]
    return H.replace_band("d", [v - alpha6 if k == 5 else v for k, v in enumerate(H.band("d"))])


class TestZeroCColumns:
    """A column with C_j = 0 is one substitution through the factors of H,
    so zero C entries cost no further sweep."""

    @pytest.mark.parametrize("H", [identity_matrix(64), pentadiagonal(32, 1)],
                             ids=["identity", "pentadiagonal"])
    def test_one_sweep(self, H, monkeypatch):
        calls = []
        sweep = factor.factorize

        def counting(*args, **kwargs):
            calls.append(1)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(factor, "factorize", counting)
        res = invert(H)
        assert len(calls) == 1
        assert res.c_substitutions == tuple(range(1, H.n - 4))
        assert res.pivot_overrides == ()
        assert res.S == dense_inverse(to_dense(H))

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


def test_unknown_backend_rejected():
    H = random_instance(10, 1, "diagonally-dominant")
    with pytest.raises(ValueError, match="unknown backend"):
        determinant(H, "single")
    with pytest.raises(ValueError, match="unknown backend"):
        solve_many(H, [[1] * 10], backend="single")
