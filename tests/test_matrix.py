import csv
import io
import re
from decimal import Decimal
from fractions import Fraction as Fr

import numpy as np
import pytest

from heptacyclic.bench import CountingScalar, OpCounter
from heptacyclic.matrix import (
    BAND_NAMES,
    PROFILES,
    _to_scalar,
    CyclicHeptaMatrix,
    DenseMatrix,
    dense_from_csv,
    dense_to_csv,
    from_dense,
    matrix_from_json,
    matrix_to_json,
    random_instance,
    to_dense,
)
from heptacyclic.oracle import dense_det
from heptacyclic.scalars import T, format_scalar
from heptacyclic.solve import solve_many


def identity_bands(n):
    zero = [0] * n
    return dict(D=zero, B=zero, b=zero, d=[1] * n, a=zero, A=zero, C=zero)


def test_example_matrix_accessors(example10):
    H = example10
    assert H.get(1, 10) == -1   # b_1 corner
    assert H.get(1, 9) == 2     # B_1 corner
    assert H.get(9, 1) == 3     # A_9 corner
    assert H.get(10, 2) == 4    # A_10 corner
    assert H.get(1, 8) == 0     # D_1 wrap position is forced zero


def test_identity_bands_build(example10):
    H = CyclicHeptaMatrix(10, **identity_bands(10))
    assert to_dense(H) == DenseMatrix.identity(10)


def test_order_too_small():
    with pytest.raises(ValueError, match="order too small"):
        CyclicHeptaMatrix(7, **identity_bands(7))


def test_band_wrap_violations():
    bands = identity_bands(10)
    bands["D"] = [1] + [0] * 9
    with pytest.raises(ValueError, match="band wrap violation: D_1"):
        CyclicHeptaMatrix(10, **bands)
    bands = identity_bands(10)
    bands["C"] = [0] * 8 + [3, 0]
    with pytest.raises(ValueError, match="band wrap violation: C_9"):
        CyclicHeptaMatrix(10, **bands)


def test_band_length_checked():
    bands = identity_bands(10)
    bands["a"] = [0] * 9
    with pytest.raises(ValueError, match="band 'a' has length 9"):
        CyclicHeptaMatrix(10, **bands)


def test_matrix_is_immutable(example10):
    with pytest.raises(AttributeError):
        example10.n = 12


def test_index_out_of_range(example10):
    with pytest.raises(IndexError):
        example10.get(0, 1)
    with pytest.raises(IndexError):
        example10.get(1, 11)


def test_band_offset_support():
    # any nonzero entry sits on one of the seven wrapped offsets
    H = random_instance(11, 4, "general")
    n = H.n
    allowed = {0, 1, 2, 3, n - 1, n - 2, n - 3}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if H.get(i, j) != 0:
                assert (j - i) % n in allowed


def test_dense_round_trips(example10):
    at_eight = [random_instance(8, 0, profile) for profile in PROFILES]
    for H in (example10, *at_eight, random_instance(13, 7)):
        assert from_dense(to_dense(H)) == H
    M = to_dense(example10)
    assert to_dense(from_dense(M)) == M


def test_from_dense_pattern_violation():
    M = DenseMatrix.identity(10)
    M.rows[0][4] = Fr(1)
    with pytest.raises(ValueError, match=r"pattern violation at \(1, 5\)"):
        from_dense(M)


def test_from_dense_rejects_small():
    with pytest.raises(ValueError, match="order too small"):
        from_dense(DenseMatrix.identity(7))


class TestRandomInstance:
    def test_reproducible(self):
        for profile in ("general", "diagonally-dominant", "zero-pivot-prone", "zero-C"):
            assert random_instance(12, 5, profile) == random_instance(12, 5, profile)

    def test_entries_bounded(self):
        H = random_instance(15, 2)
        for name in BAND_NAMES:
            assert all(-9 <= v <= 9 for v in H.band(name))

    def test_zero_pivot_prone_forces_first_pivot(self):
        H = random_instance(8, 11, "zero-pivot-prone")
        assert H.band("d")[0] == 0

    def test_zero_C_zeroes_an_early_entry(self):
        H = random_instance(10, 11, "zero-C")
        assert any(H.band("C")[i] == 0 for i in range(10 - 5))

    def test_diagonally_dominant_rows(self):
        H = random_instance(12, 3, "diagonally-dominant")
        for i in range(12):
            others = sum(abs(H.band(k)[i]) for k in BAND_NAMES if k != "d")
            assert abs(H.band("d")[i]) > others

    def test_diagonally_dominant_nonsingular(self):
        # dominance guarantees a nonzero determinant; confirmed by the oracle
        H = random_instance(12, 9, "diagonally-dominant")
        assert dense_det(to_dense(H)) != 0

    def test_rejects_small_order(self):
        with pytest.raises(ValueError, match="order too small"):
            random_instance(7, 0)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            random_instance(10, 0, "sparse")


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("n", [8, 9, 10, 33])
def test_mat_vec_matches_dense(example10, n, profile):
    # at n = 8 the offset 4 = -4 lies between the wrapped offsets and holds no band
    for H in (example10, random_instance(n, 2, profile)):
        x = [Fr(i, 3) - Fr(1, i + 1) for i in range(1, H.n + 1)]
        dense = to_dense(H)
        expected = [sum(dense.rows[i][j] * x[j] for j in range(H.n)) for i in range(H.n)]
        assert H.mat_vec(x) == expected


def test_json_round_trip_and_stability(example10):
    text = matrix_to_json(example10)
    again = matrix_from_json(text)
    assert again == example10
    assert matrix_to_json(again) == text


class TestJsonErrors:
    def test_not_json(self):
        with pytest.raises(ValueError, match="invalid matrix file"):
            matrix_from_json("not json")

    def test_missing_band(self):
        eight = '["0","0","0","0","0","0","0","0"]'
        bands = ", ".join(f'"{k}": {eight}' for k in ("D", "B", "b", "d", "a", "A"))
        with pytest.raises(ValueError, match="missing band 'C'"):
            matrix_from_json('{"n": 8, %s}' % bands)

    def test_wrong_length(self):
        bands = ", ".join(f'"{k}": ["0","0"]' for k in BAND_NAMES)
        with pytest.raises(ValueError, match="length-8 array"):
            matrix_from_json('{"n": 8, %s}' % bands)

    def test_bad_scalar_names_entry(self):
        payload = matrix_to_json(random_instance(8, 1))
        broken = payload.replace('"n": 8', '"n": 8').replace(
            payload.splitlines()[2].strip(), '"x",', 1)
        with pytest.raises(ValueError, match="entry 1"):
            matrix_from_json(broken)


def test_dense_csv_round_trip(example10):
    M = to_dense(example10)
    text = dense_to_csv(M)
    again = dense_from_csv(text)
    assert again == M
    assert dense_to_csv(again) == text


def test_dense_csv_as_csv_writer():
    # scalar text never needs quoting, so a plain join gives csv.writer's bytes
    M = DenseMatrix([[Fr(-3, 7), 10**50, 0.1], [float("inf"), -0.0, Fr(0)], [1e300, Fr(5, -2), -1]])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in M.rows:
        writer.writerow([format_scalar(v) for v in row])
    assert dense_to_csv(M) == buf.getvalue()
    assert dense_to_csv(DenseMatrix([])) == ""


def test_dense_csv_bad_cell():
    with pytest.raises(ValueError, match="row 1"):
        dense_from_csv("1,banana\n0,1\n")


def test_replace_band_revalidates(example10):
    C = list(example10.band("C"))
    C[-1] = Fr(5)  # C_n must stay zero
    with pytest.raises(ValueError, match="band wrap violation"):
        example10.replace_band("C", C)


class TestExactConversion:
    """Every real scalar type enters the exact lane as its exact Fraction."""

    @pytest.mark.parametrize("value, expected", [
        (np.int64(-7), Fr(-7)),
        (np.uint8(255), Fr(255)),
        (np.float32(0.5), Fr(1, 2)),
        (np.float32(0.1), Fr(13421773, 134217728)),
        (np.float64(0.1), Fr(0.1)),
        (Decimal("0.1"), Fr(1, 10)),
        (Decimal("-2.50"), Fr(-5, 2)),
        (True, Fr(1)),
    ], ids=["int64", "uint8", "float32-half", "float32-tenth", "float64-tenth", "decimal-tenth",
            "decimal-trailing-zero", "bool"])
    def test_converted_exactly(self, value, expected):
        converted = _to_scalar(value)
        assert type(converted) is Fr and converted == expected
        assert type(converted.numerator) is int and type(converted.denominator) is int

    @pytest.mark.parametrize("value", [np.float64("inf"), np.float32("-inf"), Decimal("inf"),
                                       np.float64("nan"), Decimal("nan"), float("nan")],
                             ids=["float64-inf", "float32-minus-inf", "decimal-inf",
                                  "float64-nan", "decimal-nan", "float-nan"])
    def test_inf_and_nan_rejected(self, value):
        with pytest.raises(ValueError):
            _to_scalar(value)

    @pytest.mark.parametrize("value, message", [
        (float("nan"), "cannot convert NaN to integer ratio"),
        (float("inf"), "cannot convert inf to a rational"),
        ("1/0", "invalid scalar '1/0'"),
        ("1e400000", "invalid scalar '1e400000': exponent beyond 100000 in magnitude"),
    ], ids=["nan", "inf", "zero-denominator", "exponent-bound"])
    def test_values_without_exact_value_named_where_taken_in(self, value, message):
        # every way a band comes in names the band and the entry, as
        # matrix_from_json does
        expected = rf"^band 'd' entry 5: {re.escape(message)}$"
        H = random_instance(12, 1, "diagonally-dominant")
        d = list(H.band("d"))
        d[4] = value
        bands = {**H.bands(), "d": d}
        with pytest.raises(ValueError, match=expected):
            CyclicHeptaMatrix(12, *(bands[name] for name in BAND_NAMES))
        with pytest.raises(ValueError, match=expected):
            H.replace_band("d", d)
        dense = to_dense(H)
        dense.rows[4][4] = value  # H[5, 5] = d_5
        with pytest.raises(ValueError, match=expected):
            from_dense(dense)

    @pytest.mark.parametrize("value", [T + 1, CountingScalar(1.0, OpCounter()), None, 1 + 2j],
                             ids=["RatFun", "CountingScalar", "NoneType", "complex"])
    def test_other_scalars_refused_when_taken_in(self, value):
        # every way an entry comes in names its type, before any op runs
        message = rf"real number or a scalar text, not {type(value).__name__}$"
        H = random_instance(12, 3, "diagonally-dominant")
        a = list(H.band("a"))
        a[4] = value
        bands = {**H.bands(), "a": a}
        with pytest.raises(TypeError, match=message):
            CyclicHeptaMatrix(12, *(bands[name] for name in BAND_NAMES))
        with pytest.raises(TypeError, match=message):
            H.replace_band("a", a)
        dense = to_dense(H)
        dense.rows[4][5] = value  # H[5, 6] = a_5
        with pytest.raises(TypeError, match=message):
            from_dense(dense)
        with pytest.raises(TypeError, match=message):
            solve_many(H, [[1] * 11 + [value]])

    def test_numpy_int_bands_and_rhs_take_the_residue_lane(self):
        from heptacyclic import factor, solve
        from heptacyclic.inverse import invert

        from test_inverse import on_the_lane

        H = random_instance(12, 3, "diagonally-dominant")
        Hn = CyclicHeptaMatrix(12, *(np.array([int(v) for v in H.band(name)], dtype=np.int64)
                                     for name in BAND_NAMES))
        assert Hn.bands() == H.bands()
        assert all(type(v) is Fr for band in Hn.bands().values() for v in band)
        r, rn = list(range(12)), list(np.arange(12))
        with on_the_lane() as sweeps:
            det = factor.determinant(Hn).value
            (report,) = solve.solve_many(Hn, [rn])
            inverse = invert(Hn).S
        assert len(sweeps) == 3
        assert type(det) is Fr and det == factor.determinant(H).value == 191020667295097926
        assert all(type(v) is Fr for v in report.x)
        assert report.x == solve.solve_many(H, [r])[0].x
        assert inverse == invert(H).S
