import math
from array import array
from fractions import Fraction as Fr

import numpy as np
import pytest

from heptacyclic import residues
from heptacyclic.errors import SingularMatrixError
from heptacyclic.matrix import float_vector, random_instance, to_dense
from heptacyclic.oracle import dense_det, dense_inverse
from heptacyclic.solve import is_solution, solve_many, vector_from_text

from test_factor import duplicated_row_matrix, identity_matrix


def test_example_solution_via_lu(example10, example10_rhs):
    (report,) = solve_many(example10, [example10_rhs])
    assert list(report.x) == [Fr(i) for i in range(1, 11)]
    assert report.method == "via-lu" and report.backend == "exact"


def test_identity_returns_rhs():
    H = identity_matrix()
    r = [Fr(k, 7) for k in range(10)]
    assert list(solve_many(H, [r])[0].x) == r


def test_exact_residual_random():
    H = random_instance(12, 2, "general")
    assert dense_det(to_dense(H)) != 0
    r = [Fr(3 * k - 5, 2) for k in range(12)]
    assert H.mat_vec(list(solve_many(H, [r])[0].x)) == r


@pytest.mark.parametrize("n", [8, 12])
def test_residual_check_over_integers(n):
    # the CLI's exact_residual: rational entries, so each row has its own scale
    H = random_instance(n, 2, "general")
    H = H.replace_band("a", [v / (k + 2) for k, v in enumerate(H.band("a"))])
    r = [Fr(3 * k - 5, k + 1) for k in range(n)]
    (report,) = solve_many(H, [r])
    x = list(report.x)
    assert is_solution(H, x, r)
    for k in range(n):
        for delta in (Fr(1), Fr(1, 10**40), -x[k]):
            perturbed = x[:k] + [x[k] + delta] + x[k + 1:]
            assert H.mat_vec(perturbed) != r
            assert not is_solution(H, perturbed, r)


def test_methods_agree_across_instances():
    agreements = 0
    for seed in range(200):
        n = 8 + (seed % 5)
        profile = ("general", "zero-pivot-prone", "zero-C", "diagonally-dominant")[seed % 4]
        H = random_instance(n, seed, profile)
        dense = to_dense(H)
        det = dense_det(dense)
        if det == 0:
            continue
        r = [Fr(k + 1) for k in range(n)]
        (report,) = solve_many(H, [r])
        S = dense_inverse(dense)
        assert list(report.x) == [sum(S.rows[i][j] * r[j] for j in range(n)) for i in range(n)]
        assert report.det == det
        agreements += 1
    assert agreements >= 150


def test_singular_matrix_rejected():
    H = duplicated_row_matrix()
    with pytest.raises(SingularMatrixError):
        solve_many(H, [[Fr(1)] * 10])


def test_rhs_length_checked():
    H = identity_matrix()
    with pytest.raises(ValueError, match="length"):
        solve_many(H, [[Fr(1)] * 9])


def test_solve_many_independent_columns():
    H = random_instance(10, 5, "diagonally-dominant")
    cols = [[Fr(1)] * 10, [Fr(k) for k in range(10)]]
    reports = solve_many(H, cols)
    assert len(reports) == 2
    for rep, col in zip(reports, cols):
        assert H.mat_vec(list(rep.x)) == col


def test_float_lane_relative_residual():
    # relative residual ||Hx - r||_inf / (||H||_inf ||x||_inf + ||r||_inf)
    for n, seed in ((64, 0), (256, 1), (512, 2)):
        H = random_instance(n, seed, "diagonally-dominant")
        r = [float((-1) ** k * (k % 13 + 1)) for k in range(n)]
        (report,) = solve_many(H, [r], backend="float")
        x = np.array(report.x)
        fb = H.float_bands()
        Hx = np.zeros(n)
        for off, name in ((-3, "D"), (-2, "B"), (-1, "b"), (0, "d"), (1, "a"), (2, "A"), (3, "C")):
            for i in range(1, n + 1):
                j = (i + off - 1) % n + 1
                Hx[i - 1] += fb[name][i] * x[j - 1]
        norm_H = max(sum(abs(fb[name][i]) for name in fb) for i in range(1, n + 1))
        rel = np.max(np.abs(Hx - np.array(r))) / (norm_H * np.max(np.abs(x)) + np.max(np.abs(r)))
        assert rel <= 1e-10


def test_float_matches_exact():
    H = random_instance(32, 7, "diagonally-dominant")
    r = [Fr(k - 16) for k in range(32)]
    (exact,) = solve_many(H, [r])
    (approx,) = solve_many(H, [[float(v) for v in r]], backend="float")
    for u, v in zip(exact.x, approx.x):
        assert v == pytest.approx(float(u), rel=1e-9, abs=1e-12)


class TestRhsFiles:
    def test_json_array(self):
        cols = vector_from_text('["1", "2/3", "-0.5"]')
        assert cols == [[Fr(1), Fr(2, 3), Fr(-1, 2)]]

    def test_csv_single_column(self):
        cols = vector_from_text("1\n2\n3\n")
        assert cols == [[Fr(1), Fr(2), Fr(3)]]

    def test_csv_multiple_columns(self):
        cols = vector_from_text("1,10\n2,20\n")
        assert cols == [[Fr(1), Fr(2)], [Fr(10), Fr(20)]]

    def test_bad_entry_is_named(self):
        with pytest.raises(ValueError, match="rhs entry 2"):
            vector_from_text('["1", "x"]')

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="inconsistent width"):
            vector_from_text("1,2\n3\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            vector_from_text("\n")


class TestExactRhsEntries:
    """The exact lane converts rhs entries as it converts band entries."""

    def test_float_rhs_is_its_exact_value(self, monkeypatch):
        lane = []
        solve = residues.solve

        def recording(H, columns):
            found = solve(H, columns)
            lane.append(found is not None)
            return found

        monkeypatch.setattr(residues, "solve", recording)
        H = random_instance(12, 3, "diagonally-dominant")
        floats = [0.5, -1.25, 3.0, 0.1, 7, 0.0, -0.0, 1e-3, 2.5, -8.0, 1e20, 0.375]
        (expected,) = solve_many(H, [[Fr(v) for v in floats]])
        assert lane == [True]
        (got,) = solve_many(H, [floats])
        assert lane == [True, True]
        assert got.x == expected.x and all(type(v) is Fr for v in got.x)
        texts = [str(Fr(v)) for v in floats]
        assert solve_many(H, [texts])[0].x == expected.x

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_refused(self, bad):
        H = random_instance(12, 3, "diagonally-dominant")
        r = [1.0] * 11 + [bad]
        with pytest.raises(ValueError):
            solve_many(H, [r])
        with pytest.raises(ValueError):
            H.replace_band("d", [bad, *H.band("d")[1:]])


class TestRhsEntryNamed:
    """Both lanes check the length and name a right-hand-side entry they
    cannot read by its label and 1-based index."""

    @pytest.mark.parametrize("bad, exact, float_", [
        (math.nan, "cannot convert NaN to integer ratio", None),
        (np.float64("inf"), f"cannot convert {np.float64('inf')!r} to a rational", None),
        ("1/0", "invalid scalar '1/0'", "invalid scalar '1/0'"),
    ], ids=["nan", "numpy-inf", "text-1/0"])
    def test_both_lanes_name_the_entry(self, bad, exact, float_):
        H = random_instance(12, 1, "diagonally-dominant")
        r = [1] * 11 + [bad]
        with pytest.raises(ValueError) as info:
            solve_many(H, [r])
        assert str(info.value) == f"rhs entry 12: {exact}"
        with pytest.raises(ValueError) as info:
            solve_many(H, [r], backend="float")
        assert str(info.value) == (f"rhs entry 12: {float_}" if float_ else
                                   "rhs entry 12 is not finite")

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_second_column_and_length(self, backend):
        H = random_instance(12, 1, "diagonally-dominant")
        with pytest.raises(ValueError, match="^rhs column 2 entry 3: invalid scalar 'x'$"):
            solve_many(H, [[1] * 12, [1, 2, "x"] + [0] * 9], backend=backend)
        with pytest.raises(ValueError, match=r"^right-hand side length 11 != order 12$"):
            solve_many(H, [[1] * 12, [1] * 11], backend=backend)


class TestFloatRhsEntries:
    """The float lane reads rhs entries as the exact lane does, then rounds
    each once: what the exact lane refuses, it refuses, naming the entry."""

    @pytest.mark.parametrize("bad, message", [
        ("nan", "rhs entry 12: invalid scalar 'nan'"),
        ("inf", "rhs entry 12: invalid scalar 'inf'"),
        ("1e400", "rhs entry 12 is beyond the float64 range; use the exact backend"),
        (math.nan, "rhs entry 12 is not finite"),
        (math.inf, "rhs entry 12 is not finite"),
        (np.float64("inf"), "rhs entry 12 is not finite"),
    ], ids=["text-nan", "text-inf", "text-1e400", "nan", "inf", "numpy-inf"])
    def test_non_finite_entry_refused(self, bad, message):
        H = random_instance(12, 1, "diagonally-dominant")
        r = [1.0] * 11 + [bad]
        with pytest.raises(ValueError) as info:
            solve_many(H, [r], backend="float")
        assert str(info.value) == message
        if bad != "1e400":  # the exact lane reads 10^400 as it is
            with pytest.raises(ValueError):
                solve_many(H, [r])

    def test_second_column_is_named(self):
        H = random_instance(12, 1, "diagonally-dominant")
        with pytest.raises(ValueError, match="^rhs column 2 entry 3 is not finite$"):
            solve_many(H, [[1.0] * 12, [1.0, 2.0, math.nan] + [0.0] * 9], backend="float")

    def test_text_and_fraction_are_rounded_once(self):
        H = random_instance(12, 1, "diagonally-dominant")
        texts = ["1/3", "-2/7", "0.1", "-1e-400", "12345678901234567890.5", "3"] * 2
        (expected,) = solve_many(H, [[float(Fr(t)) for t in texts]], backend="float")
        (got,) = solve_many(H, [texts], backend="float")
        assert got.x == expected.x
        (got,) = solve_many(H, [[Fr(t) for t in texts]], backend="float")
        assert got.x == expected.x

    def test_finite_entries_whose_sum_overflows(self):
        # the one-call path checks only its sum; the loop keeps every entry
        values = [1e308, 1e308, -0.0, 5e-324, Fr(1, 3)]
        got = float_vector(values, "rhs")
        assert got.tobytes() == array("d", [0.0, 1e308, 1e308, -0.0, 5e-324, 1 / 3]).tobytes()
