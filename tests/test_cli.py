import json
import time
from fractions import Fraction as Fr

import pytest

from heptacyclic import kernels
from heptacyclic.cli import main
from heptacyclic.factor import factorize
from heptacyclic.matrix import CyclicHeptaMatrix, dense_from_csv, matrix_to_json, matrix_from_json

from conftest import fixture_path
from test_factor import duplicated_row_matrix


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def example_path():
    return str(fixture_path("example10.json"))


@pytest.fixture()
def rhs_path():
    return str(fixture_path("example10_rhs.json"))


@pytest.fixture()
def singular_path(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(matrix_to_json(duplicated_row_matrix()))
    return str(path)


class TestDet:
    def test_example(self, example_path, capsys):
        code, out, _ = run(["det", "--input", example_path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"det": "-32715", "singular": False, "pivot_overrides": 0}

    def test_singular_exits_2(self, singular_path, capsys):
        code, out, _ = run(["det", "--input", singular_path], capsys)
        assert code == 2
        assert json.loads(out)["singular"] is True

    def test_float_backend(self, example_path, capsys):
        code, out, _ = run(["det", "--input", example_path, "--backend", "float"], capsys)
        assert code == 0
        assert float(json.loads(out)["det"]) == pytest.approx(-32715.0, rel=1e-9)

    def test_csv_format(self, example_path, capsys):
        code, out, _ = run(["det", "--input", example_path, "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines() == ["det,singular,pivot_overrides", "-32715,false,0"]


class TestInv:
    def test_example_matches_bundled_inverse(self, example_path, capsys, example10_inverse):
        code, out, _ = run(["inv", "--input", example_path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 10
        assert payload["c_substitutions"] == [4]
        assert payload["pivot_overrides"] == []
        got = [[Fr(v) for v in row] for row in payload["S"]]
        assert got == example10_inverse

    def test_byte_stable(self, example_path, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["inv", "--input", example_path, "--out", str(out1)]) == 0
        assert main(["inv", "--input", example_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_seeds_byte_identical(self, example_path, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        assert main(["inv", "--input", example_path, "--out", str(serial)]) == 0
        assert main(["inv", "--input", example_path, "--parallel-seeds",
                     "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_csv_output(self, example_path, capsys, example10_inverse):
        code, out, _ = run(["inv", "--input", example_path, "--format", "csv"], capsys)
        assert code == 0
        assert dense_from_csv(out).rows == example10_inverse

    def test_singular_exits_2(self, singular_path, capsys):
        code, _, err = run(["inv", "--input", singular_path], capsys)
        assert code == 2
        assert "singular" in err

    def test_float_backend(self, example_path, capsys):
        code, out, _ = run(["inv", "--input", example_path, "--backend", "float"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert float(payload["S"][9][9]) == pytest.approx(-1643 / 32715, rel=1e-9)


class TestSolve:
    def test_example(self, example_path, rhs_path, capsys):
        code, out, _ = run(["solve", "--input", example_path, "--rhs", rhs_path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["x"] == [str(i) for i in range(1, 11)]
        assert payload["method"] == "via-lu"
        assert payload["backend"] == "exact"
        assert payload["exact_residual"] is True
        assert payload["det"] == "-32715"

    def test_csv_format(self, example_path, rhs_path, capsys):
        code, out, _ = run(["solve", "--input", example_path, "--rhs", rhs_path,
                            "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines() == [str(i) for i in range(1, 11)]

    def test_multi_column_rhs(self, example_path, tmp_path, capsys):
        rhs = tmp_path / "rhs.csv"
        rhs.write_text("\n".join(f"{v},{2 * v}" for v in
                                 (2, 15, 33, 0, 43, -24, 47, 70, 78, 94)) + "\n")
        code, out, _ = run(["solve", "--input", example_path, "--rhs", str(rhs)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["x"][0] == [str(i) for i in range(1, 11)]
        assert payload["x"][1] == [str(2 * i) for i in range(1, 11)]

    def test_float_backend(self, example_path, rhs_path, capsys):
        code, out, _ = run(["solve", "--input", example_path, "--rhs", rhs_path,
                            "--backend", "float"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_residual"] is False
        values = [float(v) for v in payload["x"]]
        assert values == pytest.approx(list(range(1, 11)), rel=1e-9)

    def test_singular_exits_2(self, singular_path, rhs_path, capsys):
        code, _, err = run(["solve", "--input", singular_path, "--rhs", rhs_path], capsys)
        assert code == 2

    def test_rhs_length_mismatch_exits_3(self, example_path, tmp_path, capsys):
        rhs = tmp_path / "short.json"
        rhs.write_text('["1", "2"]')
        code, _, err = run(["solve", "--input", example_path, "--rhs", str(rhs)], capsys)
        assert code == 3
        assert "length" in err


class TestGen:
    def test_deterministic_and_loadable(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "--n", "12", "--seed", "9", "--profile", "zero-C"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        H = matrix_from_json(a.read_text())
        assert H.n == 12

    def test_bad_order_exits_3(self, capsys):
        code, _, err = run(["gen", "--n", "7", "--seed", "0"], capsys)
        assert code == 3
        assert "order too small" in err


class TestBench:
    def test_rows_emitted(self, capsys):
        code, out, _ = run(["bench", "--n", "32", "--seed", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,command,wall_time_s,field_ops"
        commands = [line.split(",")[1] for line in lines[1:]]
        assert "det/exact" in commands
        # the float lane has one implementation: one inverse and one solve row
        assert sorted(c for c in commands if "float" in c) == ["inv/float", "solve/float"]
        det_row = next(line for line in lines[1:] if line.split(",")[1] == "det/exact")
        assert int(det_row.split(",")[3]) > 0


class TestOracleCheck:
    def test_example_has_zero_diffs(self, example_path, capsys):
        code, out, _ = run(["oracle-check", "--input", example_path], capsys)
        assert code == 0
        assert json.loads(out) == {"diff_count": 0, "positions": []}


class TestUsageErrors:
    """argparse's own exit code, 2, is the code for a singular matrix."""

    @pytest.mark.parametrize("command", ["det", "inv", "solve"])
    @pytest.mark.parametrize("bad", [["--no-such-flag"], ["--tol", "abc"]])
    def test_usage_error_exits_3(self, command, bad, example_path, rhs_path, capsys):
        argv = [command, "--input", example_path, *bad]
        if command == "solve":
            argv += ["--rhs", rhs_path]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "usage: heptacyclic" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["det", "--help"])
        assert exc.value.code == 0
        assert "usage: heptacyclic det" in capsys.readouterr().out


class TestSingularWithOverrides:
    """Singular matrices whose sweep overrides pivots are refused with exit 2
    and report the symbolic sweep's override count."""

    @staticmethod
    def zero_d1(H):
        bands = {k: list(v) for k, v in H.bands().items()}
        bands["d"][0] = 0
        return CyclicHeptaMatrix(H.n, **bands)

    @pytest.mark.parametrize("first_zero_d", [False, True])
    def test_refused_with_override_count(self, first_zero_d, tmp_path, rhs_path, capsys):
        H = duplicated_row_matrix()
        if first_zero_d:
            H = self.zero_d1(H)
        overrides = factorize(H).overrides
        assert overrides == ((1, 6) if first_zero_d else (6,))
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(H))
        out = tmp_path / "det.json"
        assert main(["det", "--input", str(path), "--out", str(out)]) == 2
        assert json.loads(out.read_text()) == {
            "det": "0", "singular": True, "pivot_overrides": len(overrides)}
        for argv in (["inv", "--input", str(path)],
                     ["solve", "--input", str(path), "--rhs", rhs_path]):
            code, out_text, err = run(argv, capsys)
            assert (code, out_text) == (2, "")
            assert "singular matrix" in err


class TestInputErrors:
    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(["det", "--input", "/nonexistent/m.json"], capsys)
        assert code == 3
        assert "cannot read" in err

    def test_invalid_matrix_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3}')
        code, _, err = run(["det", "--input", str(bad)], capsys)
        assert code == 3

    def test_float_near_singular_exits_2(self, singular_path, capsys):
        code, _, err = run(["det", "--input", singular_path, "--backend", "float"], capsys)
        assert code == 2
        assert "use exact backend" in err


def _example_bands():
    return json.loads(fixture_path("example10.json").read_text())


def _write_bands(tmp_path, name, bands):
    path = tmp_path / name
    path.write_text(json.dumps(bands))
    return str(path)


def _float_argv(command, matrix, rhs):
    argv = [command, "--input", matrix, "--backend", "float"]
    return argv + ["--rhs", rhs] if command == "solve" else argv


class TestLargeExponents:
    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("band, k, text", [("A", 4, "1e999999999"), ("D", 0, "0e999999999")],
                             ids=["free", "wrap"])
    def test_refused_quickly(self, backend, band, k, text, tmp_path, capsys):
        # Fraction would build 10**999999999 before the value is checked
        bands = _example_bands()
        bands[band][k] = text
        matrix = _write_bands(tmp_path, "m.json", bands)
        start = time.perf_counter()
        code, out, err = run(["det", "--input", matrix, "--backend", backend], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert f"band {band!r} entry {k + 1}" in err and "exponent beyond 100000" in err


class TestFloatEdgeInputs:
    @pytest.mark.parametrize("command", ["det", "inv", "solve"])
    def test_entry_beyond_float_range_exits_3(self, command, tmp_path, rhs_path, capsys):
        bands = _example_bands()
        bands["A"][4] = "1e400"
        matrix = _write_bands(tmp_path, "big.json", bands)
        code, out, err = run(_float_argv(command, matrix, rhs_path), capsys)
        assert code == 3
        assert out == ""
        assert "band A entry 5" in err and "exact backend" in err

    @pytest.mark.parametrize("name, text, where", [
        ("r.json", json.dumps(["1"] * 6 + ["1e400"] + ["1"] * 3), "rhs entry 7"),
        ("r.csv", "".join(f"1,{'1e400' if k == 3 else 1}\n" for k in range(10)),
         "rhs column 2 entry 4"),
    ])
    def test_rhs_beyond_float_range_exits_3(self, name, text, where, tmp_path, example_path, capsys):
        rhs = tmp_path / name
        rhs.write_text(text)
        code, out, err = run(_float_argv("solve", example_path, str(rhs)), capsys)
        assert code == 3
        assert out == ""
        assert where in err and "exact backend" in err

    @pytest.mark.parametrize("tol", [None, "0", "-1"])
    @pytest.mark.parametrize("command", ["det", "inv", "solve"])
    def test_overflowing_pivots_refused(self, command, tol, tmp_path, rhs_path, capsys):
        # products of entries near 1e200 overflow, so pivots turn into NaN
        bands = {key: value if key == "n" else [str(Fr(v) * 10**200) for v in value]
                 for key, value in _example_bands().items()}
        argv = _float_argv(command, _write_bands(tmp_path, "scaled.json", bands), rhs_path)
        if tol is not None:
            argv += ["--tol", tol]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "use exact backend" in err

    @pytest.mark.parametrize("tol", ["0", "-1"])
    @pytest.mark.parametrize("command", ["det", "inv", "solve"])
    def test_zero_pivot_refused_without_tolerance(self, command, tol, tmp_path, rhs_path, capsys):
        bands = _example_bands()
        bands["d"][0] = "0"  # the first pivot is d_1
        argv = _float_argv(command, _write_bands(tmp_path, "d1.json", bands), rhs_path)
        code, out, err = run(argv + ["--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert "pivot at 1" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["det", "inv", "solve"])
    def test_non_finite_tolerance_exits_3(self, command, tol, example_path, rhs_path, capsys):
        code, out, err = run(_float_argv(command, example_path, rhs_path) + ["--tol", tol], capsys)
        assert code == 3
        assert out == ""
        assert f"tolerance must be finite, got {tol}" in err


class TestFloatFactorSweeps:
    @pytest.mark.parametrize("command, columns", [
        ("det", 0), ("inv", 0), ("solve", 1), ("solve", 4),
    ])
    def test_one_sweep_per_call(self, command, columns, tmp_path, example_path, monkeypatch, capsys):
        calls = []
        factor = kernels.ACTIVE_IMPLS["factor"]
        assert factor is kernels.sweep  # the exact lane's sweep

        def counting(*args):
            calls.append(1)
            return factor(*args)

        monkeypatch.setitem(kernels.ACTIVE_IMPLS, "factor", counting)
        rhs = tmp_path / "r.csv"
        rhs.write_text("".join(",".join(str(k + c) for c in range(columns)) + "\n" for k in range(10)))
        code, _, _ = run(_float_argv(command, example_path, str(rhs)), capsys)
        assert code == 0
        assert len(calls) == 1
