import json
import os
import stat
import sys
import threading
import time
from fractions import Fraction as Fr

import pytest

from heptacyclic import cli, kernels, residues, scalars
from heptacyclic.cli import main
from heptacyclic.factor import factorize
from heptacyclic.inverse import invert
from heptacyclic.matrix import (
    PROFILES,
    CyclicHeptaMatrix,
    dense_from_csv,
    matrix_from_json,
    matrix_to_json,
    random_instance,
)
from heptacyclic.solve import solve_many

from conftest import fixture_path
from test_factor import duplicated_row_matrix, identity_matrix
from test_inverse import (
    block_triangular,
    collision_matrix,
    override_only_through_zero_c,
    rational_entries,
)


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

    @pytest.mark.parametrize("instance", ["example10", "rational-collision"])
    def test_json_bytes_as_json_dumps(self, instance, tmp_path, capsys):
        # the S strings are joined as they are; json.dumps lays them out the same
        if instance == "example10":
            H = matrix_from_json(fixture_path("example10.json").read_text())
        else:
            H = rational_entries(collision_matrix(0), 0)
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(H))
        res = invert(H)
        assert res.c_substitutions
        expected = json.dumps({
            "backend": "exact", "back_path": res.back_path, "n": H.n,
            "c_substitutions": list(res.c_substitutions),
            "pivot_overrides": list(res.pivot_overrides),
            "S": [[scalars.format_scalar(v) for v in row] for row in res.S.rows],
        }, sort_keys=True, indent=2) + "\n"
        code, out, err = run(["inv", "--input", str(path)], capsys)
        assert (code, err) == (0, "")
        assert out == expected

    @pytest.mark.parametrize("instance", ["example10", "negative-delta", "block-triangular",
                                          "rational", "identity"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_every_entry_as_format_scalar(self, instance, fmt, tmp_path, capsys):
        # negative entries, integers (denominator 1) and shared denominators
        if instance == "example10":
            H = matrix_from_json(fixture_path("example10.json").read_text())
        elif instance == "negative-delta":
            H = block_triangular(0, negative=True)
        elif instance == "block-triangular":
            H = block_triangular(1)
        elif instance == "rational":
            H = rational_entries(block_triangular(3), 3)
        else:
            H = identity_matrix()
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(H))
        expected = [[scalars.format_scalar(v) for v in row] for row in invert(H).S.rows]
        for extra in ([], ["--parallel-seeds"]):
            code, out, err = run(["inv", "--input", str(path), "--format", fmt, *extra], capsys)
            assert (code, err) == (0, "")
            if fmt == "json":
                assert json.loads(out)["S"] == expected
            else:
                assert out == "".join(",".join(row) + "\n" for row in expected)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_written_a_row_at_a_time(self, backend, fmt, tmp_path, monkeypatch):
        # no write holds more than one row of S, so the n^2 texts need not
        # be held at once; --out gets the same bytes
        class Writes:
            def __init__(self):
                self.pieces = []

            def write(self, text):
                self.pieces.append(text)

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

        n = 32
        path, out = tmp_path / "m.json", tmp_path / "S.out"
        path.write_text(matrix_to_json(random_instance(n, 1, "diagonally-dominant")))
        argv = ["inv", "--input", str(path), "--format", fmt, "--backend", backend]
        stdout = Writes()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        text = "".join(stdout.pieces)
        rows = json.loads(text)["S"] if fmt == "json" else text.splitlines()
        assert len(rows) == n
        assert max(piece.count("\n") for piece in stdout.pieces) <= (n + 1 if fmt == "json" else 1)
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == text

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

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("instance", ["example10", "rational-collision"])
    def test_json_bytes_as_json_dumps(self, instance, columns, tmp_path, capsys):
        # the x strings are joined as they are; json.dumps lays them out the
        # same, x nested a list per column when there are two
        if instance == "example10":
            H = matrix_from_json(fixture_path("example10.json").read_text())
        else:
            H = rational_entries(collision_matrix(0), 0)
        path, rhs = tmp_path / "m.json", tmp_path / "r.csv"
        path.write_text(matrix_to_json(H))
        cols = [[Fr(3 * i - 7 * k, 1 + (i + k) % 4) for i in range(H.n)] for k in range(columns)]
        rhs.write_text("".join(",".join(map(str, row)) + "\n" for row in zip(*cols)))
        reports = solve_many(H, cols)
        xs = [[scalars.format_scalar(v) for v in rep.x] for rep in reports]
        assert any("/" in text for text in xs[0])
        expected = json.dumps({
            "det": scalars.format_scalar(reports[0].det), "method": reports[0].method,
            "backend": "exact", "exact_residual": True,
            "x": xs[0] if columns == 1 else xs,
        }, sort_keys=True, indent=2) + "\n"
        code, out, err = run(["solve", "--input", str(path), "--rhs", str(rhs)], capsys)
        assert (code, err) == (0, "")
        assert out == expected
        out_path = tmp_path / "x.json"
        assert main(["solve", "--input", str(path), "--rhs", str(rhs),
                     "--out", str(out_path)]) == 0
        assert out_path.read_text() == expected

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
        assert "det/exact" in commands and "inv/exact" in commands
        # the float lane has one implementation: one inverse and one solve
        # row, and a row for its read of the matrix file
        assert sorted(c for c in commands if "float" in c) == ["inv/float", "read/float",
                                                               "solve/float"]
        det_row = next(line for line in lines[1:] if line.split(",")[1] == "det/exact")
        assert int(det_row.split(",")[3]) > 0


    @pytest.mark.parametrize("n,seed", [(12, 0), (16, 1)])
    def test_float_rows_refused_on_zero_pivots(self, capsys, n, seed):
        # d_1 = 0: the exact rows run through the substitution, the float
        # lane refuses the first pivot, and field ops are counted only
        # where no pivot is zero
        code, out, err = run(["bench", "--n", str(n), "--seed", str(seed),
                              "--profile", "zero-pivot-prone"], capsys)
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[1] for row in rows] == ["det/exact", "solve/exact", "inv/exact", "inv/float",
                                            "solve/float", "read/float"]
        assert rows[0][3] == "" and float(rows[1][2]) >= 0 and float(rows[2][2]) >= 0
        assert [row[2:] for row in rows[3:5]] == [["refused", ""], ["refused", ""]]
        # reading the file refuses nothing
        assert float(rows[5][2]) >= 0 and rows[5][3] == ""


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

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["det", "inv", "solve", "gen", "bench", "oracle-check"])
    def test_unwritable_out_exits_3(self, command, kind, example_path, rhs_path, tmp_path,
                                    capsys):
        target = tmp_path / "missing" / "o.json" if kind == "missing-directory" else tmp_path
        argv = {
            "det": ["det", "--input", example_path],
            "inv": ["inv", "--input", example_path],
            "solve": ["solve", "--input", example_path, "--rhs", rhs_path],
            "gen": ["gen", "--n", "12", "--seed", "0"],
            "bench": ["bench", "--n", "8", "--seed", "0"],
            "oracle-check": ["oracle-check", "--input", example_path],
        }[command]
        code, out, err = run([*argv, "--out", str(target)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["det", "inv", "solve"])
    def test_out_of_memory_exits_5(self, command, example_path, rhs_path, tmp_path,
                                   monkeypatch, capsys):
        # every exact det, solve and inverse makes its lanes in residues.adjugate
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(residues, "adjugate", no_memory)
        argv = [command, "--input", example_path]
        if command == "solve":
            argv += ["--rhs", rhs_path]
        for out in ([], ["--out", str(tmp_path / "o.json")]):
            assert run(argv + out, capsys) == (5, "", "error: out of memory\n")
        assert not (tmp_path / "o.json").exists()

    def test_failed_write_keeps_the_previous_out_file(self, example_path, tmp_path,
                                                     monkeypatch, capsys):
        # the formatter runs out of memory after 50 entries, midway through
        # the JSON stream: the exit code is that of the error, and --out
        # keeps its bytes, with no temporary file left beside it
        formatter = cli.scalar_formatter

        def failing_formatter():
            fmt, calls = formatter(), iter(range(50))

            def fail_after_50(value):
                if next(calls, None) is None:
                    raise MemoryError
                return fmt(value)

            return fail_after_50

        target = tmp_path / "F.json"
        target.write_text("previous\n")
        argv = ["inv", "--input", example_path, "--out", str(target)]
        monkeypatch.setattr(cli, "scalar_formatter", failing_formatter)
        assert run(argv, capsys) == (5, "", "error: out of memory\n")
        assert target.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [target]
        monkeypatch.undo()
        assert run(argv, capsys) == (0, "", "")
        assert run(argv[:-2], capsys)[1] == target.read_text()
        assert list(tmp_path.iterdir()) == [target]

    def test_symlinked_out_writes_the_file_it_names(self, example_path, tmp_path, capsys):
        # the link stays a link, and the file it names takes the bytes
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "F.json"
        target.write_text("previous\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        argv = ["inv", "--input", example_path]
        assert run([*argv, "--out", str(link)], capsys) == (0, "", "")
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text() == run(argv, capsys)[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link.json"]
        assert list((tmp_path / "data").iterdir()) == [target]

    def test_fifo_out_is_written_in_place(self, example_path, tmp_path, capsys):
        # a path that is no regular file is opened and written as it is,
        # never replaced by a file of the same name
        fifo = tmp_path / "F.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        argv = ["inv", "--input", example_path]
        assert run([*argv, "--out", str(fifo)], capsys) == (0, "", "")
        reader.join(timeout=30)
        assert got == [run(argv, capsys)[1]]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_out_keeps_its_permission_bits(self, example_path, tmp_path, capsys):
        # a file there keeps its mode; a new one gets that of open(..., "w")
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text("previous\n")
        old.chmod(0o640)
        with open(tmp_path / "reference", "w"):
            pass
        for out in (old, new):
            assert run(["det", "--input", example_path, "--out", str(out)], capsys) == (0, "", "")
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert new.stat().st_mode == (tmp_path / "reference").stat().st_mode

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
    def test_read_only_out_exits_3(self, example_path, tmp_path, capsys):
        target = tmp_path / "F.json"
        target.write_text("previous\n")
        target.chmod(0o444)
        code, out, err = run(["det", "--input", example_path, "--out", str(target)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert target.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [target]

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


def _no_ratfun_instances():
    for profile in ("general", "diagonally-dominant", "zero-pivot-prone", "zero-C"):
        for seed in range(2):
            yield random_instance(12, seed, profile)
    yield collision_matrix(0)
    yield override_only_through_zero_c(0)
    singular = duplicated_row_matrix()
    yield singular.replace_band("d", [0, *singular.band("d")[1:]])


def test_no_cli_op_builds_a_rational_function(tmp_path, monkeypatch):
    # det, inv and solve evaluate at concrete points; with every RatFun built
    # by its constructor, counting constructor calls counts them all
    instances = list(_no_ratfun_instances())
    built = []
    init = scalars.RatFun.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(scalars.RatFun, "__init__", counting)
    path, one, two, out = (tmp_path / name for name in ("h.json", "r.json", "r.csv", "out"))
    overrides = 0
    for H in instances:
        path.write_text(matrix_to_json(H))
        one.write_text(json.dumps([str(k) for k in range(H.n)]))
        two.write_text("".join(f"{k},{k * k - 3}\n" for k in range(H.n)))
        for backend in ("exact", "float"):
            for op in (["det"], ["inv"], ["solve", "--rhs", str(one)], ["solve", "--rhs", str(two)]):
                argv = op + ["--input", str(path), "--backend", backend, "--out", str(out)]
                assert main(argv) in (0, 2)
                if op == ["det"] and backend == "exact":
                    overrides += json.loads(out.read_text())["pivot_overrides"]
    for profile in PROFILES:
        assert main(["bench", "--n", "12", "--seed", "0", "--profile", profile,
                     "--out", str(out)]) == 0
    assert overrides >= 5  # the substitution path ran
    assert built == []
