"""The float lane's read path: band and rhs files straight to float64.

The reference throughout is the exact route: parse every entry into a
Fraction (``matrix_from_json(text)``, ``vector_from_text(text)``), then
convert to float64 (``float_bands``, ``float_vector``).  The float lane must
give the same bits, or fail with the same exit code and message.
"""

import json
import random
import struct
import sys
import warnings
from fractions import Fraction as Fr

import pytest

from heptacyclic import matrix as matrix_mod
from heptacyclic import scalars
from heptacyclic.cli import main
from heptacyclic.errors import NearSingularPivotError
from heptacyclic.factor import determinant
from heptacyclic.inverse import inverse_float
from heptacyclic.matrix import (
    BAND_NAMES,
    FloatHeptaMatrix,
    entries_parser,
    float_vector,
    matrix_from_json,
    matrix_to_json,
    parse_entries,
    random_instance,
    to_dense,
)
from heptacyclic.oracle import dense_det, dense_inverse
from heptacyclic.scalars import float_entries, float_scalar, parse_scalar
from heptacyclic.solve import solve_many, vector_from_text

from conftest import fixture_path

# every text is tried as a band entry, a wrap entry and an rhs entry
CORPUS = [
    "0", "7", "-12", "+3", "-0", "0.0", "-0.0", "00012", "3.", ".5", "-.5", "1.25",
    "0.1", "2.675", "1e-3", "1E5", "-2.5e-3", "1e+05", "1.5e3", "5e-324", "2e-324",
    "1e-320", "1.7976931348623157e308", "1.7976931348623159e308",
    "1_000", "1_000.5", "1e1_0", "1__0", "_1", "1_", "1_.5", "1._5",
    "١٢٣", "١/٣", "٠", " 7 ", "\t-3\n", " 1/2 ",
    "3/4", "-3/4", "+2/6", "-0/7", "0/5", "1/0", "1/-2", "1/ 2", "1 /2", "1.5/2",
    "1_000/3", "1/3_0", "1//2", "/2", "1/",
    "-1e-400", "1e-400", "-1/" + "1" * 400, "1e400", "-1e400", "1" * 200, "-" + "9" * 200,
    "1" * 400, "1" * 700, "0." + "1" * 700, "1" * 300 + "/" + "7" * 299,
    "1" * 4400, "0." + "1" * 4400, "1/" + "3" * 4400,
    "inf", "-inf", "nan", "Infinity", "NaN", "infinity", "0x10", "1e", "e5", ".", "",
    " ", "12x", "1.5.2", "True", "None",
]

# JSON number literals: read from their literal text, never through a float
JSON_NUMBERS = [
    "12345678901234567890.5", "1e-400", "-1e-400", "1e400", "-0", "-0.0", "0.1",
    "1E5", "2.5e-3", "7", "Infinity", "-Infinity", "NaN",
]


def _outcome(fn):
    """Bits of a float, the exact value beyond the float64 range, or the error."""
    try:
        value = fn()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, Fr):
        return "exact", value
    if isinstance(value, float):
        return "float", struct.pack("<d", value)
    return "bands", value


def _exact_route(text):
    exact = parse_scalar(text)
    try:
        return float(exact)
    except OverflowError:
        return exact


def _random_texts():
    """20,000 short texts over the scalar grammar's characters (seed 20101)."""
    rng = random.Random(20101)
    alphabet = "0123456789_./eE+- \t١"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))) for _ in range(20000)]


class TestFloatScalar:
    @pytest.mark.parametrize("text", CORPUS)
    def test_same_bits_as_exact_parse(self, text):
        assert _outcome(lambda: float_scalar(text)) == _outcome(lambda: _exact_route(text))

    def test_random_texts_over_the_grammar(self):
        for text in _random_texts():
            assert _outcome(lambda: float_scalar(text)) == _outcome(lambda: _exact_route(text)), text

    def test_zero_signs(self):
        assert struct.pack("<d", float_scalar("-0")) == struct.pack("<d", 0.0)
        assert struct.pack("<d", float_scalar("-1e-400")) == struct.pack("<d", -0.0)


def _entries_outcome(fn):
    """Per-entry ``_outcome`` of a list of values, or the error of the call."""
    try:
        values = fn()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return [_outcome(lambda v=v: v) for v in values]


def _same_as_float_scalar(texts):
    assert _entries_outcome(lambda: float_entries(texts)) == _entries_outcome(
        lambda: list(map(float_scalar, texts))), texts


# ordinary lists around a text: all decimal, all ratio, and mixed with zeros
SURROUNDINGS = [
    ["7", "-0.25", "1e-3"],
    ["3/4", "-5/83", "+2/6"],
    ["0", "3/4", "-2.5", "0/5", "-7/9", "12"],
]


class TestFloatEntries:
    @pytest.mark.parametrize("around", SURROUNDINGS)
    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_text_in_a_list(self, text, around):
        for k in (0, 1, len(around)):
            _same_as_float_scalar(around[:k] + [text] + around[k:])

    def test_random_texts_in_lists(self):
        texts = _random_texts()
        for text in texts:
            for around in SURROUNDINGS:
                _same_as_float_scalar(around[:1] + [text] + around[1:])
        # one list of every text that reads as a float: a single batch
        readable = [t for t in texts if isinstance(_outcome(lambda t=t: float_scalar(t))[1], bytes)]
        assert len(readable) > 1000
        _same_as_float_scalar(readable)

    def test_mixed_band(self):
        rng = random.Random(7)
        kinds = [lambda: f"{rng.randint(-99, 99)}/{rng.randint(1, 97)}",
                 lambda: f"{rng.randint(-99, 99)}.{rng.randint(0, 99):02d}",
                 lambda: str(rng.randint(-9, 9)), lambda: "0", lambda: "-0/3", lambda: "0.0"]
        for _ in range(50):
            _same_as_float_scalar([rng.choice(kinds)() for _ in range(200)])

    def test_across_batches(self):
        # odd entries and a ratio text on either side of each batch boundary
        size = scalars._BATCH
        rng = random.Random(11)
        texts = [f"{rng.randint(-99, 99) or 1}/{rng.randint(1, 97)}" for _ in range(2 * size + 7)]
        for k in (0, size - 1, size, size + 1, 2 * size):
            texts[k] = rng.choice(["0", "-0/3", "1e400", "2.5", "1e-400"])
        _same_as_float_scalar(texts)
        _same_as_float_scalar(texts[:size] + ["1 /2"] + texts[size:])
        for bad in (size - 1, size, 2 * size + 3):
            _same_as_float_scalar(texts[:bad] + ["x"] + texts[bad:])
        # any iterable of texts reads as its list
        assert _entries_outcome(lambda: float_entries(iter(texts))) == _entries_outcome(
            lambda: float_entries(texts))

    def test_halves_around_2_to_the_53(self):
        halves = [10**15 - 1, 10**15 + 7, 2**53 - 1, 2**53, 2**53 + 1, 10**16 - 1,
                  10**17 - 3, 3 * 10**16 + 1]
        texts = [f"{sign}{p}/{q}" for p in halves for q in halves + [3, 7]
                 for sign in ("", "-", "+")]
        texts += [f"{p}/{q}" for p in (1, 22, 355) for q in halves]
        _same_as_float_scalar(texts)
        for text in texts:
            p, q = text.split("/")
            assert float_entries([text]) == [int(p) / int(q)]

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for first in ("1/0", "0/0", "nan"):
                with pytest.raises(ValueError, match=f"invalid scalar '{first}'"):
                    float_entries(["2/3", "1e400", first, "1/0", "5"])
            values = float_entries(["2/3", "1e400", "-1e400", "0/7", "5"])
        assert values[1:3] == [Fr(10**400), -Fr(10**400)]


def _example_payload():
    return json.loads(fixture_path("example10.json").read_text())


def _matrix_text(band, index, text=None, literal=None):
    """example10 with one entry replaced by a JSON string or a raw JSON literal."""
    payload = _example_payload()
    payload[band][index - 1] = "@@" if literal is not None else text
    out = json.dumps(payload)
    return out.replace('"@@"', literal) if literal is not None else out


def _bands_outcome(text, backend):
    return _outcome(lambda: {
        name: band.tobytes()
        for name, band in matrix_from_json(text, backend=backend).float_bands().items()
    })


POSITIONS = [("A", 5), ("D", 1), ("C", 10)]  # a free entry and two wrap positions


class TestMatrixReader:
    @pytest.mark.parametrize("band, index", POSITIONS)
    @pytest.mark.parametrize("text", CORPUS)
    def test_string_entries(self, text, band, index):
        matrix = _matrix_text(band, index, text=text)
        assert _bands_outcome(matrix, "float") == _bands_outcome(matrix, "exact")

    @pytest.mark.parametrize("band, index", POSITIONS)
    @pytest.mark.parametrize("literal", JSON_NUMBERS)
    def test_json_numbers(self, literal, band, index):
        matrix = _matrix_text(band, index, literal=literal)
        assert _bands_outcome(matrix, "float") == _bands_outcome(matrix, "exact")

    def test_returns_float_matrix(self):
        H = matrix_from_json(fixture_path("example10.json").read_text(), backend="float")
        assert isinstance(H, FloatHeptaMatrix) and H.n == 10

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            matrix_from_json(fixture_path("example10.json").read_text(), backend="single")

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_json_number_keeps_its_digits(self, backend):
        H = matrix_from_json(_matrix_text("A", 5, literal="12345678901234567890.5"), backend)
        expected = Fr("12345678901234567890.5")
        if backend == "exact":
            assert H.A[4] == expected
        else:
            assert H.float_bands()["A"][5] == float(expected)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_json_number_below_float_range_at_wrap(self, backend):
        with pytest.raises(ValueError, match="band wrap violation: D_1 must be zero"):
            matrix_from_json(_matrix_text("D", 1, literal="1e-400"), backend)

    def test_only_json_numbers_are_converted(self):
        seen = []

        def parse(texts):
            seen.append(texts)
            return list(texts)

        strings = ["1", "2/3", "0.5"]
        assert parse_entries(strings, parse, "band 'A'") == strings
        assert seen[-1] is strings  # a list of strings is read as it is
        assert parse_entries(["1", 2, True, None], parse, "band 'A'") == ["1", "2", "True", "None"]

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("items, message", [
        (["1", "x", 3], "band 'A' entry 2: invalid scalar 'x'"),
        (["1", 2, True], "band 'A' entry 3: invalid scalar 'True'"),
        ([None, "1"], "band 'A' entry 1: invalid scalar 'None'"),
    ])
    def test_error_names_the_entry(self, items, message, backend):
        with pytest.raises(ValueError) as info:
            parse_entries(items, entries_parser(backend), "band 'A'")
        assert str(info.value) == message


def _rhs_outcome(text, backend):
    def convert():
        columns = vector_from_text(text, backend=backend)
        return [float_vector(col, f"rhs column {k}").tobytes() for k, col in enumerate(columns, 1)]
    return _outcome(convert)


class TestRhsReader:
    @pytest.mark.parametrize("text", CORPUS)
    def test_json_strings(self, text):
        rhs = json.dumps(["1", text, "2"])
        assert _rhs_outcome(rhs, "float") == _rhs_outcome(rhs, "exact")

    @pytest.mark.parametrize("text", [t for t in CORPUS if "," not in t and "\n" not in t])
    def test_csv_cells(self, text):
        rhs = f"1,2\n{text},3\n4,{text}\n"
        assert _rhs_outcome(rhs, "float") == _rhs_outcome(rhs, "exact")

    @pytest.mark.parametrize("literal", JSON_NUMBERS)
    def test_json_numbers(self, literal):
        rhs = f"[1, {literal}, 2]"
        assert _rhs_outcome(rhs, "float") == _rhs_outcome(rhs, "exact")

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_json_number_keeps_its_digits(self, backend):
        (col,) = vector_from_text("[12345678901234567890.5, -1e-400]", backend=backend)
        expected = [Fr("12345678901234567890.5"), Fr(-1, 10**400)]
        if backend == "exact":
            assert col == expected
        else:
            assert [struct.pack("<d", v) for v in col] == [
                struct.pack("<d", float(v)) for v in expected]
            assert struct.pack("<d", col[1]) == struct.pack("<d", -0.0)

    @pytest.mark.parametrize("rhs, message", [
        ("1,2\n3,x\n4\n", "rhs row 2: invalid scalar 'x'"),
        ("1,2\n3\nx,4\n", "rhs row 3: invalid scalar 'x'"),
        ("1,2\n\n3,4/0,x\n", "rhs row 3: invalid scalar '4/0'"),
        ("1,2\n3\n4,5\n", "rhs CSV rows have inconsistent width"),
    ])
    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_csv_bad_entry_before_inconsistent_width(self, rhs, message, backend):
        with pytest.raises(ValueError) as info:
            vector_from_text(rhs, backend=backend)
        assert str(info.value) == message


def _float_or_error(text):
    """("float", value) of ``float_scalar(text)``, ("exact", value) beyond
    the float64 range, or ("error", message)."""
    try:
        value = float_scalar(text)
    except ValueError as exc:
        return "error", str(exc)
    return ("exact" if isinstance(value, Fr) else "float"), value


class TestReadersOverRandomTexts:
    """Each random grammar text inside an ordinary band, JSON rhs and CSV rhs
    reads as ``float_scalar`` reads it, or fails with its message."""

    def test_band_entry(self):
        base = matrix_from_json(fixture_path("example10.json").read_text(), "float").float_bands()
        for text in set(_random_texts()):
            kind, value = _float_or_error(text)
            if kind == "error":
                expected = "ValueError", f"band 'A' entry 5: {value}"
            elif kind == "exact":
                expected = ("ValueError",
                            "band A entry 5 is beyond the float64 range; use the exact backend")
            else:
                bands = {name: band.tobytes() for name, band in base.items()}
                bands["A"] = (base["A"][:5] + float_vector([value], "A")[1:]
                              + base["A"][6:]).tobytes()
                expected = "bands", bands
            assert _bands_outcome(_matrix_text("A", 5, text=text), "float") == expected, text

    def test_json_rhs_entry(self):
        for text in set(_random_texts()):
            entries = ["1", "-2/7", text, "0.5"]
            kind, value = _float_or_error(text)
            expected = (("ValueError", f"rhs entry 3: {value}") if kind == "error" else
                        _entries_outcome(lambda: list(map(float_scalar, entries))))
            got = _entries_outcome(lambda: vector_from_text(json.dumps(entries), "float")[0])
            assert got == expected, text

    def test_csv_rhs_cell(self):
        for text in set(_random_texts()):
            rhs = f"1,{text},3\n4/5,{text},-6\n"
            kind, value = _float_or_error(text)
            expected = (("ValueError", f"rhs row 1: {value}") if kind == "error" else
                        _entries_outcome(lambda: list(map(float_scalar,
                                                          ["1", "4/5", text, text, "3", "-6"]))))
            got = _entries_outcome(
                lambda: [v for col in vector_from_text(rhs, "float") for v in col])
            assert got == expected, text


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _expected_det(matrix_text):
    """(exit code, stdout det, stderr) of ``det --backend float`` by the exact route."""
    try:
        result = determinant(matrix_from_json(matrix_text), backend="float")
    except NearSingularPivotError as exc:
        return 2, None, f"error: {exc}\n"
    except ValueError as exc:
        return 3, None, f"error: {exc}\n"
    return 2 if result.singular else 0, repr(result.value), ""


class TestCliCorpus:
    @pytest.mark.parametrize("band, index", POSITIONS)
    @pytest.mark.parametrize("kind, entry", [("text", t) for t in CORPUS]
                             + [("literal", t) for t in JSON_NUMBERS])
    def test_det_exit_code_and_message(self, kind, entry, band, index, tmp_path, capsys):
        matrix = _matrix_text(band, index, **{kind: entry})
        path = tmp_path / "m.json"
        path.write_text(matrix)
        code, out, err = _run(["det", "--input", str(path), "--backend", "float"], capsys)
        expected_code, expected_det, expected_err = _expected_det(matrix)
        assert (code, err) == (expected_code, expected_err)
        if expected_det is not None:
            assert json.loads(out)["det"] == expected_det


def _generated_texts(n, seed):
    """A dominant instance written with p/q, decimal, exponent and padded
    entries, and exact zeros spelled several ways at the wrap positions."""
    H = random_instance(n, seed, "diagonally-dominant")
    spell = [lambda v: str(v), lambda v: f"{v}/7", lambda v: f"{v}.125",
             lambda v: f"{v}e-1", lambda v: f" {v} "]
    payload = {"n": n}
    for name in BAND_NAMES:
        band = [int(v) for v in H.band(name)]
        payload[name] = [str(v) if name == "d" else spell[k % 5](v) for k, v in enumerate(band)]
    payload["D"][:3] = ["0", "-0", "0/7"]
    payload["C"][-3:] = ["0.0", "0e5", "-0/3"]
    rng = random.Random(seed)
    rhs1 = json.dumps([f"{rng.randint(-50, 50)}/{rng.randint(1, 9)}" for _ in range(n)])
    rhs2 = "".join(f"{rng.randint(-9, 9)}.5,{rng.randint(-9, 9)}e-2\n" for _ in range(n))
    return json.dumps(payload), rhs1, rhs2


def _library_output(command, fmt, matrix_text, rhs_text):
    """CLI output built from the library path: a CyclicHeptaMatrix of
    Fractions and its float_bands, laid out by json.dumps."""
    H = matrix_from_json(matrix_text)
    dump = lambda payload: json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if command == "det":
        r = determinant(H, backend="float")
        if fmt == "csv":
            return f"det,singular,pivot_overrides\n{r.value!r},{str(r.singular).lower()},0\n"
        return dump({"det": repr(r.value), "singular": r.singular, "pivot_overrides": 0})
    if command == "inv":
        rows = [[repr(v) for v in row] for row in inverse_float(H).tolist()]
        if fmt == "csv":
            return "".join(",".join(row) + "\n" for row in rows)
        return dump({"backend": "float", "c_substitutions": [], "pivot_overrides": [],
                     "back_path": "bordered-solve", "n": H.n, "S": rows})
    reports = solve_many(H, vector_from_text(rhs_text), backend="float")
    xs = [[repr(v) for v in rep.x] for rep in reports]
    if fmt == "csv":
        return "".join(",".join(col[i] for col in xs) + "\n" for i in range(H.n))
    return dump({"det": repr(reports[0].det), "method": "via-lu", "backend": "float",
                 "exact_residual": False, "x": xs[0] if len(xs) == 1 else xs})


class TestCliBytes:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command, rhs_kind", [
        ("det", None), ("inv", None), ("solve", "json"), ("solve", "csv"),
    ])
    @pytest.mark.parametrize("instance", ["example10", "generated64"])
    def test_same_bytes_as_library_path(self, instance, command, rhs_kind, fmt, tmp_path, capsys):
        if instance == "example10":
            matrix = fixture_path("example10.json").read_text()
            rhs1 = fixture_path("example10_rhs.json").read_text()
            rhs2 = "".join(f"{k},{k * k - 7}/3\n" for k in range(10))
        else:
            matrix, rhs1, rhs2 = _generated_texts(64, 5)
        rhs = rhs1 if rhs_kind == "json" else rhs2
        (tmp_path / "m.json").write_text(matrix)
        (tmp_path / "r.txt").write_text(rhs)
        argv = [command, "--input", str(tmp_path / "m.json"), "--backend", "float", "--format", fmt]
        if command == "solve":
            argv += ["--rhs", str(tmp_path / "r.txt")]
        expected = _library_output(command, fmt, matrix, rhs)
        code, out, err = _run(argv, capsys)
        assert (code, err) == (0, "")
        # compared line by line: a diff of two long strings is slow to report
        assert out.split("\n") == expected.split("\n")
        assert main(argv + ["--out", str(tmp_path / "o.txt")]) == 0
        assert (tmp_path / "o.txt").read_text().split("\n") == expected.split("\n")


class TestNoFractionPerEntry:
    @pytest.mark.parametrize("command", ["det", "solve"])
    def test_parse_scalar_only_for_wraps_and_fallbacks(self, command, tmp_path, monkeypatch, capsys):
        H = random_instance(64, 2, "diagonally-dominant")
        rhs = [str(random.Random(2).randint(-9, 9)) for _ in range(64)]
        (tmp_path / "m.json").write_text(matrix_to_json(H))
        (tmp_path / "r.json").write_text(json.dumps(rhs))
        entries = [str(v) for name in BAND_NAMES for v in H.band(name)]
        if command == "solve":
            entries += rhs
        # a zero reads as 0.0 and takes the exact route for its sign
        fallbacks = sum(1 for text in entries if float(text) == 0.0)
        calls = []
        original = scalars.parse_scalar

        def counting(text):
            calls.append(text)
            return original(text)

        for module in (scalars, matrix_mod):
            monkeypatch.setattr(module, "parse_scalar", counting)
        argv = [command, "--input", str(tmp_path / "m.json"), "--backend", "float"]
        if command == "solve":
            argv += ["--rhs", str(tmp_path / "r.json")]
        code, _, _ = _run(argv, capsys)
        assert code == 0
        assert len(calls) <= 6 + fallbacks < len(entries) // 4


def _fault_bands(faults):
    """example10 with the named faults planted, as a matrix file text."""
    payload = _example_payload()
    if "order" in faults:
        payload = {k: v if k == "n" else v[:7] for k, v in payload.items()}
        payload["n"] = 7
    if "parse" in faults:
        payload["C"][1] = "x"  # after the range entry in band order
    if "wrap" in faults:
        payload["D"][0] = "1e-400"  # reads as 0.0 but is not zero
    if "range" in faults:
        payload["A"][4] = "1e400"
    return json.dumps(payload)


MESSAGES = {
    "parse": "band 'C' entry 2: invalid scalar 'x'",
    "order": "order too small: n=7, need n >= 8",
    "wrap": "band wrap violation: D_1 must be zero",
    "range": "band A entry 5 is beyond the float64 range; use the exact backend",
}


class TestFaultPrecedence:
    @pytest.mark.parametrize("first, second", [
        ("parse", "order"), ("parse", "wrap"), ("parse", "range"),
        ("order", "wrap"), ("order", "range"), ("wrap", "range"),
    ])
    @pytest.mark.parametrize("command", ["det", "inv", "solve"])
    def test_first_fault_is_reported(self, first, second, command, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(_fault_bands({first, second}))
        rhs = fixture_path("example10_rhs.json")
        backends = ["float"] if second == "range" else ["exact", "float"]
        for backend in backends:
            argv = [command, "--input", str(path), "--backend", backend]
            if command == "solve":
                argv += ["--rhs", str(rhs)]
            code, out, err = _run(argv, capsys)
            assert (code, out, err) == (3, "", f"error: {MESSAGES[first]}\n"), backend

    def test_rhs_faults_still_come_before_a_band_beyond_range(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(_fault_bands({"range"}))
        rhs = tmp_path / "r.json"
        rhs.write_text(json.dumps(["1"] * 9))
        code, _, err = _run(["solve", "--input", str(path), "--rhs", str(rhs),
                             "--backend", "float"], capsys)
        assert (code, err) == (3, "error: right-hand side length 9 != order 10\n")


class TestLongExactResults:
    def test_det_beyond_4300_digits(self, tmp_path, capsys):
        H = random_instance(8, 1, "diagonally-dominant")
        H = H.replace_band("d", [v * 10**600 + 1 for v in H.d])
        (tmp_path / "m.json").write_text(matrix_to_json(H))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = _run(["det", "--input", str(tmp_path / "m.json")], capsys)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        det = json.loads(out)["det"]
        assert len(det) > 4300
        expected = dense_det(to_dense(H))
        assert _text_of(expected) == det

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_inv_beyond_4300_digits(self, fmt, tmp_path, capsys):
        H = random_instance(8, 1, "diagonally-dominant")
        H = H.replace_band("d", [v * 10**600 + 1 for v in H.d])
        (tmp_path / "m.json").write_text(matrix_to_json(H))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = _run(["inv", "--input", str(tmp_path / "m.json"), "--format", fmt],
                              capsys)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        expected = [[scalars.format_scalar(x) for x in row]
                    for row in dense_inverse(to_dense(H)).rows]
        assert max(len(text) for row in expected for text in row) > 4300
        if fmt == "json":
            assert json.loads(out)["S"] == expected
        else:
            assert out == "".join(",".join(row) + "\n" for row in expected)

    def test_det_text_reads_back(self, tmp_path, capsys):
        # n = 8 with every nonzero entry of 2,000 digits: the det, of some
        # 16,000, is a valid entry of the next input
        H = random_instance(8, 1, "diagonally-dominant")
        rng = random.Random(2000)
        H = matrix_mod.CyclicHeptaMatrix(8, *([v if v == 0 else rng.choice((-1, 1)) * rng.randrange(10**1999, 10**2000)
                                               for v in H.band(name)] for name in matrix_mod.BAND_NAMES))
        (tmp_path / "m.json").write_text(matrix_to_json(H))
        code, out, err = _run(["det", "--input", str(tmp_path / "m.json")], capsys)
        assert (code, err) == (0, "")
        det = json.loads(out)["det"]
        assert len(det) > 15000
        assert scalars.parse_scalar(det) == dense_det(to_dense(H))
        K = H.replace_band("d", [scalars.parse_scalar(det), *H.d[1:]])
        payload = json.loads(matrix_to_json(K))
        assert payload["d"][0] == det
        (tmp_path / "k.json").write_text(json.dumps(payload))
        code, out, err = _run(["det", "--input", str(tmp_path / "k.json")], capsys)
        assert (code, err) == (0, "")
        assert scalars.parse_scalar(json.loads(out)["det"]) == dense_det(to_dense(K))

    def test_format_scalar_restores_the_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        text = scalars.format_scalar(Fr(-(10**5000) - 1, 3))
        assert text == "-1" + "0" * 4999 + "1/3"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _text_of(value):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
