"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are pinned here and nowhere else: exact equality for
the rational lane, 1e-8 relative error for float/exact agreement, 2.5x for
linear determinant scaling, 5x for quadratic inverse scaling.
"""

import functools
import json
import random
import statistics
import time
from fractions import Fraction as Fr

from heptacyclic.bench import count_det_ops
from heptacyclic.cli import main as cli_main
from heptacyclic.errors import SingularMatrixError
from heptacyclic.factor import determinant
from heptacyclic.inverse import invert, inverse_float
from heptacyclic.matrix import matrix_to_json, random_instance, to_dense
from heptacyclic.oracle import compare, dense_det, dense_inverse
from heptacyclic.scalars import format_scalar

from conftest import fixture_path
from test_factor import assert_lu_product_identity

ALL_PROFILES = ("general", "diagonally-dominant", "zero-pivot-prone", "zero-C")


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {title}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number}: PASS - {title} ({elapsed:.1f}s)")
        return wrapper
    return decorate


def dominant_nonzero_C(n, seed):
    """Strictly dominant instance with every free C entry nonzero, so the
    exact lane stays in plain rationals at large orders."""
    H = random_instance(n, seed, "diagonally-dominant")
    rng = random.Random(seed + 7700)
    C = list(H.band("C"))
    for i in range(1, n - 4):
        if C[i - 1] == 0:
            C[i - 1] = Fr(rng.choice([v for v in range(-9, 10) if v]))
    H = H.replace_band("C", C)
    d = list(H.band("d"))
    for i in range(n):
        others = sum(abs(H.band(k)[i]) for k in "DBbaAC")
        if abs(d[i]) <= others:
            sign = 1 if d[i] >= 0 else -1
            d[i] = sign * (others + 1 + rng.randint(0, 8))
    return H.replace_band("d", d)


@criterion(1, "worked-example inverse reproduced exactly via the CLI, < 1 s")
def test_criterion_1(tmp_path, example10_inverse):
    out = tmp_path / "inv.json"
    start = time.perf_counter()
    code = cli_main(["inv", "--input", str(fixture_path("example10.json")),
                     "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out.read_text())
    got = [[Fr(v) for v in row] for row in payload["S"]]
    assert got == example10_inverse  # all 100 entries, exact
    assert got[0][0] == Fr(-12664, 32715)
    assert got[6][5] == Fr(-14012, 10905)
    assert got[9][9] == Fr(-1643, 32715)
    assert elapsed < 1.0


@criterion(2, "worked-example solution (1..10) reproduced exactly via the CLI, < 1 s")
def test_criterion_2(tmp_path):
    out = tmp_path / "solve.json"
    start = time.perf_counter()
    code = cli_main(["solve", "--input", str(fixture_path("example10.json")),
                     "--rhs", str(fixture_path("example10_rhs.json")),
                     "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["x"] == [str(i) for i in range(1, 11)]
    assert payload["exact_residual"] is True
    assert elapsed < 1.0


@criterion(3, ">= 200 seeded instances, all profiles, n in [8, 20]: inverse and "
              "determinant match the dense oracle exactly; singular refused with exit 2")
def test_criterion_3(tmp_path):
    processed = 0
    singular_seen = 0
    cli_checked = False
    for seed in range(52):
        for p_idx, profile in enumerate(ALL_PROFILES):
            n = 8 + ((seed + 3 * p_idx) % 13)
            H = random_instance(n, seed, profile)
            dense = to_dense(H)
            oracle_det = dense_det(dense)
            det = determinant(H)
            assert det.value == oracle_det
            if oracle_det == 0:
                singular_seen += 1
                try:
                    invert(H)
                except SingularMatrixError:
                    pass
                else:
                    raise AssertionError("singular instance was not refused")
                if not cli_checked:
                    path = tmp_path / "singular.json"
                    path.write_text(matrix_to_json(H))
                    assert cli_main(["det", "--input", str(path),
                                     "--out", str(tmp_path / "det.json")]) == 2
                    assert cli_main(["inv", "--input", str(path),
                                     "--out", str(tmp_path / "unused.json")]) == 2
                    cli_checked = True
            else:
                result = invert(H)
                assert compare(result.S, dense_inverse(dense)).equal
            processed += 1
    assert processed >= 200
    if not singular_seen:
        # random integer draws are rarely singular; refusal still must be
        # demonstrated, so append a constructed singular instance
        from test_factor import duplicated_row_matrix

        H = duplicated_row_matrix()
        try:
            invert(H)
        except SingularMatrixError:
            singular_seen += 1
        path = tmp_path / "singular.json"
        path.write_text(matrix_to_json(H))
        assert cli_main(["det", "--input", str(path),
                         "--out", str(tmp_path / "det.json")]) == 2
        assert cli_main(["inv", "--input", str(path),
                         "--out", str(tmp_path / "unused.json")]) == 2
        cli_checked = True
    assert singular_seen >= 1 and cli_checked


@criterion(4, "breakdown-free: >= 50 zero-pivot and >= 50 zero-C instances complete "
              "through the substitution path with exact results and no pole errors")
def test_criterion_4():
    completed = {"zero-pivot-prone": 0, "zero-C": 0}
    for profile, provenance in (("zero-pivot-prone", "pivot_overrides"),
                                ("zero-C", "c_substitutions")):
        seed = 0
        while completed[profile] < 50:
            assert seed < 400, "not enough nonsingular draws"
            n = 8 + (seed % 7)
            H = random_instance(n, seed, profile)
            seed += 1
            dense = to_dense(H)
            if dense_det(dense) == 0:
                continue
            result = invert(H)  # any error propagates and fails the test
            assert getattr(result, provenance), "substitution path not exercised"
            assert compare(result.S, dense_inverse(dense)).equal
            assert determinant(H).value == dense_det(dense)
            completed[profile] += 1
    assert all(v >= 50 for v in completed.values())


@criterion(5, ">= 100 instances: dense(L) @ dense(U) == H + t*E(ii) overrides, exact")
def test_criterion_5():
    with_override = 0
    for count in range(100):
        profile = ALL_PROFILES[count % 4]
        n = 8 + (count % 5)
        fd = assert_lu_product_identity(random_instance(n, count, profile))
        if fd.overrides:
            with_override += 1
    assert with_override >= 10  # the override term itself was exercised


@criterion(6, "50 diagonally-dominant instances, n <= 256: float inverse matches "
              "exact inverse to relative error <= 1e-8")
def test_criterion_6():
    sizes = [8 + (k % 57) for k in range(47)] + [128, 192, 256]
    assert len(sizes) == 50 and max(sizes) == 256
    for idx, n in enumerate(sizes):
        H = dominant_nonzero_C(n, idx)
        exact = invert(H).S
        approx = inverse_float(H)
        for i in range(n):
            for j in range(n):
                e = float(exact.rows[i][j])
                f = approx[i, j]
                if e == 0.0:
                    assert abs(f) <= 1e-8
                else:
                    assert abs(f - e) / abs(e) <= 1e-8


@criterion(7, "scaling: det field-ops at n=2000 <= 2.5x n=1000; float inverse wall "
              "time at n=1024 <= 5x n=512")
def test_criterion_7():
    ops_1000 = count_det_ops(random_instance(1000, 1, "diagonally-dominant"))
    ops_2000 = count_det_ops(random_instance(2000, 1, "diagonally-dominant"))
    assert ops_2000 <= 2.5 * ops_1000

    inverse_float(random_instance(64, 0, "diagonally-dominant"))  # warm-up, untimed
    # On a shared machine the speed can shift by up to 2x between plateaus a
    # few seconds long, so the best time of each size may come from a
    # different speed.  The sizes therefore alternate (512, 1024, 512, ..., 512) and
    # each n=1024 inverse is compared with the n=512 inverses timed just
    # before and after it; the median of the three ratios is held to 5x.
    def wall(H):
        start = time.perf_counter()
        inverse_float(H)
        return time.perf_counter() - start

    H512 = random_instance(512, 2, "diagonally-dominant")
    H1024 = random_instance(1024, 2, "diagonally-dominant")
    w512 = [wall(H512)]
    ratios = []
    for _ in range(3):
        w1024 = wall(H1024)
        w512.append(wall(H512))
        ratios.append(w1024 / ((w512[-2] + w512[-1]) / 2))
    assert statistics.median(ratios) <= 5.0, (w512, ratios)


@criterion(8, "20 seeded instances: inv output bytes the same on every run, "
              "its S the oracle's inverse")
def test_criterion_8(tmp_path):
    done = 0
    seed = 0
    while done < 20:
        assert seed < 100
        profile = ALL_PROFILES[seed % 4]
        n = 8 + (seed % 7)
        H = random_instance(n, seed, profile)
        seed += 1
        dense = to_dense(H)
        if dense_det(dense) == 0:
            continue
        path = tmp_path / f"m{seed}.json"
        path.write_text(matrix_to_json(H))
        first = tmp_path / f"a{seed}.json"
        second = tmp_path / f"b{seed}.json"
        assert cli_main(["inv", "--input", str(path), "--out", str(first)]) == 0
        assert cli_main(["inv", "--input", str(path), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        expected = [[format_scalar(v) for v in row] for row in dense_inverse(dense).rows]
        assert json.loads(first.read_text())["S"] == expected
        done += 1
