"""The exact lane over word-size primes: the division-free elimination's
lanes, the prime table, and det and solve through one elimination, equal
to the dense oracle."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as Fr
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest

from heptacyclic import factor, residues
from heptacyclic.bench import CountingScalar, OpCounter, count_det_ops
from heptacyclic.errors import SingularMatrixError
from heptacyclic.factor import determinant, factorize
from heptacyclic.inverse import invert, seed_columns
from heptacyclic.matrix import BAND_NAMES, CyclicHeptaMatrix, random_instance, row_scaled, to_dense
from heptacyclic.oracle import dense_det, dense_inverse
from heptacyclic.scalars import T
from heptacyclic.solve import solve_many

from test_inverse import (ALL_PROFILES, acceptance_corpora, collision_matrix, count_calls,
                          eliminations, on_the_lane, point_skip_matrix, rational_entries,
                          zero_rows)

# the largest prime below 2**30: lane 0 of every sweep
LANE_0_PRIME = 2**30 - 35


def times(S, r):
    return [sum(u * v for u, v in zip(row, r)) for row in S.rows]


def rhs_columns(n, seed):
    rng = random.Random(seed)
    return [[Fr(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(2)]


def assert_equals_oracle(H, seed=0):
    """det and 1- and 2-column solves of H, through the lane and through the
    public entry points, equal the dense oracle, every entry point reports
    the lane's overrides, and every sweep runs over residue lanes; returns
    the lane primes of each sweep of the public det, a set per sweep."""
    dense = to_dense(H)
    det = dense_det(dense)
    r1, r2 = rhs_columns(H.n, seed)
    with on_the_lane() as sweeps:
        result = determinant(H)
        det_sweeps = sweeps.copy()
        found = residues.solve(H, [r1, r2])
        if det == 0:
            with pytest.raises(SingularMatrixError):
                solve_many(H, [r1])
        else:
            (one,) = solve_many(H, [r1])
            two = solve_many(H, [r1, r2])
    assert result.value == det
    if det == 0:
        # the lane says singular and returns no entries: it never divides by 0
        assert found[::2] == (det, None)
        assert result.singular and result.pivot_overrides == len(found[1])
        return det_sweeps
    S = dense_inverse(dense)
    x1, x2 = times(S, r1), times(S, r2)
    assert list(one.x) == x1 and one.det == det
    assert [list(rep.x) for rep in two] == [x1, x2]
    overrides = found[1]
    assert found == (det, overrides, x1 + x2)
    assert residues.solve(H, []) == (det, overrides, [])
    assert result.pivot_overrides == len(overrides)
    assert one.substitutions_fired == {"pivot_overrides": len(overrides)}
    return det_sweeps


def with_bands(H, **changes):
    bands = {name: list(H.band(name)) for name in BAND_NAMES}
    bands.update(changes)
    return CyclicHeptaMatrix(H.n, **bands)


class TestEqualsOracle:
    def test_acceptance_and_collision_corpora(self):
        # zero pivots and singular draws run on the lane too
        for k, H in enumerate(acceptance_corpora()):
            assert_equals_oracle(H, seed=k)

    def test_rational_entries(self):
        for seed in range(20):
            H = random_instance(8 + seed % 9, seed, ("general", "diagonally-dominant")[seed % 2])
            rng = random.Random(seed)
            H = with_bands(H, **{name: [v / rng.randint(1, 12) for v in H.band(name)]
                                 for name in BAND_NAMES})
            assert_equals_oracle(H, seed)

    def test_entries_at_p_minus_one_and_two(self):
        # -1 and -2 sit at p-1 and p-2 in every lane, so each product of two
        # lanes is as large as the reduction ever lets one be
        for seed in range(40):
            rng = random.Random(seed)
            n = 8 + seed % 5
            H = random_instance(n, seed, "general")
            H = with_bands(H, **{name: [rng.choice((-1, -2)) if v != 0 or name not in "DC" else 0
                                        for v in H.band(name)] for name in BAND_NAMES})
            assert_equals_oracle(H, seed)

    def test_entries_beyond_int64(self):
        big = 10**600
        for seed in (0, 1):
            H = random_instance(8 + 2 * seed, seed, "diagonally-dominant")
            H = with_bands(H, d=[v * big for v in H.band("d")],
                           a=[v * big if k % 2 else v for k, v in enumerate(H.band("a"))])
            assert_equals_oracle(H, seed)

    def test_entries_near_10_to_100(self):
        # some 90 primes at these orders, at one point or tiled over several
        instances = [random_instance(8 + seed, seed, profile)
                     for seed in range(3) for profile in ALL_PROFILES]
        instances += [collision_matrix(seed) for seed in range(2)]
        big = 10**100
        for k, H in enumerate(instances):
            H = with_bands(H, **{name: [v * big for v in H.band(name)] for name in BAND_NAMES})
            for primes in assert_equals_oracle(H, seed=k):
                assert len(primes) >= 64


def wide_rhs(n, seed):
    """Three rational columns whose denominators are distinct primes near
    2**32, so each row's lcm L_i and every entry of r' = L r pass int64."""
    rng = random.Random(seed)
    primes = [2**32 - 5, 2**32 - 17, 2**32 + 15]
    return [[Fr(rng.randint(1, 9), q) for _ in range(n)] for q in primes]


class TestSolveBlock:
    """``solve`` takes all its columns in one elimination, and gets the x
    that each column solved alone gets."""

    @pytest.mark.parametrize("H, columns", [
        (random_instance(24, 1, "diagonally-dominant"),
         rhs_columns(24, 1) + rhs_columns(24, 2)[:1]),
        (zero_rows(random_instance(24, 0, "diagonally-dominant"), (5, 9)),
         rhs_columns(24, 3) + rhs_columns(24, 4)[:1]),
        (random_instance(16, 2, "diagonally-dominant"), wide_rhs(16, 2)),
    ], ids=["dominant", "three-points", "beyond-int64"])
    def test_block_is_each_column_alone(self, H, columns, monkeypatch):
        assert len(columns) == 3
        alone = [residues.solve(H, [c]) for c in columns]
        with eliminations() as calls:
            det, overrides, x = residues.solve(H, columns)
        assert len(calls) == 1 and calls[0][-1].shape[1] == 3
        assert all(found[:2] == (det, overrides) for found in alone)
        assert x == [v for _, _, xs in alone for v in xs]
        S = dense_inverse(to_dense(H))
        assert x == [v for r in columns for v in times(S, r)]

    def test_instances_reach_the_paths_they_name(self):
        assert residues.solve(zero_rows(random_instance(24, 0, "diagonally-dominant"), (5, 9)),
                              [])[1] == (5, 9)
        _, _, rhs = row_scaled(random_instance(16, 2, "diagonally-dominant"), wide_rhs(16, 2))
        assert all(abs(v) >= 2**63 for col in rhs for v in col)


class TestSolutionEntries:
    """``solve`` puts each Cramer int v over det H' = delta: the entries are
    Fraction(v, delta) exactly, delta < 0, v = 0 and 1 < g < |delta|
    included, g = gcd(v, delta)."""

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_entries_are_fraction_of_the_ints(self, seed):
        H = random_instance(12, seed, "general")
        # x0 has zeros (v = 0) and ints (g = |delta|); a random r has
        # entries with 1 < g < |delta| too
        x0 = [0, 1, -2, 0, 5, 0, 7, 1, 0, -3, 2, 0]
        rng = random.Random(seed)
        columns = [H.mat_vec(x0), [Fr(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(12)]]
        delta, _, values = residues.adjugate(*row_scaled(H, columns))
        _, _, x = residues.solve(H, columns)
        expected = [Fr(v, delta) for v in values]
        assert [(e.numerator, e.denominator) for e in x] == \
            [(e.numerator, e.denominator) for e in expected]
        assert x[:12] == x0
        gs = [abs(delta) // e.denominator for e in expected[12:] if e]
        assert any(1 < g < abs(delta) for g in gs)
        assert (delta < 0) == (seed != 0)


class TestZeroPivots:
    """Structurally zero pivots run on the lane, at concrete points."""

    @pytest.mark.parametrize("rows", [(5, 15), (3, 8, 13)], ids=["r=2", "r=3"])
    def test_zero_rows(self, rows):
        for seed in range(4):
            H = zero_rows(random_instance(20 + seed, seed, "diagonally-dominant"), rows)
            assert_equals_oracle(H, seed)
            assert residues.solve(H, [])[1] == rows

    def test_rational_entries(self):
        for seed in range(6):
            H = zero_rows(random_instance(12 + seed, seed, "diagonally-dominant"), (1, 7))
            H = rational_entries(H, seed)
            assert set(row_scaled(H)[0]) != {1}
            assert_equals_oracle(H, seed)
            assert residues.solve(H, [])[1] == (1, 7)

    def test_point_with_a_zero_pivot_is_skipped(self, monkeypatch):
        sweeps = count_calls(monkeypatch, residues, "_eliminate")
        H = point_skip_matrix()
        assert residues.solve(H, []) == (dense_det(to_dense(H)), (1,), [])
        # s = 0 stops at pivot 1, s = 1 at pivot 2, and s = 2, 3 run through
        assert len(sweeps) == 3
        assert_equals_oracle(H)

    def test_zero_row_override_count_is_the_symbolic_one(self):
        # row 10 is zero, so a bound read off the product of the row norms
        # alone would be 0 and leave one prime; pivot 6 is a nonzero multiple
        # of the prime of lane 0, and must not be taken for a structural zero
        H = random_instance(24, 2, "diagonally-dominant")
        H = with_bands(H, **{name: [0 if k == 9 else v for k, v in enumerate(H.band(name))]
                             for name in BAND_NAMES})
        assert residues.solve(H, []) == (0, (10,), None) and factorize(H).overrides == (10,)
        H = with_pivot_multiple(H, 6, LANE_0_PRIME)
        pivot = factorize(H).alpha[6]
        assert pivot != 0 and pivot.numerator % LANE_0_PRIME == 0
        with on_the_lane() as sweeps:
            assert residues.solve(H, []) == (0, (10,), None)
            det = determinant(H)
        assert det.singular and det.value == 0 == dense_det(to_dense(H))
        assert det.pivot_overrides == len(factorize(H).overrides) == 1
        # s = 0 with lane 0, s = 0 without it, then s = 1, 2 without it
        assert [LANE_0_PRIME in primes for primes in sweeps] == [True, False, False] * 2


def with_pivot_multiple(H, i, q):
    """H with d_i moved so that pivot i is a nonzero multiple of q (the
    pivots before i do not read d_i)."""
    rest = H.band("d")[i - 1] - factorize(H).alpha[i]  # pivot i is d_i - rest
    d_i = rest.numerator * pow(rest.denominator, -1, q) % q
    return with_bands(H, d=[d_i if k == i - 1 else v for k, v in enumerate(H.band("d"))])


def lane_primes(K):
    return residues._PRIMES.take(K).tolist()


class TestDroppedPrimes:
    """A prime that divides a nonzero pivot is dropped, and the sweep runs
    again without it: every result is the oracle's, from the lanes."""

    def test_first_pivot_divisible_by_one_lane_prime(self):
        H = random_instance(12, 1, "diagonally-dominant")
        H = with_bands(H, d=[LANE_0_PRIME, *H.band("d")[1:]])
        assert lane_primes(1) == [LANE_0_PRIME]  # lane 0 of every sweep
        sweeps = assert_equals_oracle(H)
        assert [LANE_0_PRIME in primes for primes in sweeps] == [True, False]

    def test_later_pivot_divisible_by_one_lane_prime(self):
        H = with_pivot_multiple(random_instance(12, 2, "diagonally-dominant"), 6, LANE_0_PRIME)
        pivot = factorize(H).alpha[6]
        assert [p for p in lane_primes(64) if pivot.numerator % p == 0] == [LANE_0_PRIME]
        sweeps = assert_equals_oracle(H)
        assert [LANE_0_PRIME in primes for primes in sweeps] == [True, False]
        # the prime after the last one of the first sweep takes its place
        assert sweeps[1] == set(lane_primes(len(sweeps[0]) + 1)) - {LANE_0_PRIME}

    def test_pivot_divisible_by_the_two_largest_lane_primes(self):
        p0, p1 = lane_primes(2)
        H = random_instance(12, 3, "diagonally-dominant")
        H = with_bands(H, d=[p0 * p1, *H.band("d")[1:]])
        sweeps = assert_equals_oracle(H)
        assert len(sweeps) == 2 and {p0, p1} <= sweeps[0]
        assert not {p0, p1} & sweeps[1]
        assert assert_inverse_equals_oracle(H) == sweeps

    def test_with_zero_pivots(self):
        # d_1 = 2^30 - 35 and rows 5 and 15 zero: lane 0 is dropped at s = 0,
        # then pivots 5 and 15 join G one after the other
        H = random_instance(20, 1, "diagonally-dominant")
        H = zero_rows(with_bands(H, d=[LANE_0_PRIME, *H.band("d")[1:]]), (5, 15))
        sweeps = assert_equals_oracle(H)
        assert residues.solve(H, [])[1] == (5, 15)
        assert [LANE_0_PRIME in primes for primes in sweeps] == [True, False, False, False]
        assert assert_inverse_equals_oracle(H) == sweeps

    def test_zero_c_inverse(self):
        H = with_pivot_multiple(random_instance(16, 2, "zero-C"), 6, LANE_0_PRIME)
        assert invert(H).c_substitutions
        sweeps = assert_inverse_equals_oracle(H)
        assert [LANE_0_PRIME in primes for primes in sweeps] == [True, False]
        assert_equals_oracle(H)

    def test_counting_scalars_are_refused(self):
        # refused when the matrix is built, before any op can run
        counter = OpCounter()
        H = random_instance(10, 0, "diagonally-dominant")
        bands = [[CountingScalar(float(v), counter) for v in H.band(name)] for name in BAND_NAMES]
        with pytest.raises(TypeError, match="CountingScalar"):
            CyclicHeptaMatrix(10, *bands)
        assert counter.count == 0

    def test_rational_function_entries_are_refused(self):
        H = random_instance(10, 0, "diagonally-dominant")
        with pytest.raises(TypeError, match="RatFun"):
            with_bands(H, a=[T + 1, *H.band("a")[1:]])
        rhs = [Fr(1)] * 10
        with pytest.raises(TypeError, match="RatFun"):
            solve_many(H, [[T, *rhs[1:]]])


class TestOneSweep:
    def test_plain_det_and_solve(self, monkeypatch):
        sweeps = count_calls(monkeypatch, residues, "_eliminate")
        factorizations = count_calls(monkeypatch, factor, "factorize")
        H = random_instance(64, 1, "diagonally-dominant")
        determinant(H)
        assert len(sweeps) == 1
        solve_many(H, rhs_columns(64, 1))
        assert len(sweeps) == 2 and factorizations == []

    def test_zero_pivot_det_and_solve(self, monkeypatch):
        # d_1 = 0: the elimination of H stops at pivot 1, and one over the
        # lanes of s = 1, 2 gives det H and the solutions; no Fraction sweep
        H = random_instance(64, 1, "diagonally-dominant")
        H = with_bands(H, d=[0, *H.band("d")[1:]])
        sweeps = count_calls(monkeypatch, residues, "_eliminate")
        factorizations = count_calls(monkeypatch, factor, "factorize")
        det = determinant(H)
        assert len(sweeps) == 2 and det.pivot_overrides == 1
        r1, r2 = rhs_columns(64, 1)
        (one,) = solve_many(H, [r1])
        assert len(sweeps) == 4
        two = solve_many(H, [r1, r2])
        assert len(sweeps) == 6 and factorizations == []
        assert det.value == one.det == dense_det(to_dense(H))
        assert H.mat_vec(list(one.x)) == r1 and two[0].x == one.x
        assert H.mat_vec(list(two[1].x)) == r2

    def test_without_malloc_trim(self, monkeypatch):
        # a C library without malloc_trim changes nothing but the memory kept
        H = random_instance(16, 3, "diagonally-dominant")
        expected = residues.solve(H, [])
        monkeypatch.setattr(residues, "_malloc_trim", lambda: None)
        assert residues.solve(H, []) == expected == (dense_det(to_dense(H)), (), [])

    def test_malloc_trim_only_after_a_completed_lane(self, monkeypatch):
        trims = []
        monkeypatch.setattr(residues, "_malloc_trim", lambda: trims.append)
        H = random_instance(320, 1, "diagonally-dominant")
        rhs = rhs_columns(320, 1)[:1]
        residues.solve(H, rhs)
        assert trims == [0]
        # pivot 1 zero in lane 0: the sweep that stops there does not trim,
        # the one that follows without that prime does, once
        with on_the_lane() as sweeps:
            residues.solve(with_bands(H, d=[LANE_0_PRIME, *H.band("d")[1:]]), rhs)
        assert len(sweeps) == 2 and trims == [0, 0]

    def test_a_det_keeps_no_rows_to_trim(self, monkeypatch):
        # a determinant holds the sweep's window of rows, not its nine
        # vectors, so at this size it hands nothing back
        trims = []
        monkeypatch.setattr(residues, "_malloc_trim", lambda: trims.append)
        H = random_instance(320, 1, "diagonally-dominant")
        residues.solve(H, [])
        residues.solve(with_bands(H, d=[LANE_0_PRIME, *H.band("d")[1:]]), [])
        assert trims == []

    def test_a_det_never_trims(self, monkeypatch):
        # entries of 10^200 take 1,429 lanes, where a count of the sweep's
        # eight rows would pass the trim threshold; a det keeps no factor row
        trims = []
        monkeypatch.setattr(residues, "_malloc_trim", lambda: trims.append)
        H = random_instance(64, 1, "diagonally-dominant")
        H = with_bands(H, **{name: [v * 10**200 for v in H.band(name)] for name in BAND_NAMES})
        with on_the_lane() as sweeps:
            det, _, _ = residues.solve(H, [])
        (primes,) = sweeps
        assert len(primes) == 1429 and trims == []
        assert det == dense_det(to_dense(H))

    def test_det_memory_is_linear_in_lanes(self):
        # a det keeps the running pivot product and the sweep's window of
        # rows, not its nine vectors: with the vectors kept whole the
        # tracemalloc peaks read 6,672 / 11,670 / 21,655 K * 8 bytes (4.6 /
        # 16.1 / 59.4 MB at K = 86 / 172 / 343), growing with n; streamed,
        # they stay near 500
        determinant(random_instance(64, 1, "diagonally-dominant"))  # sieve the prime table
        for n in (500, 1000, 2000):
            H = random_instance(n, 1, "diagonally-dominant")
            with on_the_lane() as sweeps:
                tracemalloc.start()
                try:
                    determinant(H)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            (primes,) = sweeps
            assert peak < 1000 * 8 * len(primes), n

    @pytest.mark.parametrize("n, trimmed", [(64, False), (128, False), (256, True)])
    def test_malloc_trim_only_after_a_large_call(self, n, trimmed, monkeypatch):
        # the pages of a small call are reused at once by what runs next, and
        # a trim would only make it fault them in again
        trims = []
        monkeypatch.setattr(residues, "_malloc_trim", lambda: trims.append)
        H = random_instance(n, 1, "diagonally-dominant")
        H = with_bands(H, d=[0, *H.band("d")[1:]])
        assert residues.solve(H, rhs_columns(n, 1)[:1])[1] == (1,)
        assert trims == ([0] if trimmed else [])

    def test_field_ops_still_count_the_generic_sweep(self):
        orders = (8, 9, 12, 64, 200, 257, 1000, 2000)
        counts = [count_det_ops(random_instance(n, 1, "diagonally-dominant")) for n in orders]
        assert counts == [60 * n - 226 for n in orders]

    @pytest.mark.parametrize("rows", [(1,), (5, 15)])
    def test_field_ops_refuse_a_zero_pivot(self, rows):
        H = zero_rows(random_instance(20, 1, "diagonally-dominant"), rows)
        with pytest.raises(ValueError, match=f"pivot {rows[0]} is zero"):
            count_det_ops(H)


def invert_or_none(H):
    try:
        return invert(H)
    except SingularMatrixError:
        return None


def assert_inverse_equals_oracle(H):
    """invert(H) equals the dense oracle, reports the overrides of the
    symbolic sweep and the zero C_j, and sweeps over residue lanes only; a
    singular H is refused by both.  Returns the lane primes of each sweep,
    a set per sweep."""
    with on_the_lane() as sweeps:
        res = invert_or_none(H)
    dense = to_dense(H)
    if dense_det(dense) == 0:
        assert res is None
    else:
        assert res.S == dense_inverse(dense)
        assert res.pivot_overrides == factorize(H).overrides
        C = H.band("C")
        assert res.c_substitutions == tuple(j for j in range(1, H.n - 4) if C[j - 1] == 0)
    return sweeps


class TestInverse:
    """The inverse's seed and zero-C columns over residue lanes, as columns
    of adj H'."""

    def test_acceptance_and_collision_corpora(self):
        # zero pivots, zero C_j and singular draws run on the lane too
        for H in acceptance_corpora():
            assert_inverse_equals_oracle(H)

    def test_rational_entries(self):
        for seed in range(12):
            H = random_instance(8 + seed % 9, seed, ("zero-C", "zero-pivot-prone")[seed % 2])
            H = rational_entries(H, seed)
            assert set(row_scaled(H)[0]) != {1}
            assert_inverse_equals_oracle(H)

    def test_entries_beyond_int64(self):
        big = 10**600
        for seed in (0, 1):
            H = random_instance(8 + 2 * seed, seed, "zero-C")
            H = with_bands(H, d=[v * big for v in H.band("d")],
                           a=[v * big if k % 2 else v for k, v in enumerate(H.band("a"))])
            assert_inverse_equals_oracle(H)

    @pytest.mark.parametrize("rows", [(5, 15), (3, 8, 13)], ids=["r=2", "r=3"])
    def test_zero_rows(self, rows):
        for seed in range(3):
            H = zero_rows(random_instance(20 + seed, seed, "diagonally-dominant"), rows)
            assert_inverse_equals_oracle(H)
            assert invert(H).pivot_overrides == rows

    @pytest.mark.parametrize("pivot", [1, 6])
    def test_prime_dividing_a_nonzero_pivot_is_dropped(self, pivot):
        # the instances of TestDroppedPrimes: pivot 1 or 6 is a nonzero
        # multiple of 2^30 - 35, the prime of lane 0
        if pivot == 1:
            H = random_instance(12, 1, "diagonally-dominant")
            H = with_bands(H, d=[LANE_0_PRIME, *H.band("d")[1:]])
        else:
            H = with_pivot_multiple(random_instance(12, 2, "diagonally-dominant"), 6, LANE_0_PRIME)
        assert factorize(H).alpha[pivot].numerator % LANE_0_PRIME == 0
        sweeps = assert_inverse_equals_oracle(H)
        assert [LANE_0_PRIME in primes for primes in sweeps] == [True, False]

    def test_one_sweep(self, monkeypatch):
        H = random_instance(64, 1, "diagonally-dominant")
        sweeps = count_calls(monkeypatch, residues, "_eliminate")
        factorizations = count_calls(monkeypatch, factor, "factorize")
        res = invert(H)
        assert res.c_substitutions and res.pivot_overrides == ()
        assert len(sweeps) == 1
        # d_1 = 0: the elimination of H stops at pivot 1, and one over the
        # lanes of s = 1, 2 gives every column
        res = invert(with_bands(H, d=[0, *H.band("d")[1:]]))
        assert res.pivot_overrides == (1,)
        assert len(sweeps) == 3 and factorizations == []

    @pytest.mark.parametrize("n, profile, trimmed", [
        (64, "diagonally-dominant", False),
        # below the trim size without its 17 substituted columns
        (128, "zero-C", True),
        (256, "zero-C", True),
    ])
    def test_malloc_trim_counts_the_columns(self, n, profile, trimmed, monkeypatch):
        trims = []
        monkeypatch.setattr(residues, "_malloc_trim", lambda: trims.append)
        assert invert(random_instance(n, 1, profile)).c_substitutions
        assert trims == ([0] if trimmed else [])


class TestCRT:
    @staticmethod
    def residues_of(values, p):
        return np.array([[v % q for v in values] for q in p.tolist()], dtype=np.int64)

    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("K", [1, 2, 50])
    def test_symmetric_range(self, K, m):
        """The ints in (-M/2, M/2] come back, the ends of the range included."""
        p = residues._PRIMES.take(K)
        M = prod(p.tolist())
        rng = random.Random(100 * K + m)
        values = [0, 1, -1, M // 2, -((M - 1) // 2)]
        values += [rng.randrange(-((M - 1) // 2), M // 2 + 1) for _ in range(3 * m)]
        values += [0] * (-len(values) % m)
        for start in range(0, len(values), m):
            chunk = values[start:start + m]
            assert residues._crt(self.residues_of(chunk, p), p) == chunk

    @staticmethod
    def one_digit_garner(column, primes):
        """Garner's mixed-radix digits over Python ints, recombined one digit
        a Horner step, in the symmetric range."""
        digits, M = [], prod(primes)
        for k, q in enumerate(primes):
            value, radix = 0, 1
            for d, r in zip(digits, primes):
                value, radix = value + d * radix, radix * r
            digits.append((column[k] - value) * pow(radix, -1, q) % q)
        x = 0
        for d, q in zip(reversed(digits), reversed(primes)):
            x = x * q + d
        return x - M if 2 * x > M else x

    @pytest.mark.parametrize("K, m", [
        *((K, m) for K in (1, 2, 3, 4, 17, 50, 51, 56, 89, 107) for m in (1, 2, 56, 641)),
        # past 128 primes a limb sum of the unsplit lanes can pass 2**53
        (129, 2), (343, 2), (683, 7),
    ])
    def test_equals_garner(self, K, m):
        """The sum gives what Garner's digits give, at the (K, m) shapes the
        lane makes, the ends +-M/2 and their neighbours in every call, and
        from 129 primes on the values that make the largest limb sums."""
        p = residues._PRIMES.take(K)
        primes = p.tolist()
        M = prod(primes)
        rng = random.Random(1000 * K + m)
        ends = [0, 1, -1, M // 2, -((M - 1) // 2), M // 2 - 1, -((M - 1) // 2) + 1]
        if K > 128:
            ends += self.largest_sums(primes)
        for start in range(0, len(ends), m):
            values = ends[start:start + m]
            values += [rng.randrange(-((M - 1) // 2), M // 2 + 1) for _ in range(m - len(values))]
            U = self.residues_of(values, p)
            expected = [self.one_digit_garner(column, primes) for column in U.T.tolist()]
            assert expected == values
            assert residues._crt(U, p) == expected

    @staticmethod
    def largest_sums(primes):
        """Values in (-M/2, M/2] that make the CRT's limb sums largest: every
        weighted lane (U[k] w_k mod p_k) at p_k - 2, odd, so that a sum past
        2**53 would round, and every limb 0xFFFF (2**(16 j) - 1 for the
        largest such j, and its negative)."""
        M = prod(primes)
        heavy = sum((q - 2) * (M // q) for q in primes) % M
        ones = (1 << 16 * ((M.bit_length() - 2) // 16)) - 1
        return [v - M if 2 * v > M else v for v in (heavy, ones, M - ones)]

    @pytest.mark.parametrize("K", [50, 343])
    def test_groups_of_primes(self, K, monkeypatch):
        """Past ``_GROUP`` primes, each group's limb sums become ints that
        are added up before the one reduction mod M."""
        monkeypatch.setattr(residues, "_GROUP", 7)
        p = residues._PRIMES.take(K)
        primes = p.tolist()
        M = prod(primes)
        rng = random.Random(K)
        values = [0, -1, M // 2, -((M - 1) // 2), *self.largest_sums(primes)]
        values += [rng.randrange(-((M - 1) // 2), M // 2 + 1) for _ in range(5)]
        assert residues._crt(self.residues_of(values, p), p) == values

    @pytest.mark.parametrize("L", [2, 3, 40, 1000])
    def test_limbs_that_carry_through(self, L):
        """Limb sums become ints whatever their carries: every limb 0xFFFF
        with a carry into the lowest, which runs through all of them, and
        every limb sum at 2**63 - 1, the largest the CRT makes."""
        top = 2**63 - 1
        rows = [
            [1 << 16, *[0xFFFF] * (L - 2), 0],
            [0xFFFF] * (L - 1) + [0],
            [top] * max(0, L - 4) + [0] * min(L, 4),
            [0] * L,
        ]
        # each limb sum as low + (high << 15), with low and high below 2**53
        acc = np.array([[v & 0x7FFF for v in row] for row in rows]
                       + [[v >> 15 for v in row] for row in rows], dtype=np.float64)
        expected = [sum(v << 16 * j for j, v in enumerate(row)) for row in rows]
        assert all(x < 2**(16 * L) for x in expected)
        assert residues._limb_ints(acc) == expected

    def test_memory_linear_in_primes(self):
        # the K coefficients (M/p_k) ((M/p_k)^-1 mod p_k), held at once,
        # would take some 15 MB here
        K = 2000
        p = residues._PRIMES.take(K)
        value = -(prod(p.tolist()) // 3)
        U = self.residues_of([value], p)
        tracemalloc.start()
        try:
            got = residues._crt(U, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [value]
        assert peak < 2 * 2**20


class TestChoosePrimes:
    @staticmethod
    def assert_first_primes_past(floor, dropped):
        chosen = residues._choose_primes(floor, dropped).tolist()
        table = [q for q in residues._PRIMES.take(len(chosen) + len(dropped)).tolist()
                 if q not in dropped]
        assert chosen == table[:len(chosen)]
        assert prod(chosen) > floor >= prod(chosen[:-1])

    def test_every_bit_length(self):
        # the product, not a count of primes from the floor's bit length,
        # decides: each prime is below 2**30, so bit_length // 30 + 1 primes
        # can fall short
        for bits in range(1, 4001):
            for floor in (1 << (bits - 1), (1 << bits) - 1):
                self.assert_first_primes_past(floor, set())

    def test_a_floor_past_bit_length_over_30_primes(self):
        # the first 8,467 primes multiply to below 2**254009 - 1, a floor of
        # 254,009 bits: bit_length // 30 + 1 primes would fall short of it
        floor = (1 << 254009) - 1
        assert prod(residues._PRIMES.take(254009 // 30 + 1).tolist()) <= floor
        self.assert_first_primes_past(floor, set())
        self.assert_first_primes_past(floor, set(residues._PRIMES.take(100).tolist()[::2]))

    def test_every_bit_length_with_dropped_primes(self):
        table = residues._PRIMES.take(200).tolist()
        dropped = set(table[::3]) | {table[1]}
        for bits in range(1, 4001):
            for floor in (1 << (bits - 1), (1 << bits) - 1):
                self.assert_first_primes_past(floor, dropped)


class TestPrimeTable:
    def test_largest_primes_below_2_30_descending(self):
        p = residues._PRIMES.take(300).tolist()
        assert p[0] == LANE_0_PRIME and p == sorted(set(p), reverse=True)
        for q in p[:20] + p[-20:]:
            assert all(q % f for f in range(2, int(q**0.5) + 1))
        # no prime above the first below 2**30, and none skipped between the first two
        assert all(any(m % f == 0 for f in range(2, 50000))
                   for m in [*range(p[1] + 1, p[0]), *range(p[0] + 1, 2**30)])

    def test_not_built_at_import(self):
        code = "import heptacyclic.residues as r; print(len(r._PRIMES.found))"
        src = str(Path(residues.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "0"


def reference_lanes(H, columns):
    """(det H', det H' * x for each column, column after column) with
    H' = diag(L) H, as Python ints from the dense oracle: what the lanes
    hold mod each prime.  The second is None when H is singular."""
    scales, _, _ = row_scaled(H, columns)
    dense = to_dense(H)
    det = dense_det(dense) * prod(scales)
    assert det.denominator == 1
    if det == 0:
        return 0, None
    S = dense_inverse(dense)
    values = [det * v for r in columns for v in times(S, r)]
    assert all(v.denominator == 1 for v in values)
    return int(det), [int(v) for v in values]


def assert_lanes(H, columns):
    """The lanes ``residues._solve`` takes to the CRT, det H' and det H' * x
    at s = 0 mod each prime, equal the reference; returns the overrides."""
    scales, bands, rhs = row_scaled(H, columns)
    U, primes, overrides, _ = residues._solve(scales, bands, rhs)
    det, values = reference_lanes(H, columns)
    q = primes.tolist()
    assert U.shape == (1 + len(columns) * H.n, len(q))
    assert U[0].tolist() == [det % r for r in q]
    if values is not None:
        assert U[1:].tolist() == [[v % r for r in q] for v in values]
    return overrides


def int_columns(n, m, seed, start=1):
    rng = random.Random(seed)
    return [[0] * (start - 1) + [rng.randint(-9, 9) for _ in range(n - start + 1)]
            for _ in range(m)]


class TestOverflowBound:
    """Each step takes u * row - row[j] * pivot row, two products of reduced
    lanes below 2**60, and reduces once: the lanes of det H' and of
    det H' * x equal Python ints mod each prime, through the window, the
    last eight rows, both border rows and the right-hand sides."""

    def test_profiles_and_collision_corpus(self):
        for k, H in enumerate(acceptance_corpora()):
            assert_lanes(H, int_columns(H.n, 2, k))

    @pytest.mark.parametrize("n", [8, 9, 10])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_orders_without_a_window_step(self, n, m):
        # n = 8 is the last eight rows alone, n = 9 one window step, n = 10 two
        for seed in range(6):
            for profile in ALL_PROFILES:
                assert_lanes(random_instance(n, seed, profile), int_columns(n, m, seed))

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 16, 24, 40])
    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    def test_entries_at_p_minus_one_and_two(self, n, m):
        # -1 and -2 sit at p-1 and p-2 in every lane, so the first products
        # of each row are as large as reduced lanes make them
        for seed in range(3):
            rng = random.Random(seed)
            H = random_instance(n, seed, "general")
            H = with_bands(H, **{name: [rng.choice((-1, -2)) if v != 0 or name not in "DC" else 0
                                        for v in H.band(name)] for name in BAND_NAMES})
            columns = [[rng.choice((-1, -2)) for _ in range(n)] for _ in range(m)]
            assert_lanes(H, columns)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_start_near_n(self, m):
        # the right-hand sides join the window, or the last eight rows, from
        # their first nonzero row; the border rows' are scaled until then
        for n in (12, 20):
            H = random_instance(n, 3, "diagonally-dominant")
            for start in (1, 2, 5, n - 6, n - 5, n - 4, n - 3, n - 2, n - 1, n):
                columns = int_columns(n, m, start, start)
                columns[0][start - 1] = 7
                assert_lanes(H, columns)

    def test_zero_pivots_at_every_kind_of_row(self):
        # a pivot zeroed in the first window, in a later window row, in the
        # last eight rows and at both border rows
        for i in (1, 6, 12, 15, 16):
            H = pivot_zeroed(rational_entries(random_instance(16, 1, "diagonally-dominant"), 1), i)
            assert assert_lanes(H, int_columns(16, 2, i)) == (i,)


def pivot_zeroed(H, i):
    """H with d_i moved so that pivot i, and no pivot before it, is zero."""
    alpha = factorize(H).alpha[i]
    return with_bands(H, d=[v - alpha if k == i - 1 else v for k, v in enumerate(H.band("d"))])


class TestOneInverse:
    """Each elimination that completes takes one ``_inverse_lanes``, of S =
    prod U'_jj^c_j, whatever its order, columns and points; one that stops
    at a zero pivot takes none."""

    @pytest.mark.parametrize("case", ["plain", "points", "dropped"])
    @pytest.mark.parametrize("run", ["det", "solve", "seeds"])
    def test_one_per_completed_elimination(self, case, run, monkeypatch):
        H = random_instance(40, 1, "diagonally-dominant")
        if case != "plain":
            # d_1 = 0 puts pivot 1 into G; d_1 = 2^30 - 35 drops lane 0's prime
            H = with_bands(H, d=[0 if case == "points" else LANE_0_PRIME, *H.band("d")[1:]])
        calls = {"det": lambda: determinant(H), "solve": lambda: solve_many(H, rhs_columns(40, 1)),
                 "seeds": lambda: seed_columns(H)}
        inverses = count_calls(monkeypatch, residues, "_inverse_lanes")
        with on_the_lane() as started, eliminations() as done:
            calls[run]()
        assert len(started) == (1 if case == "plain" else 2)
        assert len(done) == len(inverses) == 1

    @pytest.mark.parametrize("n", [8, 9, 10, 64])
    def test_every_order(self, n, monkeypatch):
        inverses = count_calls(monkeypatch, residues, "_inverse_lanes")
        H = random_instance(n, 1, "diagonally-dominant")
        determinant(H)
        solve_many(H, rhs_columns(n, 1))
        invert(H)
        assert len(inverses) == 3


SMALL_PRIMES = [q for q in range(2, 400) if all(q % d for d in range(2, isqrt(q) + 1))]


class TestInverseLanes:
    """``_inverse_lanes`` equals pow(v, -1, p) in every lane, for the
    primes an elimination holds: the table's, tiled over points, less
    dropped ones, and primes of any size below 2**30."""

    @staticmethod
    def assert_inverse(p, seed=0):
        p = np.array(p, dtype=np.int64)
        rng = random.Random(seed)
        v = [rng.randrange(1, q) for q in p.tolist()]
        # 1 and p - 1 in some lanes
        v[0], v[len(v) // 2], v[-1] = 1, int(p[len(v) // 2]) - 1, int(p[-1]) - 1
        v = np.array(v, dtype=np.int64)
        inverse = residues._inverse_lanes(v, p)
        assert inverse.dtype == np.int64
        assert inverse.tolist() == [pow(a, -1, q) for a, q in zip(v.tolist(), p.tolist())]

    @pytest.mark.parametrize("K", [1, 12, 89, 343])
    def test_table_primes(self, K):
        for seed in range(3):
            self.assert_inverse(residues._PRIMES.take(K), seed)

    @pytest.mark.parametrize("points", [2, 3, 5])
    def test_tiled_points(self, points):
        # lane k * K + j is point k modulo prime j: the primes repeat
        self.assert_inverse(np.tile(residues._PRIMES.take(45), points), seed=points)

    def test_dropped_primes(self):
        table = lane_primes(120)
        for dropped in ({table[0]}, {table[1], table[40], table[89]}, set(table[:30])):
            p = residues._choose_primes(prod(table[:100]), dropped)
            assert not dropped & set(p.tolist())
            self.assert_inverse(p)

    def test_primes_of_any_size(self):
        for p in (SMALL_PRIMES, SMALL_PRIMES + lane_primes(20), [2, 3, LANE_0_PRIME]):
            self.assert_inverse(p)


class TestLanes:
    """``_lanes`` is x mod each prime, lanes last, for an int, a list of
    ints and a list of rows, at the edges of int64 and far past them."""

    EDGES = [-(2**63) - 1, -(2**63), 0, 2**63 - 1, 2**63]
    BIG = -(2**9999) - 12345  # 10,000 bits
    ONES = 2**65536 - 1  # 4,096 limbs of 0xFFFF

    @staticmethod
    def expected(x, p):
        if isinstance(x, int):
            return [x % q for q in p.tolist()]
        return [TestLanes.expected(v, p) for v in x]

    @pytest.mark.parametrize("x", [
        *EDGES, BIG, EDGES[1:4], [*EDGES, BIG],
        [EDGES[1:4], EDGES[3:0:-1]], [EDGES[:3], [EDGES[3], EDGES[4], BIG]],
    ], ids=["-2^63-1", "-2^63", "0", "2^63-1", "2^63", "10000-bit", "list", "list-beyond",
            "rows", "rows-beyond"])
    def test_x_mod_each_prime(self, x):
        p = residues._PRIMES.take(67)
        lanes = residues._lanes(x, p)
        assert lanes.dtype == np.int64 and lanes.tolist() == self.expected(x, p)

    @pytest.mark.parametrize("K", [67, 700])
    def test_limb_product(self, K):
        """The limb product is x % q in every lane, inside int64 as well as
        past it, at one chunk of primes and at several."""
        p = residues._PRIMES.take(K)
        xs = [0, 2**63 - 1, 2**63, -(2**63) - 1, self.BIG, -1, 2**16, -(2**64 - 1), self.ONES]
        lanes = residues._wide_lanes(xs, p)
        assert lanes.dtype == np.int64 and lanes.tolist() == self.expected(xs, p)

    def test_bands_convert_their_wide_entries_once(self, monkeypatch):
        """Every entry beyond int64, in the bands and the right-hand sides,
        is converted by one limb product when the elimination is set up,
        and a row read converts none."""
        calls = []
        wide_lanes = residues._wide_lanes

        def counted(xs, p):
            calls.append(len(xs))
            return wide_lanes(xs, p)

        monkeypatch.setattr(residues, "_wide_lanes", counted)
        H = random_instance(40, 2, "diagonally-dominant")
        big = 10**30
        H = with_bands(H, a=[v * big for v in H.band("a")], C=[v * big for v in H.band("C")])
        rhs = [[big * (i % 3) - i for i in range(H.n)], list(range(H.n))]
        det, _, x = residues.solve(H, rhs)
        assert det == dense_det(to_dense(H))
        wide = sum(abs(v) >= 2**63 for band in ("a", "C") for v in H.band(band)) + 2 * H.n // 3
        assert calls == [wide]


class TestOverrideShift:
    """The lanes of point s eliminate H'(s) = H' + s diag(L) G: d'_i gains
    the lanes of s L_i as row i is read, for i in G in the first window, in
    a later window row, in the last eight rows and at a border row."""

    @staticmethod
    def point_lanes(H, columns, rows, s):
        """(det H'(s), det H'(s) * x(s), column after column) as ints."""
        scales, bands, rhs = row_scaled(H, columns)
        d = [v + s * L if i in rows else v
             for i, (v, L) in enumerate(zip(bands[3], scales), start=1)]
        dense = to_dense(CyclicHeptaMatrix(H.n, *bands[:3], d, *bands[4:]))
        det, S = dense_det(dense), dense_inverse(dense)
        return int(det), [int(det * v) for r in rhs for v in times(S, r)]

    @pytest.mark.parametrize("rows", [(1, 5, 9), (6,), (12,), (15,), (16,)])
    def test_lanes_are_those_of_each_point(self, rows):
        H = random_instance(16, 1, "diagonally-dominant")
        if len(rows) > 1:
            H = rational_entries(zero_rows(H, rows), 1)
        else:
            H = pivot_zeroed(rational_entries(H, 1), rows[0])
        scales, _, _ = row_scaled(H)
        assert len(set(scales)) > 1
        columns = rhs_columns(16, 1)
        with eliminations() as calls:
            overrides = residues.solve(H, columns)[1]
        assert overrides == rows
        ((band, _, _, shifts, det, Y),) = calls
        assert sorted(shifts) == list(rows)
        K = len(band.p) // (len(rows) + 1)
        for k, s in enumerate(range(1, len(rows) + 2)):
            primes = band.p[k * K:(k + 1) * K].tolist()
            ref_det, ref = self.point_lanes(H, columns, rows, s)
            assert det[k * K:(k + 1) * K].tolist() == [ref_det % q for q in primes], s
            got = np.moveaxis(Y[:, :, k * K:(k + 1) * K], 1, 0).reshape(-1, K)
            assert got.tolist() == [[v % q for q in primes] for v in ref], s


class TestWideEntries:
    """An entry beyond int64 is converted once per elimination, into the one
    table that every read of it takes its lanes from, so the elimination
    holds its lanes once."""

    def test_reads_are_rows_of_the_table(self):
        H = random_instance(12, 2, "diagonally-dominant")
        big = 10**30
        H = with_bands(H, a=[v * big for v in H.band("a")], C=[v * big for v in H.band("C")])
        columns = [[big * (i % 3) - i for i in range(12)], list(range(12))]
        scales, bands, rhs = row_scaled(H, columns)
        p = residues._PRIMES.take(20)
        band, rows = residues._readers(bands, rhs)(p)
        assert band.table is rows.table and len(band.wide) > 1 and len(rows.wide) == 8
        for reader, value in ((band, lambda i, c: bands[(c - i + 2) % 7][i]),
                              (rows, lambda i, c: rhs[c][i])):
            for i, entries in reader.wide.items():
                out = np.zeros_like(reader.ints[i, :, None] * p)
                reader.read(out, i)
                for c, _ in entries:
                    lanes = reader.entry(i, c)
                    assert np.shares_memory(lanes, reader.table)
                    assert abs(value(i, c)) >= 2**63
                    assert lanes.tolist() == out[c].tolist() == [value(i, c) % q for q in p.tolist()]

    def test_big_entry_det_holds_its_lanes_once(self, monkeypatch):
        # n = 8, every nonzero entry of 3,000 digits: the elimination holds
        # the table's lanes and the last eight rows, 8 x 8 lane vectors;
        # each read's copy of the table, held as blocks were, took the
        # tracemalloc peak from 149 to 197 vectors of K lanes
        H = random_instance(8, 1, "diagonally-dominant")
        rng = random.Random(3000)
        H = with_bands(H, **{name: [v if v == 0 else rng.choice((-1, 1)) * rng.randrange(10**2999, 10**3000)
                                    for v in H.band(name)] for name in BAND_NAMES})
        expected = determinant(H).value
        sizes = []
        wide_lanes = residues._wide_lanes

        def counted(xs, p):
            sizes.append((len(xs), len(p)))
            return wide_lanes(xs, p)

        monkeypatch.setattr(residues, "_wide_lanes", counted)
        tracemalloc.start()
        try:
            assert determinant(H).value == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ((wide, K),) = sizes
        assert wide == 48 and K > 2000
        assert peak < (wide + 64 + 48) * 8 * K
