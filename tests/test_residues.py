"""The exact lane over word-size primes: residue arithmetic, the prime table,
and det and solve through one residue sweep, equal to the dense oracle."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as Fr
from functools import reduce
from math import isqrt, prod
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptacyclic import factor, kernels, residues
from heptacyclic.bench import CountingScalar, OpCounter, count_det_ops
from heptacyclic.errors import SingularMatrixError
from heptacyclic.factor import determinant, factorize
from heptacyclic.inverse import invert
from heptacyclic.matrix import BAND_NAMES, CyclicHeptaMatrix, random_instance, row_scaled, to_dense
from heptacyclic.oracle import dense_det, dense_inverse
from heptacyclic.residues import Residues
from heptacyclic.scalars import T
from heptacyclic.solve import solve_many

from test_inverse import (ALL_PROFILES, acceptance_corpora, collision_matrix, count_calls,
                          on_the_lane, point_skip_matrix, rational_entries, residue_factors,
                          substitutions, zero_rows)

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

    def test_lanes_past_the_fermat_switch(self):
        # entries near 10**100 take some 90 primes at these orders, so every
        # pivot inverse is Fermat's power, at one point or tiled over several
        instances = [random_instance(8 + seed, seed, profile)
                     for seed in range(3) for profile in ALL_PROFILES]
        instances += [collision_matrix(seed) for seed in range(2)]
        big = 10**100
        for k, H in enumerate(instances):
            H = with_bands(H, **{name: [v * big for v in H.band(name)] for name in BAND_NAMES})
            for primes in assert_equals_oracle(H, seed=k):
                assert len(primes) >= residues._FERMAT_LANES


def wide_rhs(n, seed):
    """Three rational columns whose denominators are distinct primes near
    2**32, so each row's lcm L_i and every entry of r' = L r pass int64."""
    rng = random.Random(seed)
    primes = [2**32 - 5, 2**32 - 17, 2**32 + 15]
    return [[Fr(rng.randint(1, 9), q) for _ in range(n)] for q in primes]


class TestSolveBlock:
    """``solve`` substitutes all its columns as one block, and gets the x
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
        substitutions = count_calls(monkeypatch, kernels, "substitute")
        det, overrides, x = residues.solve(H, columns)
        assert len(substitutions) == 1
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
        sweeps = count_calls(monkeypatch, kernels, "sweep")
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
        calls = {"sweep": 0, "factorize": 0}
        sweep, factorize_ = kernels.sweep, factor.factorize

        def counting_sweep(*args):
            calls["sweep"] += 1
            return sweep(*args)

        def counting_factorize(*args, **kwargs):
            calls["factorize"] += 1
            return factorize_(*args, **kwargs)

        monkeypatch.setattr(kernels, "sweep", counting_sweep)
        monkeypatch.setattr(factor, "factorize", counting_factorize)
        H = random_instance(64, 1, "diagonally-dominant")
        determinant(H)
        assert calls == {"sweep": 1, "factorize": 0}
        solve_many(H, rhs_columns(64, 1))
        assert calls == {"sweep": 2, "factorize": 0}

    def test_zero_pivot_det_and_solve(self, monkeypatch):
        # d_1 = 0: the sweep of H stops at pivot 1, and one sweep over the
        # lanes of s = 1, 2 gives det H and the solutions; no Fraction sweep
        H = random_instance(64, 1, "diagonally-dominant")
        H = with_bands(H, d=[0, *H.band("d")[1:]])
        sweeps = count_calls(monkeypatch, kernels, "sweep")
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
        sweeps = count_calls(monkeypatch, kernels, "sweep")
        factorizations = count_calls(monkeypatch, factor, "factorize")
        res = invert(H)
        assert res.c_substitutions and res.pivot_overrides == ()
        assert len(sweeps) == 1
        # d_1 = 0: the sweep of H stops at pivot 1, and one sweep over the
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


LANES = 6


def near_ends(p):
    """Ints spread over a lane's range, mostly at its ends (0, 1, p-2, p-1)
    and beyond it, negative and beyond int64."""
    return st.one_of(st.integers(0, 3), st.integers(p - 3, p - 1), st.integers(-p, p),
                     st.integers(-(2**70), 2**70))


@st.composite
def operands(draw):
    p = residues._PRIMES.take(LANES).tolist()
    return p, [draw(near_ends(q)) for q in p], [draw(near_ends(q)) for q in p]


def vector(values, p):
    return Residues(np.array([v % q for v, q in zip(values, p)], dtype=np.int64),
                    np.array(p, dtype=np.int64))


class TestResiduesArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(operands())
    def test_against_python_ints(self, case):
        p, a, b = case
        A, B = vector(a, p), vector(b, p)
        expect = {
            "+": [(x + y) % q for x, y, q in zip(a, b, p)],
            "-": [(x - y) % q for x, y, q in zip(a, b, p)],
            "*": [x * y % q for x, y, q in zip(a, b, p)],
            "neg": [-x % q for x, q in zip(a, p)],
        }
        assert (A + B).reduced().tolist() == expect["+"]
        assert (A - B).reduced().tolist() == expect["-"]
        assert (A * B).reduced().tolist() == expect["*"]
        assert (-A).reduced().tolist() == expect["neg"]
        if all(y % q for y, q in zip(b, p)):
            quotient = [x * pow(y, -1, q) % q for x, y, q in zip(a, b, p)]
            assert (A / B).reduced().tolist() == quotient
        else:
            with pytest.raises(ZeroDivisionError):
                A / B


def assert_bounded(value, reference, p):
    """The lanes of ``value`` are congruent to ``reference`` mod each prime,
    and its bound holds: |v| <= b < 2**63, b = 2**30 - 1 only when reduced."""
    v = value.v.tolist()
    assert [x % q for x, q in zip(v, p)] == [r % q for r, q in zip(reference, p)]
    assert max(map(abs, v)) <= value.b < 2**63
    if value.b == 2**30 - 1:
        assert all(0 <= x < q for x, q in zip(v, p))


OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}


@st.composite
def chains(draw):
    p = residues._PRIMES.take(LANES).tolist()
    worst = [st.sampled_from((0, 1, q - 1)) for q in p]
    starts = draw(st.lists(st.tuples(*worst), min_size=2, max_size=4))
    steps = draw(st.lists(st.tuples(st.sampled_from(("+", "-", "*", "/", "neg")),
                                    st.integers(0, 10**6), st.integers(0, 10**6)),
                          min_size=1, max_size=60))
    return p, starts, steps


class TestLazyLanes:
    """Values carry a bound and are reduced only when an operation could
    overflow int64."""

    @settings(max_examples=300, deadline=None)
    @given(chains())
    def test_chain_against_python_ints(self, case):
        p, starts, steps = case
        primes = np.array(p, dtype=np.int64)
        pool = [(Residues(np.array(lanes, dtype=np.int64), primes), list(lanes))
                for lanes in starts]
        for op, i, j in steps:
            (x, xs), (y, ys) = pool[i % len(pool)], pool[j % len(pool)]
            if op == "neg":
                result, ref = -x, [-a for a in xs]
            elif op == "/":
                if any(b % q == 0 for b, q in zip(ys, p)):
                    with pytest.raises(ZeroDivisionError):
                        x / y
                    continue
                result = x / y
                ref = [a * pow(b, -1, q) for a, b, q in zip(xs, ys, p)]
            else:
                result, ref = OPS[op](x, y), [OPS[op](a, b) for a, b in zip(xs, ys)]
            pool.append((result, ref))
            # an operand reduced in place must still hold its value and bound
            for value, reference in ((result, ref), (x, xs), (y, ys)):
                assert_bounded(value, reference, p)
        for value, reference in pool:
            assert_bounded(value, reference, p)
            assert value.reduced().tolist() == [r % q for r, q in zip(reference, p)]

    def test_ksum_of_64_largest_products(self):
        p = residues._PRIMES.take(LANES)
        top = Residues(p - 1, p)
        total = kernels._ksum([None, *[top] * 64], [None, *[top] * 64], 64)
        assert_bounded(total, [64] * LANES, p.tolist())
        assert top.b == 2**30 - 1 and np.array_equal(top.v, p - 1)

    def test_a_det_reduces_fewer_than_half_its_field_ops(self):
        # eager reduction takes one remainder per field op; lazily, the
        # dividends and, once each, the stored factor entries are reduced
        class Primes(np.ndarray):
            """Lane primes that count every remainder taken with them."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.remainder:
                    self.remainders += 1
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        H = random_instance(64, 1, "diagonally-dominant")
        assert set(row_scaled(H)[0]) == {1}
        p = residues._PRIMES.take(LANES).view(Primes)
        bands = [[None, *(Residues(np.array([int(v) % q for q in p.tolist()]), p)
                          for v in H.band(name))] for name in BAND_NAMES]
        p.remainders = 0
        alpha = kernels.factor_vectors(kernels.sweep(*bands, residues._nonzero))[0]
        det = reduce(mul, alpha[1:])
        assert det.reduced().tolist() == [dense_det(to_dense(H)) % q for q in p.tolist()]
        assert 0 < p.remainders < count_det_ops(H) / 2


SWITCH = residues._FERMAT_LANES
# the primes below 400, whose exponents p - 2 share no high window with the table's
SMALL_PRIMES = [q for q in range(2, 400) if all(q % d for d in range(2, isqrt(q) + 1))]


class TestInverseLanes:
    """Both paths of the pivot inverse, one ``pow`` per lane below
    ``_FERMAT_LANES`` lanes and v^(p-2) over the lane vector from there on,
    equal pow(v, -1, p) in every lane."""

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

    @pytest.mark.parametrize("K", [SWITCH - 1, SWITCH, 89, 107, 343])
    def test_table_primes(self, K):
        for seed in range(3):
            self.assert_inverse(residues._PRIMES.take(K), seed)

    @pytest.mark.parametrize("K", [SWITCH - 1, SWITCH, 89])
    def test_every_lane_one_or_p_minus_one(self, K):
        p = residues._PRIMES.take(K)
        for v in (np.ones_like(p), p - 1):
            assert residues._inverse_lanes(v, p).tolist() == v.tolist()

    @pytest.mark.parametrize("points", [2, 3, 5])
    @pytest.mark.parametrize("K", [SWITCH // 2, 45, 89])
    def test_tiled_points(self, K, points):
        # lane k * K + j is point k modulo prime j: the primes repeat
        self.assert_inverse(np.tile(residues._PRIMES.take(K), points), seed=points)

    def test_dropped_primes(self):
        table = lane_primes(120)
        for dropped in ({table[0]}, {table[1], table[40], table[89]}, set(table[:30])):
            p = residues._choose_primes(prod(table[:100]), dropped)
            assert not dropped & set(p.tolist()) and len(p) >= SWITCH
            self.assert_inverse(p)

    @pytest.mark.parametrize("order", ["small-first", "small-last", "small-only"])
    def test_no_common_high_window(self, order):
        table = lane_primes(SWITCH)
        p = {"small-first": SMALL_PRIMES + table, "small-last": table + SMALL_PRIMES,
             "small-only": SMALL_PRIMES}[order]
        assert len(p) >= SWITCH
        for seed in range(3):
            self.assert_inverse(p, seed)

    def test_the_first_prime_repeated(self):
        # every exponent the same: no window is gathered
        for q in (2, 3, LANE_0_PRIME):
            self.assert_inverse([q] * SWITCH)


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
        p = residues._PRIMES.take(SWITCH + 3)
        lanes = residues._lanes(x, p)
        assert lanes.dtype == np.int64 and lanes.tolist() == self.expected(x, p)

    @pytest.mark.parametrize("K", [SWITCH + 3, 700])
    def test_limb_product(self, K):
        """The limb product is x % q in every lane, inside int64 as well as
        past it, at one chunk of primes and at several."""
        p = residues._PRIMES.take(K)
        xs = [0, 2**63 - 1, 2**63, -(2**63) - 1, self.BIG, -1, 2**16, -(2**64 - 1), self.ONES]
        lanes = residues._wide_lanes(xs, p)
        assert lanes.dtype == np.int64 and lanes.tolist() == self.expected(xs, p)

    def test_bands_convert_their_wide_entries_once(self, monkeypatch):
        """Every entry beyond int64, in the bands and the right-hand sides,
        is converted by one limb product when the lane is set up, and a
        block read converts none."""
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
    """The lanes of point s sweep H'(s) = H' + s diag(L) G: the pivot rule
    adds the lanes of s L_i to pivot i, once, for each i in G."""

    def test_factor_lanes_are_those_of_each_point(self, monkeypatch):
        # rows 1, 5 and 9 zero, entries rational so that L_i > 1
        H = rational_entries(zero_rows(random_instance(16, 1, "diagonally-dominant"), (1, 5, 9)), 1)
        scales, bands, _ = row_scaled(H, [])
        assert len(set(scales)) > 1
        sweep, sweeps = kernels.sweep, []

        def counted(*args):
            # a shift that misses its pivot leaves that pivot zero at every
            # point, and the lane would sweep again without end
            sweeps.append(1)
            assert len(sweeps) <= 8
            return sweep(*args)

        monkeypatch.setattr(kernels, "sweep", counted)
        # a zero column adds nothing to the row norms: K is that of det H
        with substitutions() as calls:
            overrides = residues.adjugate(*row_scaled(H, [[0] * H.n]))[1]
        assert overrides == (1, 5, 9) and len(sweeps) == 4
        ((fd, _, _, _),) = calls
        p = fd.alpha[1].p
        K = len(p) // (len(overrides) + 1)
        names = ("alpha", "f", "e", "g", "z", "k", "h", "v", "w")
        for k, s in enumerate(range(1, len(overrides) + 2)):
            shifted = [[Fr(v + s * L if band is bands[3] and i in overrides else v)
                        for i, (v, L) in enumerate(zip(band, scales), start=1)]
                       for band in bands]
            exact = kernels.factor_vectors(
                sweep(*([None, *band] for band in shifted), lambda value, i: value))
            primes = p[k * K:(k + 1) * K].tolist()
            for name, expected in zip(names, exact):
                got = getattr(fd, name)
                for i, (x, y) in enumerate(zip(got, expected)):
                    assert (x is None) == (y is None), (name, i)
                    if y is not None:
                        lanes = x.reduced()[k * K:(k + 1) * K].tolist()
                        assert lanes == [y.numerator * pow(y.denominator, -1, q) % q
                                         for q in primes], (name, i, s)


class TestBandBlocks:
    """A band reduces a block of ``_BLOCK`` entries per numpy call and keeps
    that block's values while its reads stay in the block."""

    @staticmethod
    def entries(n, seed=0):
        rng = random.Random(seed)
        values = [rng.randint(-(2**63), 2**63 - 1) for _ in range(n)]
        # beyond int64 in one block, and p - 1 and p
        values[residues._BLOCK + 3] = 2**70 + 5
        values[residues._BLOCK + 4] = -(2**90)
        values[2], values[3] = LANE_0_PRIME - 1, LANE_0_PRIME
        return values

    def test_reads_in_any_order(self):
        p = residues._PRIMES.take(SWITCH)
        n = 3 * residues._BLOCK + 5
        values = self.entries(n)
        band = residues._bands([values], p)[0]
        order = [*range(1, n + 1), *range(n, 0, -1)]
        order += random.Random(1).sample(range(1, n + 1), n)
        for i in order:
            value = band[i]
            assert value.b == 2**30 - 1
            assert value.v.tolist() == [values[i - 1] % q for q in p.tolist()]
        assert len(band) == n + 1

    def test_a_repeat_read_is_the_same_value(self):
        p = residues._PRIMES.take(8)
        band = residues._bands([range(1, 3 * residues._BLOCK)], p)[0]
        first = band[3]
        assert band[3] is first and band[residues._BLOCK] is band[residues._BLOCK]
        band[residues._BLOCK + 1]  # the next block
        again = band[3]
        assert again is not first and again.v.tolist() == first.v.tolist()

    def test_blocks_are_aligned(self):
        p = residues._PRIMES.take(8)
        band = residues._bands([range(100)], p)[0]
        for i, start in ((1, 1), (residues._BLOCK, 1), (residues._BLOCK + 1, residues._BLOCK + 1),
                         (100, 100 - (100 - 1) % residues._BLOCK)):
            band[i]
            assert band.block[0] == start
        assert len(band.block[1]) == 100 - band.block[0] + 1

    def test_factor_entries_pin_at_most_one_block_per_band(self):
        # g_1 = a_1, z_1 = A_1, v_1 = b_1, w_1 = B_1 and alpha_1 = d_1 are
        # band values: each keeps one block of its band alive, no more
        fd = residue_factors(random_instance(256, 1, "diagonally-dominant"))
        K = len(fd.alpha[1].p)
        blocks = {id(x.v.base): x.v.base.shape
                  for vector in (fd.alpha, fd.f, fd.e, fd.g, fd.z, fd.k, fd.h, fd.v, fd.w)
                  for x in vector if x is not None and x.v.base is not None}
        assert len(blocks) == 5
        assert set(blocks.values()) == {(residues._BLOCK, K)}
