"""The exact lane over word-size primes: residue arithmetic, the prime table,
and det and solve through one residue sweep, equal to the dense oracle."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as Fr
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptacyclic import factor, kernels, residues
from heptacyclic.bench import OpCounter, count_det_ops, counting_matrix
from heptacyclic.errors import SingularMatrixError
from heptacyclic.factor import determinant, factorize
from heptacyclic.matrix import BAND_NAMES, CyclicHeptaMatrix, random_instance, to_dense
from heptacyclic.oracle import dense_det, dense_inverse
from heptacyclic.residues import Residues
from heptacyclic.solve import solve_many

from test_inverse import acceptance_corpora

MERSENNE_31 = 2**31 - 1


def times(S, r):
    return [sum(u * v for u, v in zip(row, r)) for row in S.rows]


def rhs_columns(n, seed):
    rng = random.Random(seed)
    return [[Fr(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(2)]


def assert_equals_oracle(H, seed=0, fallback_too=False):
    """det and 1- and 2-column solves of H, through the lane and through the
    public entry points, equal the dense oracle; returns whether the lane
    ran (did not give up).  Where it gave up, the solves are compared only
    with ``fallback_too``."""
    dense = to_dense(H)
    det = dense_det(dense)
    assert determinant(H).value == det
    r1, r2 = rhs_columns(H.n, seed)
    found = residues.solve(H, [r1, r2])
    if det == 0:
        assert found is None
        with pytest.raises(SingularMatrixError):
            solve_many(H, [r1])
        return False
    if found is None and not fallback_too:
        return False
    S = dense_inverse(dense)
    x1, x2 = times(S, r1), times(S, r2)
    (one,) = solve_many(H, [r1])
    assert list(one.x) == x1 and one.det == det
    two = solve_many(H, [r1, r2])
    assert [list(rep.x) for rep in two] == [x1, x2]
    if found is None:
        return False
    assert found == (det, x1 + x2)
    assert residues.solve(H, []) == (det, [])
    return True


def with_bands(H, **changes):
    bands = {name: list(H.band(name)) for name in BAND_NAMES}
    bands.update(changes)
    return CyclicHeptaMatrix(H.n, **bands)


class TestEqualsOracle:
    def test_acceptance_and_collision_corpora(self):
        ran = 0
        for k, H in enumerate(acceptance_corpora()):
            ran += assert_equals_oracle(H, seed=k)
        # the general and dominant draws have no zero pivot
        assert ran >= 100

    def test_rational_entries(self):
        for seed in range(20):
            H = random_instance(8 + seed % 9, seed, ("general", "diagonally-dominant")[seed % 2])
            rng = random.Random(seed)
            H = with_bands(H, **{name: [v / rng.randint(1, 12) for v in H.band(name)]
                                 for name in BAND_NAMES})
            assert assert_equals_oracle(H, seed) or dense_det(to_dense(H)) == 0

    def test_entries_at_p_minus_one_and_two(self):
        # -1 and -2 sit at p-1 and p-2 in every lane, so each product of two
        # lanes is as large as the reduction ever lets one be
        ran = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = 8 + seed % 5
            H = random_instance(n, seed, "general")
            H = with_bands(H, **{name: [rng.choice((-1, -2)) if v != 0 or name not in "DC" else 0
                                        for v in H.band(name)] for name in BAND_NAMES})
            ran += assert_equals_oracle(H, seed)
        assert ran >= 5

    def test_entries_beyond_int64(self):
        big = 10**600
        for seed in (0, 1):
            H = random_instance(8 + 2 * seed, seed, "diagonally-dominant")
            H = with_bands(H, d=[v * big for v in H.band("d")],
                           a=[v * big if k % 2 else v for k, v in enumerate(H.band("a"))])
            assert assert_equals_oracle(H, seed)


class TestFallback:
    def test_first_pivot_divisible_by_one_lane_prime(self):
        H = random_instance(12, 1, "diagonally-dominant")
        H = with_bands(H, d=[MERSENNE_31, *H.band("d")[1:]])
        assert residues._PRIMES.take(1)[0] == MERSENNE_31  # lane 0 of every sweep
        assert residues.solve(H, []) is None
        assert not assert_equals_oracle(H, fallback_too=True)

    def test_later_pivot_divisible_by_one_lane_prime(self):
        H = random_instance(12, 2, "diagonally-dominant")
        alpha6 = factorize(H, symbolic=False).alpha[6]
        rest = H.band("d")[5] - alpha6  # pivot 6 is d_6 - rest
        d6 = rest.numerator * pow(rest.denominator, -1, MERSENNE_31) % MERSENNE_31
        H = with_bands(H, d=[d6 if k == 5 else v for k, v in enumerate(H.band("d"))])
        pivot = factorize(H, symbolic=False).alpha[6]
        lanes = residues._PRIMES.take(64).tolist()
        assert [p for p in lanes if pivot.numerator % p == 0] == [MERSENNE_31]
        assert residues.solve(H, []) is None
        assert not assert_equals_oracle(H, fallback_too=True)

    def test_entries_that_are_not_fractions(self):
        counter = OpCounter()
        H = counting_matrix(random_instance(10, 0, "diagonally-dominant"), counter)
        assert residues.solve(H, []) is None
        assert counter.count == 0


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

    def test_without_malloc_trim(self, monkeypatch):
        # a C library without malloc_trim changes nothing but the memory kept
        H = random_instance(16, 3, "diagonally-dominant")
        expected = residues.solve(H, [])
        monkeypatch.setattr(residues, "_malloc_trim", lambda: None)
        assert residues.solve(H, []) == expected == (dense_det(to_dense(H)), [])

    def test_malloc_trim_only_after_a_completed_lane(self, monkeypatch):
        trims = []
        monkeypatch.setattr(residues, "_malloc_trim", lambda: trims.append)
        H = random_instance(12, 1, "diagonally-dominant")
        assert residues.solve(H, []) is not None
        assert trims == [0]
        # pivot 1 zero in lane 0: the Fraction path that follows reuses the heap
        residues.solve(with_bands(H, d=[MERSENNE_31, *H.band("d")[1:]]), [])
        assert trims == [0]

    def test_field_ops_still_count_the_generic_sweep(self):
        counts = [count_det_ops(random_instance(n, 1, "diagonally-dominant"))
                  for n in (200, 1000, 2000)]
        assert counts == [11774, 59774, 119774]  # 60n - 226


class TestGarner:
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
            assert residues._garner(self.residues_of(chunk, p), p) == chunk

    def test_memory_linear_in_primes(self):
        # a K x K table of the radices mod every prime would take 32 MB here
        K = 2000
        p = residues._PRIMES.take(K)
        value = -(prod(p.tolist()) // 3)
        U = self.residues_of([value], p)
        tracemalloc.start()
        try:
            got = residues._garner(U, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [value]
        assert peak < 2 * 2**20


class TestPrimeTable:
    def test_largest_primes_below_2_31_descending(self):
        p = residues._PRIMES.take(300).tolist()
        assert p[0] == MERSENNE_31 and p == sorted(set(p), reverse=True)
        for q in p[:20] + p[-20:]:
            assert all(q % f for f in range(2, int(q**0.5) + 1))
        # no prime skipped between the first two
        assert all(any(m % f == 0 for f in range(2, 50000)) for m in range(p[1] + 1, p[0]))

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
        assert (A + B).v.tolist() == expect["+"]
        assert (A - B).v.tolist() == expect["-"]
        assert (A * B).v.tolist() == expect["*"]
        assert (-A).v.tolist() == expect["neg"]
        if all(y % q for y, q in zip(b, p)):
            quotient = [x * pow(y, -1, q) % q for x, y, q in zip(a, b, p)]
            assert (A / B).v.tolist() == quotient
        else:
            with pytest.raises(ZeroDivisionError):
                A / B
