from fractions import Fraction as Fr

import pytest

from heptacyclic.errors import NearSingularPivotError
from heptacyclic.factor import (
    determinant,
    factorize,
    lu_substitute,
    materialize_LU,
)
from heptacyclic.matrix import CyclicHeptaMatrix, random_instance, to_dense
from heptacyclic.oracle import dense_det
from heptacyclic.scalars import RatFun, T, eval_at_zero

from test_scalars import assert_canonical

ALL_PROFILES = ("general", "diagonally-dominant", "zero-pivot-prone", "zero-C")


def identity_matrix(n=10):
    zero = [0] * n
    return CyclicHeptaMatrix(n, D=zero, B=zero, b=zero, d=[1] * n, a=zero, A=zero, C=zero)


def duplicated_row_matrix(n=10):
    """Pattern-conforming singular matrix: rows 5 and 6 are identical."""
    H = random_instance(n, 42, "general")
    bands = {k: list(H.band(k)) for k in ("D", "B", "b", "d", "a", "A", "C")}
    # row 5 = (0, B5, b5, d5, a5, A5, C5) over columns 2..8; making row 6
    # match it needs D5 = C6 = 0 and the six-entry overlap equal
    vals = [1, 2, 3, 4, 5, 6]
    bands["D"][4] = 0
    bands["B"][4], bands["b"][4], bands["d"][4] = vals[0], vals[1], vals[2]
    bands["a"][4], bands["A"][4], bands["C"][4] = vals[3], vals[4], vals[5]
    bands["D"][5], bands["B"][5], bands["b"][5] = vals[0], vals[1], vals[2]
    bands["d"][5], bands["a"][5], bands["A"][5] = vals[3], vals[4], vals[5]
    bands["C"][5] = 0
    H2 = CyclicHeptaMatrix(n, **bands)
    assert H2.row(5) == H2.row(6)
    return H2


def assert_lu_product_identity(H):
    fd = factorize(H)
    L, U = materialize_LU(fd)
    product = L @ U
    dense = to_dense(H)
    overrides = set(fd.overrides)
    for i in range(H.n):
        for j in range(H.n):
            expected = dense.rows[i][j]
            if i == j and (i + 1) in overrides:
                expected = expected + T
            assert product.rows[i][j] - expected == 0, (i + 1, j + 1)
    return fd


class TestFactorize:
    def test_identity(self):
        fd = factorize(identity_matrix())
        assert all(fd.alpha[i] == 1 for i in range(1, 11))
        assert fd.overrides == ()
        for vec in (fd.f, fd.e, fd.g, fd.z, fd.k, fd.h, fd.v, fd.w):
            assert all(v == 0 for v in vec if v is not None)

    def test_example_first_steps(self, example10):
        fd = factorize(example10)
        assert fd.alpha[1] == 1
        assert fd.g[1] == -1
        assert fd.z[1] == 1
        assert fd.v[1] == -1
        assert fd.w[1] == 2
        assert fd.k[1] == 3
        assert fd.h[1] == 2
        assert fd.f[2] == 1

    def test_zero_pivot_replaced_by_indeterminate(self):
        H = random_instance(8, 3, "zero-pivot-prone")
        fd = factorize(H)
        assert 1 in fd.overrides
        assert fd.alpha[1] == T

    def test_index_ranges(self):
        fd = factorize(random_instance(9, 5))
        n = 9
        assert fd.alpha[0] is None and all(fd.alpha[i] is not None for i in range(1, n + 1))
        assert fd.f[1] is None and fd.f[n - 1] is None and fd.f[n - 2] is not None
        assert fd.e[2] is None and fd.e[n - 2] is not None
        assert fd.g[n - 3] is not None and fd.g[n - 2] is None
        assert fd.z[n - 4] is not None and fd.z[n - 3] is None
        assert fd.k[n - 2] is not None and fd.k[n - 1] is None
        assert fd.h[n - 1] is not None and fd.h[n] is None
        assert fd.v[n - 1] is not None and fd.v[n] is None
        assert fd.w[n - 2] is not None and fd.w[n - 1] is None

    def test_deterministic(self):
        H = random_instance(11, 8, "zero-C")
        assert factorize(H) == factorize(H)

    def test_pivots_always_nonzero(self):
        for seed in range(8):
            fd = factorize(random_instance(8 + seed, seed, "zero-pivot-prone"))
            assert all(fd.alpha[i] != 0 for i in range(1, fd.n + 1))

    def test_factor_vectors_are_canonical(self):
        # the zero-pivot-prone instances of acceptance criterion 5: every
        # rational function in the factors is in the form eval0 reads
        seen = 0
        for count in range(2, 100, 4):
            fd = factorize(random_instance(8 + (count % 5), count, "zero-pivot-prone"))
            for name in ("alpha", "f", "e", "g", "z", "k", "h", "v", "w"):
                for x in getattr(fd, name):
                    if isinstance(x, RatFun):
                        assert_canonical(x)
                        seen += 1
        assert seen >= 100


class TestMaterializeLU:
    def test_identity_factors(self):
        fd = factorize(identity_matrix())
        L, U = materialize_LU(fd)
        eye = to_dense(identity_matrix())
        assert L == eye and U == eye

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_product_identity(self, profile):
        for seed in range(6):
            n = 8 + (seed % 5)
            assert_lu_product_identity(random_instance(n, seed, profile))

    def test_product_identity_with_override_term(self):
        H = random_instance(9, 1, "zero-pivot-prone")
        fd = assert_lu_product_identity(H)
        assert fd.overrides  # the t * E_ii correction was actually exercised


class TestDeterminant:
    def test_identity(self):
        res = determinant(identity_matrix())
        assert res.value == 1 and not res.singular and res.pivot_overrides == 0

    def test_example_matches_oracle(self, example10):
        res = determinant(example10)
        assert res.value == dense_det(to_dense(example10))
        assert not res.singular

    def test_duplicated_row_is_singular(self):
        res = determinant(duplicated_row_matrix())
        assert res.value == 0 and res.singular

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_matches_oracle(self, profile):
        for seed in range(8):
            n = 8 + (seed % 6)
            H = random_instance(n, seed, profile)
            assert determinant(H).value == dense_det(to_dense(H))

    def test_float_backend_close(self):
        H = random_instance(12, 4, "diagonally-dominant")
        exact = determinant(H).value
        approx = determinant(H, backend="float").value
        assert approx == pytest.approx(float(exact), rel=1e-10)

    def test_float_backend_refuses_near_singular(self):
        with pytest.raises(NearSingularPivotError, match="use exact backend"):
            determinant(duplicated_row_matrix(), backend="float")


class TestLuSubstitute:
    def test_solves_exactly(self):
        for seed in range(5):
            H = random_instance(10, seed)
            fd = factorize(H)
            if determinant(H).value == 0:
                continue
            r = [Fr(i - 4, 3) for i in range(10)]
            x = lu_substitute(fd, r)
            x0 = [eval_at_zero(v) for v in x]
            assert H.mat_vec(x0) == r

    def test_length_checked(self):
        fd = factorize(identity_matrix())
        with pytest.raises(ValueError, match="length"):
            lu_substitute(fd, [1, 2, 3])


def test_operation_growth_is_linear():
    from heptacyclic.bench import count_det_ops

    ops_200 = count_det_ops(random_instance(200, 1, "diagonally-dominant"))
    ops_400 = count_det_ops(random_instance(400, 1, "diagonally-dominant"))
    assert ops_400 <= 2.5 * ops_200
