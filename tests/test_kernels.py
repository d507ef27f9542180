import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest

import heptacyclic
from heptacyclic import kernels
from heptacyclic.bench import count_det_ops
from heptacyclic.errors import NearSingularPivotError
from heptacyclic.factor import determinant, factorize, lu_substitute
from heptacyclic.inverse import invert, inverse_float
from heptacyclic.matrix import BAND_NAMES, random_instance
from heptacyclic.scalars import RatFun, T
from heptacyclic.solve import solve_many

from test_factor import duplicated_row_matrix


_PROBE = (
    "import json\n"
    "from heptacyclic.inverse import inverse_float\n"
    "from heptacyclic.matrix import random_instance\n"
    "from heptacyclic.solve import solve_many\n"
    "H = random_instance(12, 4, 'diagonally-dominant')\n"
    "S = inverse_float(H)\n"
    "x = solve_many(H, [[float(k) for k in range(12)]], backend='float')[0].x\n"
    "print(json.dumps([float(v).hex() for v in (S[0, 0], S[11, 3], x[0], x[11])]))\n"
)


def child_probe(flag=None, prelude=""):
    """Inverse and solve probes (as float hex) from a fresh interpreter.

    The child inherits this environment with HEPTACYCLIC_PURE_NUMPY set to
    ``flag`` (removed when None), runs ``prelude`` first, and imports
    heptacyclic from the same directory as this process, so it tests the
    same copy of the package.
    """
    env = dict(os.environ)
    env.pop("HEPTACYCLIC_PURE_NUMPY", None)
    if flag is not None:
        env["HEPTACYCLIC_PURE_NUMPY"] = flag
    package_root = str(Path(heptacyclic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", prelude + _PROBE], capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(out.stdout)


def test_cli_import_loads_no_numpy():
    # numpy loads with the first float inverse or residue lane, not with the CLI
    env = dict(os.environ)
    package_root = str(Path(heptacyclic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, heptacyclic.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout == "False\n"


def test_imports_and_inverts_without_numba():
    # a None entry in sys.modules makes every "import numba" raise ImportError
    blocked = child_probe(prelude="import sys\nsys.modules['numba'] = None\n")
    assert blocked == child_probe()


@pytest.mark.parametrize("n", [8, 9, 16, 64, 257])
def test_lanes_bit_identical(n):
    """The float inverse, one substitution over numpy rows, equals n shared
    single-column substitutions of the identity columns, bit for bit (signs
    of zero included)."""
    H = random_instance(n, 3, "diagonally-dominant")
    S = inverse_float(H)
    fd = factorize(H, "float")
    ref = np.empty((n, n))
    for col in range(n):
        unit = [0.0] * n
        unit[col] = 1.0
        ref[:, col] = lu_substitute(fd, unit)
    assert np.array_equal(S, ref)
    assert np.array_equal(np.signbit(S), np.signbit(ref))

    # one factor sweep for four columns gives what four separate solves give
    columns = [[float((k * (c + 3)) % 11 - 5) for k in range(n)] for c in range(4)]
    reports = solve_many(H, columns, backend="float")
    for rep, col in zip(reports, columns):
        assert rep.x == solve_many(H, [col], backend="float")[0].x
        assert rep.det == determinant(H, backend="float").value


def test_both_lanes_run_the_shared_recurrences(monkeypatch):
    """The float lane differs from the exact lane only in its bands and its
    pivot rule: the same sweep and substitution run over float64."""
    H = random_instance(16, 6, "diagonally-dominant")
    exact = factorize(H)
    fd = factorize(H, "float")
    assert list(exact.D) == [None, *H.band("D")] and list(exact.C) == [None, *H.band("C")]
    assert list(fd.D) == [0.0, *map(float, H.band("D"))]
    for name in ("alpha", "f", "e", "g", "z", "k", "h", "v", "w"):
        for u, v in zip(getattr(exact, name), getattr(fd, name)):
            assert (u is None) == (v is None)
            if u is not None:
                assert v == pytest.approx(float(u), rel=1e-12, abs=1e-14)
    r = [float(k) for k in range(16)]
    x = solve_many(H, [r], backend="float")[0].x
    assert list(x) == kernels.substitute(fd, [None, *r])[1:]

    # the float lane enters through the table, the exact lane does not
    calls = []

    def counted(key, impl):
        def wrapper(*args):
            calls.append(key)
            return impl(*args)
        return wrapper

    for key in ("factor", "solve"):
        monkeypatch.setitem(kernels.ACTIVE_IMPLS, key, counted(key, kernels.ACTIVE_IMPLS[key]))
    solve_many(H, [r], backend="float")
    assert calls == ["factor", "solve"]
    solve_many(H, [[int(v) for v in r]])
    assert calls == ["factor", "solve"]


def test_float_inverse_is_one_shared_substitution(monkeypatch):
    """inverse_float runs ``kernels.substitute`` once per call, over rows,
    and not through the table's solve entry."""
    calls = []
    substitute = kernels.substitute

    def counting(fd, r):
        calls.append("substitute")
        return substitute(fd, r)

    def table_solve(*args):
        calls.append("table")
        raise AssertionError("the inverse entered the table's solve entry")

    monkeypatch.setattr(kernels, "substitute", counting)
    monkeypatch.setitem(kernels.ACTIVE_IMPLS, "solve", table_solve)
    H = random_instance(16, 5, "diagonally-dominant")
    S = inverse_float(H)
    assert calls == ["substitute"]
    inverse_float(H)
    assert calls == ["substitute"] * 2
    assert S.shape == (16, 16) and S.flags.c_contiguous


def test_float_inverse_close_to_exact():
    H = random_instance(24, 9, "diagonally-dominant")
    S = inverse_float(H)
    exact = invert(H).S
    for i in range(24):
        for j in range(24):
            e = float(exact.rows[i][j])
            assert S[i, j] == pytest.approx(e, rel=1e-10, abs=1e-18)


def test_float_factor_matches_exact_pivots():
    H = random_instance(20, 5, "diagonally-dominant")
    fa = factorize(H, "float")
    fd = factorize(H)
    for i in range(1, 21):
        assert fa.alpha[i] == pytest.approx(float(fd.alpha[i]), rel=1e-12)


def test_near_singular_pivot_refused():
    with pytest.raises(NearSingularPivotError, match="use exact backend"):
        factorize(duplicated_row_matrix(), "float")


def test_tolerance_scales_with_magnitude():
    H = random_instance(12, 8, "diagonally-dominant")
    # an absurdly large tolerance classifies every pivot as near-singular
    with pytest.raises(NearSingularPivotError):
        factorize(H, "float", tol=1e6)


def test_float_solve_matches_exact():
    H = random_instance(48, 2, "diagonally-dominant")
    r = [float((-1) ** k * k) for k in range(48)]
    x = solve_many(H, [r], backend="float")[0].x
    (exact,) = solve_many(H, [[int(v) for v in r]])
    for u, v in zip(x, exact.x):
        assert u == pytest.approx(float(v), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_rejected(tol):
    H = random_instance(12, 8, "diagonally-dominant")
    with pytest.raises(ValueError, match="tolerance must be finite"):
        factorize(H, "float", tol=tol)


def test_pure_numpy_flag_has_no_effect():
    # there is one kernel lane, so the variable must not change any result
    assert child_probe("1") == child_probe()


FACTORS = ("alpha", "f", "e", "g", "z", "k", "h", "v", "w")
# sha256 of the float.hex texts of the nine factor vectors, as the sweep of
# three consecutive loops (the interior, then k and w, then h and v) gave them;
# n = 10, 11 and 13, the orders around the register loop's last rows, as the
# one loop over nine n-slot lists gave them
FLOAT_FACTOR_DIGESTS = {
    ("diagonally-dominant", 8): "57b646642d3a582825ce648de402736036f89663030fcd62e018e7a5b371b5b8",
    ("diagonally-dominant", 9): "86bad21ab97d254646a7daab69294f56b1aa48f4ce6ee8a1c760240c2fc74e7e",
    ("diagonally-dominant", 10): "e8b6c24977959b3256d3ffb139f58ac2e1efd10a586ee4662ad4e9111eef981a",
    ("diagonally-dominant", 11): "b4f7c550da36b5040306103054962bf04fab704c4d6362a66312057d905de8d7",
    ("diagonally-dominant", 12): "aeaab9f57e4a9754aa61b8931a9086f169cb0fbb29f6a2e2ff42320ad73b5ac9",
    ("diagonally-dominant", 13): "ef25eb0cc245a8b8c8c2ab00c3cc6f47101ae174d36557a0742c44fcc50ac7c9",
    ("diagonally-dominant", 64): "c8434612a6526343f580ccb6350278584c42d576277a257920a64e039ad8b098",
    ("diagonally-dominant", 257): "8a70d4b1823aae91dbb4dad9d78dd37c749040eabf08ff34786ee4f57edf3fb4",
    ("general", 8): "0afc84ec2e019a32b72db93a4bbbbe0ab520d74dbf9ed6a325a6ea89e2b7dfe2",
    ("general", 9): "d44d620c6ab6512308b5dc23b0b30f39d9c8871cbcc3f9d788054be37382868b",
    ("general", 10): "f6066362d3a2a70c1e5fc99a0c6845a7cdd5c2b49158484a489115c0d2def763",
    ("general", 11): "75d80d90f58f745b79de2fa93d71a01e24e6350c5de260e7b8f8026b199b8e29",
    ("general", 12): "f8a5597a8fe18a4f87f3c99f826609cefb08d8e2ee88297bf0a86b2027967af7",
    ("general", 13): "ec8235f6af402cc37934c5a90141e03921846d15e3133c763f7d4c4a1da8dde9",
    ("general", 64): "2847434b2670f60933fd4e6df424ae4e5d1d8d6b00bf514b165357ea758822b3",
    ("general", 257): "82c400c861719e0640bc034308e78257867d90873b33a5b80c2a4e71272e3b20",
}


@pytest.mark.parametrize("profile, n", [*FLOAT_FACTOR_DIGESTS])
def test_float_sweep_bits_are_pinned(profile, n):
    """Every formula of the one row loop keeps its order of operations, so
    the float factors are those of the three loops, bit for bit."""
    fd = factorize(random_instance(n, 3, profile), "float")
    digest = hashlib.sha256()
    for name in FACTORS:
        texts = ("-" if x is None else float(x).hex() for x in getattr(fd, name))
        digest.update(" ".join(texts).encode() + b"\n")
    assert digest.hexdigest() == FLOAT_FACTOR_DIGESTS[profile, n]


# float.hex of the float determinant over the corpus of the factor digests,
# as the pivot product of ``factorize``'s vectors gave it (n = 10, 11 and 13:
# as the streamed sweep over nine n-slot lists gave it)
FLOAT_DET_HEX = {
    ("diagonally-dominant", 8): "0x1.5c4824711ffffp+37",
    ("diagonally-dominant", 9): "0x1.29c4391659002p+44",
    ("diagonally-dominant", 10): "0x1.6d74ec34e0c81p+48",
    ("diagonally-dominant", 11): "-0x1.e985166b8a32bp+54",
    ("diagonally-dominant", 12): "0x1.5352247570f25p+57",
    ("diagonally-dominant", 13): "0x1.f0041de128b47p+65",
    ("diagonally-dominant", 64): "-0x1.0af3d1a80654fp+320",
    ("diagonally-dominant", 257): "-inf",
    ("general", 8): "0x1.613f6fffffff7p+22",
    ("general", 9): "-0x1.fb5a56ffffff8p+26",
    ("general", 10): "0x1.12011ba800002p+30",
    ("general", 11): "-0x1.944069eb00002p+33",
    ("general", 12): "-0x1.f577e7de00025p+33",
    ("general", 13): "0x1.44ad4f4a90ff9p+40",
    ("general", 64): "0x1.5d90de86f0ffcp+198",
    ("general", 257): "0x1.7b013b7fda371p+775",
}


@pytest.mark.parametrize("profile, n", [*FLOAT_DET_HEX])
def test_float_det_bits_are_pinned(profile, n):
    """The determinant takes each pivot as the sweep hands its row over,
    and its border sums add the terms of ``_ksum`` in its order, so the
    float determinant is that of the kept factors, bit for bit."""
    value = determinant(random_instance(n, 3, profile), "float").value
    assert float.hex(value) == FLOAT_DET_HEX[profile, n]


def test_pivot_product_draws_every_pivot():
    # the float determinant's values are a sweep's pivots: after the product
    # underflows to zero the rest are still drawn, so the sweep runs on and
    # refuses a later pivot as ``factorize`` does
    drawn = []

    def pivots():
        for value in (5e-324, 5e-324, -3.0, 2.0):
            drawn.append(value)
            yield value

    product = kernels.pivot_product(pivots())
    assert product == 0.0 and math.copysign(1.0, product) == 1.0
    assert len(drawn) == 4


@pytest.mark.parametrize("n", [8, 13])
@pytest.mark.parametrize("row", [1, 2, 3, 4, -4, -3, -2, -1, 0], ids=[
    "1", "2", "3", "4", "n-4", "n-3", "n-2", "n-1", "n"])
def test_band_shift_is_a_pivot_shift(n, row):
    """The sweep reads d_i only as the first term of pivot i, so d_i + x in
    the band gives the factors of x added to pivot i by the pivot rule: the
    residue lane shifts the pivots of G that way."""
    i = row if row > 0 else n + row
    x = Fr(7, 3)
    bands = [[None, *map(Fr, random_instance(n, 5, "diagonally-dominant").band(name))]
             for name in BAND_NAMES]
    shifted = [list(band) for band in bands]
    shifted[BAND_NAMES.index("d")][i] += x
    by_band = kernels.factor_vectors(kernels.sweep(*shifted, lambda value, k: value))
    by_pivot = kernels.factor_vectors(
        kernels.sweep(*bands, lambda value, k: value + x if k == i else value))
    for name, u, v in zip(FACTORS, by_band, by_pivot):
        assert u == v, name
    assert by_band[0][i] != kernels.factor_vectors(kernels.sweep(*bands, lambda value, k: value))[0][i]


# The oracle of the register kernels: the sweep and the substitution over
# nine n-slot lists, indexed by row, as they ran before the registers.

def _list_ksum(xs, ys, upto):
    acc = xs[1] * ys[1]
    for j in range(2, upto + 1):
        acc = acc + xs[j] * ys[j]
    return acc


def list_sweep(D, B, b, d, a, A, C, pivot):
    n = len(D) - 1
    al, f, e, g, z, k, h, v, w = ([None] * (n + 1) for _ in range(9))

    def row(j):
        entries = al[j], f[j], e[j], g[j], z[j], k[j], h[j], v[j], w[j]
        al[j] = f[j] = e[j] = g[j] = z[j] = k[j] = h[j] = v[j] = w[j] = None
        return entries

    al[1] = pivot(d[1], 1)
    g[1] = a[1]
    z[1] = A[1]
    k[1] = A[n - 1] / al[1]
    v[1] = b[1]
    w[1] = B[1]
    h[1] = a[n] / al[1]
    f[2] = b[2] / al[1]
    e[3] = B[3] / al[1]
    al[2] = pivot(d[2] - f[2] * g[1], 2)
    k[2] = -k[1] * g[1] / al[2]
    v[2] = B[2] - f[2] * v[1]
    w[2] = -f[2] * w[1]
    h[2] = (A[n] - h[1] * g[1]) / al[2]
    g[2] = a[2] - f[2] * z[1]
    f[3] = (b[3] - e[3] * g[1]) / al[2]
    al[3] = pivot(d[3] - e[3] * z[1] - f[3] * g[2], 3)
    k[3] = -(k[1] * z[1] + k[2] * g[2]) / al[3]
    h[3] = -(h[1] * z[1] + h[2] * g[2]) / al[3]
    v[3] = -e[3] * v[1] - f[3] * v[2]
    w[3] = -f[3] * w[2] - e[3] * w[1]

    vk, wk, hw, vh = v[1] * k[1], w[1] * k[1], h[1] * w[1], v[1] * h[1]
    for j in (2, 3):
        vk, wk, hw, vh = vk + v[j] * k[j], wk + w[j] * k[j], hw + h[j] * w[j], vh + v[j] * h[j]

    for i in range(4, n - 1):
        e[i] = (B[i] - D[i] * g[i - 3] / al[i - 3]) / al[i - 2]
        f[i] = (b[i] - D[i] * z[i - 3] / al[i - 3] - e[i] * g[i - 2]) / al[i - 1]
        z[i - 2] = A[i - 2] - f[i - 2] * C[i - 3]
        g[i - 1] = a[i - 1] - f[i - 1] * z[i - 2] - e[i - 1] * C[i - 3]
        al[i] = pivot(d[i] - D[i] * C[i - 3] / al[i - 3] - e[i] * z[i - 2] - f[i] * g[i - 1], i)
        if i < n - 4:
            k[i] = -(k[i - 3] * C[i - 3] + k[i - 2] * z[i - 2] + k[i - 1] * g[i - 1]) / al[i]
            w[i] = -(D[i] * w[i - 3] / al[i - 3] + e[i] * w[i - 2] + f[i] * w[i - 1])
        if i < n - 3:
            h[i] = -(h[i - 3] * C[i - 3] + h[i - 2] * z[i - 2] + h[i - 1] * g[i - 1]) / al[i]
            v[i] = -(D[i] * v[i - 3] / al[i - 3] + e[i] * v[i - 2] + f[i] * v[i - 1])
            vh = vh + v[i] * h[i]
        if i < n - 4:
            vk, wk, hw = vk + v[i] * k[i], wk + w[i] * k[i], hw + h[i] * w[i]
            yield row(i - 3)

    k[n - 4] = (D[n - 1] - k[n - 7] * C[n - 7] - k[n - 6] * z[n - 6] - k[n - 5] * g[n - 5]) / al[n - 4]
    k[n - 3] = (B[n - 1] - k[n - 6] * C[n - 6] - k[n - 5] * z[n - 5] - k[n - 4] * g[n - 4]) / al[n - 3]
    k[n - 2] = (b[n - 1] - k[n - 5] * C[n - 5] - k[n - 4] * z[n - 4] - k[n - 3] * g[n - 3]) / al[n - 2]
    w[n - 4] = C[n - 4] - D[n - 4] * w[n - 7] / al[n - 7] - e[n - 4] * w[n - 6] - f[n - 4] * w[n - 5]
    w[n - 3] = A[n - 3] - D[n - 3] * w[n - 6] / al[n - 6] - e[n - 3] * w[n - 5] - f[n - 3] * w[n - 4]
    w[n - 2] = a[n - 2] - D[n - 2] * w[n - 5] / al[n - 5] - e[n - 2] * w[n - 4] - f[n - 2] * w[n - 3]
    h[n - 3] = (D[n] - h[n - 6] * C[n - 6] - h[n - 5] * z[n - 5] - h[n - 4] * g[n - 4]) / al[n - 3]
    h[n - 2] = (B[n] - h[n - 5] * C[n - 5] - h[n - 4] * z[n - 4] - h[n - 3] * g[n - 3]) / al[n - 2]
    v[n - 3] = C[n - 3] - D[n - 3] * v[n - 6] / al[n - 6] - e[n - 3] * v[n - 5] - f[n - 3] * v[n - 4]
    v[n - 2] = A[n - 2] - D[n - 2] * v[n - 5] / al[n - 5] - e[n - 2] * v[n - 4] - f[n - 2] * v[n - 3]
    for j in range(n - 4, n - 1):
        vk, wk, hw = vk + v[j] * k[j], wk + w[j] * k[j], hw + h[j] * w[j]
    vh = vh + v[n - 3] * h[n - 3] + v[n - 2] * h[n - 2]
    v[n - 1] = a[n - 1] - vk
    al[n - 1] = pivot(d[n - 1] - wk, n - 1)
    h[n - 1] = (b[n] - hw) / al[n - 1]
    al[n] = pivot(d[n] - (vh + v[n - 1] * h[n - 1]), n)
    for j in range(n - 7, n + 1):
        yield row(j)


def list_substitute(fd, r):
    n = fd.n
    al, f, e, g, z, k, h, v, w = fd.alpha, fd.f, fd.e, fd.g, fd.z, fd.k, fd.h, fd.v, fd.w
    D, C = fd.D, fd.C

    y = [None] * (n + 1)
    y[1] = r[1]
    y[2] = r[2] - f[2] * y[1]
    y[3] = r[3] - f[3] * y[2] - e[3] * y[1]
    for i in range(4, n - 1):
        y[i] = r[i] - f[i] * y[i - 1] - e[i] * y[i - 2] - D[i] * y[i - 3] / al[i - 3]
    y[n - 1] = r[n - 1] - _list_ksum(k, y, n - 2)
    y[n] = r[n] - _list_ksum(h, y, n - 1)

    x = [None] * (n + 1)
    x[n] = y[n] / al[n]
    x[n - 1] = (y[n - 1] - v[n - 1] * x[n]) / al[n - 1]
    for i in range(n - 2, 0, -1):
        acc = y[i] - w[i] * x[n - 1] - v[i] * x[n]
        if i + 1 <= n - 2:
            acc = acc - g[i] * x[i + 1]
        if i + 2 <= n - 2:
            acc = acc - z[i] * x[i + 2]
        if i + 3 <= n - 2:
            acc = acc - C[i] * x[i + 3]
        x[i] = acc / al[i]
    return x


REFERENCE_ORDERS = [*range(8, 25), 33, 64, 257]


def float_key(entries):
    return [None if x is None else float.hex(x) for x in entries]


def reference_rhs(n, field):
    return [None, *(field((k * 7) % 11 - 5) for k in range(n))]


@pytest.mark.parametrize("n", REFERENCE_ORDERS)
@pytest.mark.parametrize("profile", ["diagonally-dominant", "general"])
def test_register_kernels_match_the_lists_on_floats(profile, n):
    """Every float the register loops make is the list loops' float, bit
    for bit: the rows of the sweep, the determinant, one solve and the
    inverse (signs of zero included)."""
    H = random_instance(n, 3, profile)
    fb = H.float_bands()
    bands = [fb[name] for name in BAND_NAMES]
    pivot = kernels.float_pivot(fb, 1e-12)
    rows = [float_key(row) for row in kernels.sweep(*bands, pivot)]
    assert rows == [float_key(row) for row in list_sweep(*bands, pivot)]
    assert float.hex(determinant(H, "float").value) == float.hex(
        kernels.pivot_product(row[0] for row in list_sweep(*bands, pivot)))

    fd = factorize(H, "float")
    r = reference_rhs(n, float)
    assert float_key(kernels.substitute(fd, r)) == float_key(list_substitute(fd, r))
    S = kernels.invert(fd)
    ref = np.stack(list_substitute(fd, [None, *np.eye(n)])[1:])
    assert S.tobytes() == ref.tobytes()
    assert np.array_equal(np.signbit(S), np.signbit(ref))


# a RatFun sweep at n = 257 takes seconds, so that order runs over Fractions only
@pytest.mark.parametrize("profile, n", [
    *(("diagonally-dominant", n) for n in REFERENCE_ORDERS),
    *(("zero-pivot-prone", n) for n in REFERENCE_ORDERS if n < 257),
])
def test_register_kernels_match_the_lists_on_exact_fields(profile, n):
    """Over Fractions, and over RatFun once the T rule overrides a zero
    pivot, the register loops give the rows and x of the list loops; the
    op counter counts the same operations."""
    H = random_instance(n, 3, profile)
    bands = [[None, *H.band(name)] for name in BAND_NAMES]

    def t_rule(value, i):
        return T if value == 0 else value

    rows = list(kernels.sweep(*bands, t_rule))
    assert rows == list(list_sweep(*bands, t_rule))
    assert any(isinstance(row[0], RatFun) for row in rows) == (profile == "zero-pivot-prone")

    fd = factorize(H)
    r = reference_rhs(n, Fr)
    assert kernels.substitute(fd, r) == list_substitute(fd, r)

    if profile == "diagonally-dominant":
        ops = count_det_ops(H)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(kernels, "sweep", list_sweep)
            assert count_det_ops(H) == ops == 60 * n - 226


def test_float_inverse_makes_n_identity_rows(monkeypatch):
    # the substitution reads its right-hand side once, in row order, so the
    # inverse makes each identity row once
    made = []
    identity_rows = kernels._identity_rows

    def counted(n):
        for row in identity_rows(n):
            if row is not None:
                made.append(row)
            yield row

    monkeypatch.setattr(kernels, "_identity_rows", counted)
    for n in (8, 13, 64):
        made.clear()
        S = inverse_float(random_instance(n, 3, "diagonally-dominant"))
        assert len(made) == n and np.array_equal(np.stack(made), np.eye(n))
        assert S.shape == (n, n)
