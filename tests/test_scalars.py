from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptacyclic.errors import DegreeCapError, PoleAtZeroError
from heptacyclic.scalars import (
    Poly,
    RatFun,
    T,
    eval_at_zero,
    format_scalar,
    is_zero,
    parse_scalar,
    poly_gcd,
    set_degree_cap,
)


def P(*coeffs):
    """Polynomial from ascending coefficients."""
    return Poly(coeffs)


class TestPolyGcd:
    def test_factorization_forced(self):
        # gcd(t^2 - 1, t - 1) = t - 1
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_unit_case(self):
        assert poly_gcd(P(0, 1), P(1)) == P(1)

    def test_monic_common_factor(self):
        # gcd(2t^2 + 2t, 4t) = t (monic)
        assert poly_gcd(P(0, 2, 2), P(0, 4)) == P(0, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="gcd undefined"):
            poly_gcd(Poly(), Poly())

    def test_result_is_monic(self):
        g = poly_gcd(P(0, 0, 3), P(0, 6))
        assert g.leading == 1


class TestRatFunNormalize:
    def test_cancel_t(self):
        # (t^2 + 3t)/t == t + 3
        assert RatFun(P(0, 3, 1), P(0, 1)) == RatFun(P(3, 1))

    def test_constants_reduce(self):
        r = RatFun(P(6), P(4))
        assert r == RatFun(Fr(3, 2))
        assert r.den == Poly.ONE

    def test_full_cancellation(self):
        # (t - 1)/(2t - 2) == 1/2
        assert RatFun(P(-1, 1), P(-2, 2)) == RatFun(Fr(1, 2))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(P(1), Poly())

    def test_denominator_is_monic(self):
        r = RatFun(P(1), P(2, 4))
        assert r.den.leading == 1


class TestEvalAtZero:
    def test_linear(self):
        assert eval_at_zero(T + 3) == 3

    def test_identity_on_constants(self):
        assert eval_at_zero(Fr(7, 2)) == Fr(7, 2)
        assert eval_at_zero(RatFun(Fr(7, 2))) == Fr(7, 2)

    def test_removable_singularity(self):
        # (t^2 + t)/t reduces to t + 1
        assert eval_at_zero(RatFun(P(0, 1, 1), P(0, 1))) == 1

    def test_pole(self):
        with pytest.raises(PoleAtZeroError, match="pole at t=0"):
            eval_at_zero(1 / T)


# ---------------------------------------------------------------------------
# field axioms on randomized inputs
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)

small_polys = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=1, max_size=3
).map(Poly)

ratfuns = st.builds(
    lambda num, den: RatFun(num, den),
    small_polys,
    small_polys.filter(lambda p: not p.is_zero),
)


@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


@settings(max_examples=60)
@given(a=ratfuns, b=ratfuns, c=ratfuns)
def test_ratfun_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero:
        assert a * (1 / a) == RatFun(1)


@settings(max_examples=60)
@given(
    x=ratfuns.filter(lambda r: r.den.eval0() != 0),
    y=ratfuns.filter(lambda r: r.den.eval0() != 0),
)
def test_eval_at_zero_is_ring_homomorphism(x, y):
    assert eval_at_zero(x + y) == eval_at_zero(x) + eval_at_zero(y)
    assert eval_at_zero(x * y) == eval_at_zero(x) * eval_at_zero(y)


@given(q=rationals)
def test_embedding_round_trip(q):
    assert eval_at_zero(RatFun(q)) == q


def test_mixed_arithmetic_coerces_rationals():
    assert T + Fr(1, 2) == RatFun(P(Fr(1, 2), 1))
    assert Fr(1, 2) * T == RatFun(P(0, Fr(1, 2)))
    assert (2 - T) + (T - 2) == RatFun(0)
    assert is_zero((2 - T) + (T - 2))


def test_division_by_zero_ratfun():
    with pytest.raises(ZeroDivisionError):
        T / RatFun(0)


def test_degree_cap_aborts_with_diagnostic():
    set_degree_cap(8)
    try:
        with pytest.raises(DegreeCapError, match="exceeds cap 8"):
            Poly([0] * 9 + [1])
    finally:
        set_degree_cap(64)


def test_degree_cap_applies_to_products():
    set_degree_cap(8)
    try:
        t5 = Poly([0] * 5 + [1])
        with pytest.raises(DegreeCapError):
            t5 * t5
    finally:
        set_degree_cap(64)


class TestScalarText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/4", Fr(3, 4)),
            ("-3/4", Fr(-3, 4)),
            ("+2/6", Fr(1, 3)),
            ("7", Fr(7)),
            ("-12", Fr(-12)),
            ("1.25", Fr(5, 4)),
            (" 0.5 ", Fr(1, 2)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="invalid scalar"):
            parse_scalar("12x")

    @pytest.mark.parametrize("text", ["1e100000", "-3.5E-100000", "2e+1_00_000", " 1e0000000000000000000005 "])
    def test_exponent_at_bound_parses(self, text):
        assert parse_scalar(text) == Fr(text.strip())

    @pytest.mark.parametrize("text", [
        "1e999999999", "0e999999999", "1e100001", "-1e-100001", "1e1_000_000",
        "1e\u0661\u0660\u0660\u0660\u0660\u0660\u0660",  # Arabic-Indic digits: 10**6
    ])
    def test_exponent_beyond_bound_refused(self, text):
        with pytest.raises(ValueError, match="exponent beyond 100000"):
            parse_scalar(text)

    def test_format_canonical(self):
        assert format_scalar(Fr(3, 4)) == "3/4"
        assert format_scalar(Fr(-8, 4)) == "-2"
        assert format_scalar(Fr(5)) == "5"

    def test_round_trip(self):
        for v in (Fr(22, 7), Fr(-1, 3), Fr(0), Fr(10**30, 7)):
            assert parse_scalar(format_scalar(v)) == v


def test_indeterminate_renders_as_t():
    assert str(T) == "t"
    assert str(T * T - 1) == "t^2 - 1"
