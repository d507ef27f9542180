import sys
from fractions import Fraction as Fr
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptacyclic import scalars
from heptacyclic.errors import DegreeCapError, PoleAtZeroError
from heptacyclic.scalars import (
    Poly,
    RatFun,
    T,
    coprime_fraction,
    eval_at_zero,
    format_scalar,
    parse_scalar,
    poly_gcd,
    scalar_formatter,
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


def assert_canonical(r):
    """The form eval0 relies on: num and den coprime, den monic, 0 as 0/1."""
    assert poly_gcd(r.num, r.den) == Poly.ONE
    assert r.den.leading == 1
    if r.is_zero:
        assert r.num.coeffs == () and r.den == Poly.ONE


@settings(max_examples=60)
@given(a=ratfuns, b=ratfuns, q=rationals)
def test_every_result_is_canonical(a, b, q):
    results = [a + b, a - b, a * b, q - a, -a]
    if not b.is_zero:
        results.append(a / b)
    if not a.is_zero:
        results.append(q / a)
    for r in results:
        assert_canonical(r)


@given(q=rationals)
def test_embedding_round_trip(q):
    assert eval_at_zero(RatFun(q)) == q


def test_mixed_arithmetic_coerces_rationals():
    assert T + Fr(1, 2) == RatFun(P(Fr(1, 2), 1))
    assert Fr(1, 2) * T == RatFun(P(0, Fr(1, 2)))
    assert (2 - T) + (T - 2) == RatFun(0)
    assert (2 - T) + (T - 2) == 0


def test_division_by_zero_ratfun():
    with pytest.raises(ZeroDivisionError):
        T / RatFun(0)


def t_power(k):
    return Poly([0] * k + [1])


def test_degree_cap_aborts_with_diagnostic():
    assert t_power(64).degree == 64
    with pytest.raises(DegreeCapError) as exc:
        t_power(65)
    assert str(exc.value) == "polynomial degree 65 exceeds cap 64"


def test_degree_cap_applies_to_products():
    assert (t_power(32) * t_power(32)).degree == 64
    with pytest.raises(DegreeCapError, match="degree 65 exceeds cap 64"):
        t_power(33) * t_power(32)


@pytest.mark.parametrize("k", [32, 33])
def test_degree_cap_bounds_unreduced_intermediates(k):
    # t^k/(t^k+1) * (t^k+1)/t^k reduces to 1 and 1/(t^k+1) + t/(t^k+1) to
    # (1+t)/(t^k+1), which for odd k cancels to a denominator of degree
    # k-1, but both build a polynomial of degree 2k first: at the cap for
    # k = 32, beyond it for k = 33
    tk = RatFun(t_power(k))
    quotient = tk / (tk + 1)
    summand = 1 / (tk + 1)
    if k == 33:
        with pytest.raises(DegreeCapError, match="degree 66 exceeds cap 64"):
            quotient * (1 / quotient)
        with pytest.raises(DegreeCapError, match="degree 66 exceeds cap 64"):
            summand + T * summand
    else:
        assert quotient * (1 / quotient) == 1
        assert summand + T * summand == RatFun(P(1, 1), P(1, *[0] * 31, 1))
        # t^31 + 1 = (t + 1)(t^30 - t^29 + ... + 1): the sum cancels
        s31 = 1 / RatFun(t_power(31) + Poly([1]))
        assert s31 + T * s31 == RatFun(1, Poly([(-1) ** j for j in range(31)]))


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

    @pytest.mark.parametrize("text", [
        "0", "-0", "+0", "007", "+5", "-12", "\u0661\u0662", "-\u0663", "+-5", "--5", "-", "+",
        "", " 5", "5 ", "1" * 640, "-" + "1" * 639, "-" + "1" * 640, "9" * 700, "1" * 4301,
    ])
    @pytest.mark.parametrize("limit", [None, 640])
    def test_integer_text_as_fraction_reads_it(self, text, limit):
        # an integer text skips Fraction's regex: same value, or the same error
        def outcome(fn):
            try:
                return fn()
            except ValueError as exc:
                return str(exc)

        def regex_route():
            # a text past the digit limit is read with the limit lifted
            inner = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                return Fr(text.strip())
            except ValueError as exc:
                raise ValueError(f"invalid scalar {text!r}") from exc
            finally:
                sys.set_int_max_str_digits(inner)

        saved = sys.get_int_max_str_digits()
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        try:
            assert outcome(lambda: parse_scalar(text)) == outcome(regex_route)
        finally:
            sys.set_int_max_str_digits(saved)

    def test_format_canonical(self):
        assert format_scalar(Fr(3, 4)) == "3/4"
        assert format_scalar(Fr(-8, 4)) == "-2"
        assert format_scalar(Fr(5)) == "5"

    def test_round_trip(self):
        for v in (Fr(22, 7), Fr(-1, 3), Fr(0), Fr(10**30, 7)):
            assert parse_scalar(format_scalar(v)) == v

    @pytest.mark.parametrize("limit", [None, 640, 5000])
    def test_round_trip_past_the_digit_limit(self, limit):
        # what format_scalar writes past the limit reads back, with the
        # limit lifted for the parse only
        saved = sys.get_int_max_str_digits()
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        try:
            expected = sys.get_int_max_str_digits()
            for v in (Fr(LONG + 1), Fr(-LONG - 1, 3), Fr(7, LONG + 3), Fr(-(10**9000), 10**8999 + 1)):
                assert parse_scalar(format_scalar(v)) == v
                assert sys.get_int_max_str_digits() == expected
            text = "-1." + "25" * 3000 + "e-7"
            # 0.2525...25, 3,000 pairs of digits
            pairs = Fr((100**3000 - 1) // 99 * 25, 100**3000)
            assert parse_scalar(text) == -(1 + pairs) / 10**7
            assert parse_scalar(" +" + "9" * 5000 + " ") == 10**5000 - 1
            assert sys.get_int_max_str_digits() == expected
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("text", ["1" * 5000 + "x", "1" * 5000 + "/0", "1/" + "0" * 5000,
                                      "1" * 5000 + "e100001"])
    def test_a_refused_long_text_restores_the_limit(self, text):
        saved = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match="invalid scalar"):
            parse_scalar(text)
        assert sys.get_int_max_str_digits() == saved


def test_indeterminate_renders_as_t():
    assert str(T) == "t"
    assert str(T * T - 1) == "t^2 - 1"


LONG = 10**5000  # past CPython's default int -> str digit limit


class TestCoprimeFraction:
    @pytest.mark.parametrize("p, q", [
        (0, 1), (1, 1), (-1, 1), (7, 3), (-7, 3), (5, 1), (-(2**521) + 1, 2**607 - 1),
        (-LONG - 1, 3), (1, LONG + 3),
    ], ids=["zero", "one", "minus-one", "7/3", "-7/3", "5", "mersenne", "long-num", "long-den"])
    def test_same_as_the_normalised_fraction(self, p, q):
        x, y = coprime_fraction(p, q), Fr(p, q)
        assert type(x) is Fr
        assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
        assert x == y and hash(x) == hash(y)
        assert (x + 1, x * 3, -x, abs(x)) == (y + 1, y * 3, -y, abs(y))
        assert x < y + 1 and x / 2 == y / 2

    @given(st.fractions())
    def test_any_reduced_pair(self, y):
        x = coprime_fraction(y.numerator, y.denominator)
        assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
        assert x == y and hash(x) == hash(y) and str(x) == str(y)


class TestScalarFormatter:
    VALUES = [
        Fr(-3, 7), Fr(3, 7), Fr(10, 7), Fr(-5), Fr(5), Fr(0), 0, 7, -7, True,
        2.5, -0.0, float("1e300"), Fr(-LONG - 1, 3), Fr(1, LONG + 3), Fr(LONG + 1),
        Fr(2, LONG + 3),
    ]

    def test_each_entry_as_format_scalar(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        fmt = scalar_formatter()
        # the second pass reads the denominators the first one kept
        for x in self.VALUES * 2:
            assert fmt(x) == format_scalar(x)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @given(st.lists(st.fractions(), max_size=30), st.integers(1, 10**30))
    def test_shared_denominators(self, values, q):
        values += [v / q for v in values]
        fmt = scalar_formatter()
        assert list(map(fmt, values)) == list(map(format_scalar, values))

    def test_past_the_digit_limit_on_its_own_path(self, monkeypatch):
        """A Fraction past the int -> str digit limit gets format_scalar's
        text without a call to format_scalar, and the limit is as before."""
        entries = [Fr(-LONG - 1, 3), Fr(1, LONG + 3), Fr(LONG + 1), Fr(LONG + 2, LONG + 3),
                   Fr(-7, LONG + 3)]
        expected = list(map(format_scalar, entries))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()

        def refused(x):
            raise AssertionError(f"format_scalar({x!r})")

        monkeypatch.setattr(scalars, "format_scalar", refused)
        fmt = scalar_formatter()
        assert list(map(fmt, entries)) == expected
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_a_shared_denominator_past_the_limit_is_made_once(self, monkeypatch):
        den = LONG + 3
        entries = [Fr(k, den) for k in range(-20, 21) if gcd(k, den) == 1]
        expected = list(map(format_scalar, entries))
        limit = sys.get_int_max_str_digits()
        settings = []
        set_limit = sys.set_int_max_str_digits

        def recorded(value):
            settings.append(value)
            set_limit(value)

        monkeypatch.setattr(sys, "set_int_max_str_digits", recorded)
        fmt = scalar_formatter()
        assert list(map(fmt, entries)) == expected
        # lifted once, for the denominator's one text, and restored
        assert settings == [0, limit]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_limit_restored_when_a_text_raises(self):
        class Unprintable(int):
            def __str__(self):
                if sys.get_int_max_str_digits():
                    raise ValueError("past the digit limit")
                raise RuntimeError("no text")

        limit = sys.get_int_max_str_digits()
        fmt = scalar_formatter()
        with pytest.raises(RuntimeError):
            fmt(coprime_fraction(Unprintable(5), 3))
        assert sys.get_int_max_str_digits() == limit

    def test_other_types_as_format_scalar(self):
        fmt = scalar_formatter()
        with pytest.raises(TypeError):
            fmt(T)
        with pytest.raises(TypeError):
            format_scalar(T)
