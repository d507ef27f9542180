"""Scalar field for the exact computation lane.

Three scalar kinds flow through the solvers:

* :class:`fractions.Fraction` — rationals of arbitrary precision, always
  reduced, positive denominator.
* ``Poly`` — univariate polynomial in the indeterminate ``t`` over
  rationals, coefficients stored ascending (index k holds the coefficient
  of t^k), leading coefficient nonzero; the zero polynomial is the empty
  coefficient tuple.
* ``RatFun`` — reduced ratio of two polynomials, the denominator's leading
  coefficient 1.
  It serves only the symbolic ``factor.factorize`` and
  ``factor.materialize_LU``: a pivot that would be exactly zero is replaced
  by ``T`` (the bare indeterminate) so divisions proceed, and the true value
  is recovered by :func:`eval_at_zero` at the end.  The determinant, solve
  and inverse paths evaluate at concrete points instead and never meet it.

All scalars are immutable; mixed arithmetic coerces ``int`` and ``Fraction``
operands into ``RatFun`` automatically.  Floats are deliberately rejected in
symbolic arithmetic: the float lane runs the shared recurrences of
:mod:`heptacyclic.kernels` over float64 bands and never meets ``t``.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress, islice, repeat
from math import isfinite
from operator import contains, not_, truediv

from .errors import DegreeCapError, PoleAtZeroError

_F_ZERO = Fraction(0)

# Degree cap: symbolic substitutions keep degrees tiny in practice, but the
# recurrences give no a-priori bound, so runaway growth is converted into a
# clear diagnostic instead of memory exhaustion.  The cap bounds every
# polynomial built, including the unreduced numerator and denominator of a
# RatFun sum, product or quotient before the gcd cancels: their degree is the
# sum of the operands' degrees, so a reduced result of degree above 32 may
# already be refused.
_DEGREE_CAP = 64


class Poly:
    """Univariate polynomial over exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [v if type(v) is Fraction else Fraction(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        if len(c) - 1 > _DEGREE_CAP:
            raise DegreeCapError(
                f"polynomial degree {len(c) - 1} exceeds cap {_DEGREE_CAP}")
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def eval0(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-v for v in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        out = [_F_ZERO] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return Poly(out)

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.degree
        lead = other.leading
        q = [_F_ZERO] * (len(rem) - dv)
        while len(rem) > dv:
            k = len(rem) - 1 - dv
            fac = rem.pop() / lead
            q[k] = fac
            for j, v in enumerate(other.coeffs[:-1]):
                rem[k + j] -= fac * v
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            v = self.coeffs[k]
            if v == 0:
                continue
            if k == 0:
                parts.append(str(v))
            elif k == 1:
                parts.append("t" if v == 1 else ("-t" if v == -1 else f"{v}*t"))
            else:
                parts.append(f"t^{k}" if v == 1 else (f"-t^{k}" if v == -1 else f"{v}*t^{k}"))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


Poly.ONE = Poly((1,))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, leading coefficient 1, by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    while not q.is_zero:
        p, q = q, p % q
    lead = p.leading
    return Poly([v / lead for v in p.coeffs])


def _coerced(op):
    """A binary RatFun method from ``op(self, other)``, with ``int`` and
    ``Fraction`` operands coerced and any other type left to Python."""
    def method(self, other):
        try:
            other = RatFun.coerce(other)
        except TypeError:
            return NotImplemented
        return op(self, other)
    return method


def _quotient(a: "RatFun", b: "RatFun") -> "RatFun":
    if b.is_zero:
        raise ZeroDivisionError("division by zero rational function")
    return RatFun(a.num * b.den, a.den * b.num)


class RatFun:
    """Reduced rational function num/den, the leading coefficient of den 1.

    The constructor is the only way one is built: it cancels the gcd of
    numerator and denominator (unless the denominator is a constant) and
    scales the denominator's leading coefficient to 1, and every operation is
    one constructor call on the textbook formula.  The t->0 substitution of
    :meth:`eval0` is only correct on this canonical form, once removable
    factors have cancelled.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly((num,))
        if den is None:
            den = Poly.ONE
        elif not isinstance(den, Poly):
            den = Poly((den,))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = Poly.ONE
        elif den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num //= g
                den //= g
        lead = den.leading
        if lead != 1:
            num = Poly([v / lead for v in num.coeffs])
            den = Poly([v / lead for v in den.coeffs])
        self.num = num
        self.den = den

    @staticmethod
    def coerce(value) -> "RatFun":
        if isinstance(value, RatFun):
            return value
        if isinstance(value, (int, Fraction)):
            return RatFun(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into a rational function")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    __add__ = __radd__ = _coerced(lambda a, b: RatFun(a.num * b.den + b.num * a.den, a.den * b.den))
    __sub__ = _coerced(lambda a, b: a + -b)
    __rsub__ = _coerced(lambda a, b: b + -a)
    __mul__ = __rmul__ = _coerced(lambda a, b: RatFun(a.num * b.num, a.den * b.den))
    __truediv__ = _coerced(_quotient)
    __rtruediv__ = _coerced(lambda a, b: _quotient(b, a))

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_constant:
            return hash(self.num.eval0())
        return hash((self.num.coeffs, self.den.coeffs))

    def eval0(self) -> Fraction:
        d0 = self.den.eval0()
        if d0 == 0:
            raise PoleAtZeroError("pole at t=0")
        return self.num.eval0() / d0

    def __str__(self) -> str:
        if self.den == Poly.ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFun({self})"


#: The shared indeterminate used by every zero-entry substitution.
T = RatFun(Poly((0, 1)))


def eval_at_zero(x) -> Fraction:
    """Substitute t=0 into a reduced scalar.

    Identity on rationals; on a rational function it evaluates num(0)/den(0)
    and raises :class:`PoleAtZeroError` when the denominator vanishes there.
    """
    if isinstance(x, RatFun):
        return x.eval0()
    return Fraction(x)


# Largest decimal exponent a scalar text may carry.  Fraction builds
# 10**exponent, whose cost grows faster than the exponent (1e999999999 would
# need about 400 MB); at this bound a parse takes milliseconds.
MAX_EXPONENT = 100_000

# the exponent of Fraction's decimal form (\d: it takes any Unicode digit)
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\Z")


# CPython refuses int <-> str conversions past a digit limit that can be set
# no lower than 640.  int() and Fraction meet it on a longer text and float()
# does not, so a longer text takes Fraction's route, with the limit lifted.
_SHORT_TEXT = 640


def _exceeds_bound(digits: str) -> bool:
    """Whether an exponent's digits exceed MAX_EXPONENT, read only as far as
    needed: int() of the whole string would meet CPython's digit limit."""
    value = 0
    for digit in digits.replace("_", ""):
        value = value * 10 + int(digit)
        if value > MAX_EXPONENT:
            return True
    return False


def parse_scalar(text: str) -> Fraction:
    """Parse the scalar grammar used by all file formats.

    The grammar is the one ``fractions.Fraction`` accepts: ``p/q`` with an
    optional sign on p, or an integer or terminating decimal with an
    optional exponent (``-2``, ``0.25``, ``1e-3``), digits optionally grouped
    by single underscores; surrounding whitespace is ignored.  The value is
    exact.  An exponent beyond ``MAX_EXPONENT`` in magnitude is refused.  A
    text past CPython's int <-> str digit limit is read with the limit
    lifted for this call only, as ``format_scalar`` writes one, so every
    text the package writes reads back.
    """
    # an integer text has no exponent, underscore or space for the bound or
    # the grammar to act on, and int() reads it as Fraction's regex does
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isdecimal() and len(text) <= _SHORT_TEXT:
        return Fraction(int(text))
    stripped = text.strip()
    exponent = _EXPONENT.search(stripped)
    if exponent is not None and _exceeds_bound(exponent.group(1)):
        raise ValueError(f"invalid scalar {text!r}: exponent beyond {MAX_EXPONENT} in magnitude")
    try:
        if len(stripped) <= _SHORT_TEXT:
            return Fraction(stripped)
        # the texts this package writes pass the int <-> str digit limit
        with _digit_limit_lifted():
            return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid scalar {text!r}") from exc


_INF = float("inf")


def float_scalar(text: str):
    """The float64 value of a scalar text: ``float(parse_scalar(text))``.

    ``Fraction.__float__`` divides two ints, which CPython rounds correctly,
    so this is the correctly rounded value, and a zero keeps the exact
    parse's sign (``-0`` gives 0.0, ``-1e-400`` gives -0.0).  A text that
    ``parse_scalar`` rejects (``inf``, ``nan``, ``1/0``) raises its
    ValueError.  A value beyond the float64 range comes back as the exact
    Fraction, for the caller to report with its position
    (``matrix.float_vector``).

    This is the one definition of an entry's float; the file readers call
    it through ``float_entries``, which reads the common shapes a batch at a
    time and sends every other entry here.
    """
    exact = parse_scalar(text)
    try:
        return float(exact)
    except OverflowError:
        return exact


# a ratio's halves below 2**53 are exact floats; a float below it cannot
# come from an integer at or above it, since rounding keeps the order
_EXACT_HALF = float(2**53)

_NO_SIGN = str.maketrans("", "", "+-")

# texts per batch of float_entries: bounds the halves and floats held at
# once (read whole, a p/q band of n = 10^5 raised the peak RSS by 18 MB)
_BATCH = 4096


def _batched_floats(texts: list) -> list:
    """Floats of texts that are all decimals or ``p/q`` ratios
    (``float_entries``), in whole-batch passes; ValueError on any other text,
    ZeroDivisionError on a ratio with q = 0.

    A ratio's halves are exact floats, so their IEEE quotient is the
    correctly rounded ``int(p) / int(q)``: CPython's ``int / int`` divides
    the same two floats when both are below 2**53.
    """
    if max(map(len, texts), default=0) > _SHORT_TEXT:
        raise ValueError("a text too long for float()")
    slashes = "".join(texts).count("/")
    if not slashes:
        return list(map(float, texts))
    ratio = list(map(contains, texts, repeat("/")))
    halves = "/".join(compress(texts, ratio)).split("/")
    # with one slash in each ratio text the halves alternate p, q; float()
    # refuses an empty half and a sign anywhere but first in p
    if (sum(ratio) != slashes
            or not "".join(halves[1::2]).isdecimal()
            or not "".join(halves[0::2]).translate(_NO_SIGN).isdecimal()):
        raise ValueError("a text of neither shape")
    half = list(map(float, halves))
    if not -_EXACT_HALF < min(half) <= max(half) < _EXACT_HALF:
        raise ValueError("a ratio half a float cannot hold")
    quotients = map(truediv, half[0::2], half[1::2])
    if slashes == len(texts):
        return list(quotients)
    # each entry takes the next value of its shape, in order; the counts
    # match, so no iterator runs out
    parts = (map(float, compress(texts, map(not_, ratio))), quotients)
    return list(map(next, map(parts.__getitem__, ratio)))


def float_entries(texts) -> list:
    """``list(map(float_scalar, texts))``, bit for bit, with ``float_scalar``
    run only on the odd entry.

    The texts (any iterable of str) are read ``_BATCH`` at a time.  Two
    shapes are read in whole-batch passes: a decimal text (no ``/``) by
    ``float()``, and a ratio ``p/q`` whose halves are decimal digits, with
    one optional sign on p, each below 2**53 in magnitude, by
    ``float(p) / float(q)``.  Each gives what ``float_scalar`` gives for a
    finite nonzero value.  An entry whose value is zero or not finite (for
    its sign, its range or its error) takes ``float_scalar``, and so does
    every entry of a batch with a text of another shape, a text over
    ``_SHORT_TEXT`` characters or one that ``float()`` refuses.  An error is
    therefore the one ``float_scalar`` raises for the first entry it fails.
    """
    values = []
    texts = iter(texts)
    while batch := list(islice(texts, _BATCH)):
        try:
            part = _batched_floats(batch)
        except (ValueError, ZeroDivisionError):
            part = list(map(float_scalar, batch))
        else:
            # an infinity or a NaN makes the sum non-finite (as an
            # overflowing sum of finite values does, which only costs the loop)
            if 0.0 in part or not isfinite(sum(part)):
                for k, value in enumerate(part):
                    if not 0.0 < abs(value) < _INF:
                        part[k] = float_scalar(batch[k])
        values += part
    return values


def coprime_fraction(p: int, q: int) -> Fraction:
    """The Fraction p/q for ints p and q > 0 with gcd(p, q) = 1, built
    without the gcd that ``Fraction(p, q)`` takes to reduce them.

    A Fraction holds its value in the slots ``_numerator`` and
    ``_denominator`` on every Python this package supports (3.10 on), and
    both of the standard library's own shortcuts (``_normalize=False`` up
    to 3.11, ``_from_coprime_ints`` from 3.12) fill just those two, so
    this is the one route that works on all of them.
    """
    x = object.__new__(Fraction)
    x._numerator = p
    x._denominator = q
    return x


def scalar_formatter():
    """A function that returns ``format_scalar(x)`` for each x it is given,
    and makes the text of each distinct denominator once.

    The entries of an exact inverse share a few denominators (det H' over
    one of a few gcds), each about as long as a numerator: at n = 256 the
    65,536 entries have 210, and formatting them takes about half the
    time of ``format_scalar``.  This holds past the int -> str digit limit
    too: a solve's x at n = 4000 shares 137 denominators of 5,861 digits.
    A float is its ``repr``, an entry of another type takes
    ``format_scalar``.
    """
    tails = {}

    def fmt(x) -> str:
        if type(x) is not Fraction:
            return repr(x) if type(x) is float else format_scalar(x)
        den = x.denominator
        if den == 1:
            return _int_text(x.numerator)
        tail = tails.get(den)
        if tail is None:
            tail = tails[den] = "/" + _int_text(den)
        try:
            return str(x.numerator) + tail
        except ValueError:  # past the int -> str digit limit
            return _int_text(x.numerator) + tail

    return fmt


def _int_text(v: int) -> str:
    """str(v), with CPython's int -> str digit limit (4300 digits by
    default) lifted for this call only when v is past it."""
    try:
        return str(v)
    except ValueError:  # past the digit limit
        with _digit_limit_lifted():
            return str(v)


@contextmanager
def _digit_limit_lifted():
    """CPython's int <-> str digit limit lifted inside the block, where
    Python has one, and restored however the block ends."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def format_scalar(x) -> str:
    """Canonical text form: ``p/q`` for non-integers, plain integer otherwise.

    An integer past CPython's int -> str digit limit is formatted with the
    limit lifted for this call only.  A matrix of entries is formatted
    faster by ``scalar_formatter``.
    """
    if isinstance(x, float):
        return repr(x)
    value = x if type(x) is Fraction else Fraction(x)
    if value.denominator == 1:
        return _int_text(value.numerator)
    return _int_text(value.numerator) + "/" + _int_text(value.denominator)
