"""Scalar field for the exact computation lane.

Three scalar kinds flow through the solvers:

* :class:`fractions.Fraction` — rationals of arbitrary precision, always
  reduced, positive denominator.
* ``Poly`` — univariate polynomial in the indeterminate ``t`` over
  rationals, coefficients stored ascending (index k holds the coefficient
  of t^k), leading coefficient nonzero; the zero polynomial is the empty
  coefficient tuple.
* ``RatFun`` — reduced ratio of two polynomials with a monic denominator.
  This carries the paper's zero-entry substitution in the symbolic
  ``factor.factorize``: a pivot that would be exactly zero is replaced by
  ``T`` (the bare indeterminate) so divisions proceed, and the true value
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
from fractions import Fraction

from .errors import DegreeCapError, PoleAtZeroError

_F_ZERO = Fraction(0)

# Degree cap: symbolic substitutions keep degrees tiny in practice, but the
# recurrences give no a-priori bound, so runaway growth is converted into a
# clear diagnostic instead of memory exhaustion.
_DEGREE_CAP = 64


def set_degree_cap(cap: int) -> None:
    """Adjust the maximum polynomial degree allowed (default 64)."""
    global _DEGREE_CAP
    if cap < 1:
        raise ValueError("degree cap must be positive")
    _DEGREE_CAP = cap


class Poly:
    """Univariate polynomial over exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [v if type(v) is Fraction else Fraction(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        if len(c) - 1 > _DEGREE_CAP:
            raise DegreeCapError(
                f"polynomial degree {len(c) - 1} exceeds cap {_DEGREE_CAP}; "
                "raise it with scalars.set_degree_cap() if this input is legitimate"
            )
        self.coeffs = tuple(c)

    @classmethod
    def _make(cls, c: list) -> "Poly":
        """Internal: wrap a list of Fractions, trimming trailing zeros."""
        while c and not c[-1]:
            c.pop()
        if len(c) - 1 > _DEGREE_CAP:
            raise DegreeCapError(
                f"polynomial degree {len(c) - 1} exceeds cap {_DEGREE_CAP}; "
                "raise it with scalars.set_degree_cap() if this input is legitimate"
            )
        self = object.__new__(cls)
        self.coeffs = tuple(c)
        return self

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

    def monic(self) -> "Poly":
        lead = self.leading
        if lead == 1:
            return self
        return Poly._make([v / lead for v in self.coeffs])

    def eval0(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Poly._make(out)

    def __neg__(self) -> "Poly":
        return Poly._make([-v for v in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) >= len(b):
            out = list(a)
            for i, v in enumerate(b):
                out[i] -= v
        else:
            out = [-v for v in b]
            for i, v in enumerate(a):
                out[i] += v
        return Poly._make(out)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.ZERO
        if len(a) == 1:
            u = a[0]
            return Poly._make([u * v for v in b])
        if len(b) == 1:
            u = b[0]
            return Poly._make([u * v for v in a])
        out = [_F_ZERO] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        return Poly._make(out)

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.degree
        lead = other.leading
        q = [_F_ZERO] * max(0, len(rem) - dv)
        while len(rem) - 1 >= dv:
            if not rem[-1]:
                rem.pop()
                continue
            k = len(rem) - 1 - dv
            fac = rem[-1] / lead
            q[k] = fac
            for j, v in enumerate(other.coeffs[:-1]):
                if v:
                    rem[k + j] -= fac * v
            rem.pop()
        return Poly._make(q), Poly._make(rem)

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


Poly.ZERO = Poly()
Poly.ONE = Poly((1,))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    while not q.is_zero:
        p, q = q, p % q
    return p.monic()


class RatFun:
    """Reduced rational function num/den with a monic denominator.

    The canonical form is restored eagerly after every operation: the t->0
    substitution is only correct once removable factors have cancelled, and
    eager reduction also bounds coefficient growth.  Addition and
    multiplication cancel across reduced operands first (Henrici's scheme),
    which keeps the gcd work on low-degree polynomials.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly((Fraction(num),))
        if den is None:
            den = Poly.ONE
        elif not isinstance(den, Poly):
            den = Poly((Fraction(den),))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num = Poly.ZERO
            self.den = Poly.ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num //= g
            den //= g
        lead = den.leading
        if lead != 1:
            num = Poly._make([v / lead for v in num.coeffs])
            den = Poly._make([v / lead for v in den.coeffs])
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFun":
        """Wrap an already-reduced pair, only normalizing the denominator."""
        self = object.__new__(cls)
        if num.is_zero:
            self.num = Poly.ZERO
            self.den = Poly.ONE
            return self
        lead = den.leading
        if lead != 1:
            num = Poly._make([v / lead for v in num.coeffs])
            den = Poly._make([v / lead for v in den.coeffs])
        self.num = num
        self.den = den
        return self

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

    def _add_sub(self, o: "RatFun", sign: int) -> "RatFun":
        on = o.num if sign > 0 else -o.num
        if self.den.degree == 0 and o.den.degree == 0:
            # both denominators are 1 after normalization
            return RatFun._reduced(self.num + on, Poly.ONE)
        g = poly_gcd(self.den, o.den) if (self.den.degree and o.den.degree) else Poly.ONE
        if g.degree == 0:
            # coprime reduced denominators: the result is already reduced
            num = self.num * o.den + on * self.den
            return RatFun._reduced(num, self.den * o.den)
        d1 = self.den // g
        d2 = o.den // g
        num = self.num * d2 + on * d1
        if num.is_zero:
            return RatFun(Poly.ZERO)
        # a leftover common factor can only sit inside g
        g2 = poly_gcd(num, g)
        if g2.degree > 0:
            num //= g2
            g //= g2
        return RatFun._reduced(num, d1 * d2 * g)

    def __add__(self, other):
        try:
            o = RatFun.coerce(other)
        except TypeError:
            return NotImplemented
        return self._add_sub(o, +1)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = RatFun.coerce(other)
        except TypeError:
            return NotImplemented
        return self._add_sub(o, -1)

    def __rsub__(self, other):
        try:
            o = RatFun.coerce(other)
        except TypeError:
            return NotImplemented
        return o - self

    def _mul_pair(self, num1: Poly, den1: Poly, num2: Poly, den2: Poly) -> "RatFun":
        # cross-cancel: with both inputs reduced, the product of the leftover
        # pairs is reduced too
        if num1.is_zero or num2.is_zero:
            return RatFun(Poly.ZERO)
        if den2.degree > 0 and num1.degree > 0:
            g = poly_gcd(num1, den2)
            if g.degree > 0:
                num1 //= g
                den2 //= g
        if den1.degree > 0 and num2.degree > 0:
            g = poly_gcd(num2, den1)
            if g.degree > 0:
                num2 //= g
                den1 //= g
        return RatFun._reduced(num1 * num2, den1 * den2)

    def __mul__(self, other):
        try:
            o = RatFun.coerce(other)
        except TypeError:
            return NotImplemented
        return self._mul_pair(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = RatFun.coerce(other)
        except TypeError:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return self._mul_pair(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        try:
            o = RatFun.coerce(other)
        except TypeError:
            return NotImplemented
        return o / self

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


def is_zero(x) -> bool:
    """Exact zero test for any exact scalar."""
    if isinstance(x, RatFun):
        return x.is_zero
    return x == 0


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
    exact.  An exponent beyond ``MAX_EXPONENT`` in magnitude is refused.
    """
    stripped = text.strip()
    exponent = _EXPONENT.search(stripped)
    if exponent is not None and _exceeds_bound(exponent.group(1)):
        raise ValueError(f"invalid scalar {text!r}: exponent beyond {MAX_EXPONENT} in magnitude")
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid scalar {text!r}") from exc


# Fraction's p/q form: an optional sign on p, digits with single underscores
# between them, and no space around the slash (``1/ 2`` and ``1/-2`` are
# invalid, although int() would take either half)
_RATIO = re.compile(r"\s*[-+]?\d+(?:_\d+)*/\d+(?:_\d+)*\s*")

# CPython refuses int <-> str conversions past a digit limit that can be set
# no lower than 640.  Fraction meets it on a longer text and float() does
# not, so a longer text takes the exact route.
_SHORT_TEXT = 640

_INF = float("inf")


def float_scalar(text: str):
    """The float64 value of a scalar text, with the bits of
    ``float(parse_scalar(text))`` and without building a Fraction for a
    plain entry.

    ``float(str)`` rounds correctly, and so does ``int / int``, which is what
    ``Fraction.__float__`` computes, so a finite nonzero result needs no
    Fraction.  Any other text takes the exact route: a zero keeps the exact
    parse's sign (``-0`` gives 0.0, ``-1e-400`` gives -0.0), and a text that
    ``parse_scalar`` rejects (``inf``, ``nan``, ``1/0``) raises its ValueError.
    A value beyond the float64 range comes back as the exact Fraction, for
    the caller to report with its position (``matrix.float_vector``).
    """
    value = 0.0
    if "/" not in text:
        if len(text) <= _SHORT_TEXT:
            try:
                value = float(text)
            except ValueError:
                pass
    elif _RATIO.fullmatch(text):
        p, q = text.split("/")
        try:
            value = int(p) / int(q)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    if 0.0 < abs(value) < _INF:
        return value
    exact = parse_scalar(text)
    try:
        return float(exact)
    except OverflowError:
        return exact


def format_scalar(x) -> str:
    """Canonical text form: ``p/q`` for non-integers, plain integer otherwise.

    An integer past CPython's int -> str digit limit (4300 digits by default)
    is formatted with the limit lifted for this call only.
    """
    if isinstance(x, float):
        return repr(x)
    value = Fraction(x)
    try:
        return str(value)
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            raise
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)
