"""Exact scalars in the quadratic field Q(sqrt2).

Every coefficient in this library is a ``Scalar``: a pair of rationals
(a, b) representing a + b*sqrt(2), stored in lowest terms.  Arithmetic is
exact; there is no rounding anywhere, and no conversion to a float.

``Scalar(a, b)`` checks and converts its parts; arithmetic builds its results
unchecked with ``_new``, and a rational one shares one zero sqrt2 part.
"""

from __future__ import annotations

import re
import reprlib
import sys
from fractions import Fraction
from functools import total_ordering
from math import lcm
from typing import Collection, Union

RationalLike = Union[int, Fraction, str]
_ZERO = Fraction(0)
_set = object.__setattr__


class DomainError(ValueError):
    """Input outside the domain the library decides: a malformed scalar, a
    mode the question does not cover.  The command line reports it with
    exit code 2."""


@total_ordering
class Scalar:
    """An element a + b*sqrt(2) of Q(sqrt2), with a, b exact rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = _ZERO, b: RationalLike = _ZERO):
        _set(self, "a", a if type(a) is Fraction else
             Fraction(a) if type(a) is int else _fraction(a))
        _set(self, "b", b if type(b) is Fraction else
             Fraction(b) if type(b) is int else _fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_string(text: str) -> "Scalar":
        """Parse the canonical serialization (see ``__str__``).

        Accepted forms: "p/q", "p/q*sqrt2", "p/q+r/s*sqrt2", "p/q-r/s*sqrt2",
        where "/q" and "r/s*" may be left out, a leading sign is allowed and
        p, q, r, s are ASCII digits, q and s not zero; spaces are dropped.
        Anything else (decimals, exponents, underscores) raises DomainError,
        and so does a numeral past ``sys.get_int_max_str_digits()``.
        """
        m = _SCALAR_TEXT.fullmatch(text.strip().replace(" ", ""))
        if m is None:
            raise DomainError(f"malformed scalar {_shown(text)}")
        try:
            a = _rational(m["a"] or "0", m["ad"])
            if m["bs"] is None:
                return Scalar(a)
            b = _rational(m["b"] or "1", m["bd"])
            return Scalar(a, -b if m["bs"] == "-" else b)
        except ValueError as exc:  # int() of a numeral past the conversion limit
            raise DomainError(f"scalar too large: {_shown(text)} has a numeral of more "
                              f"than {sys.get_int_max_str_digits()} digits") from exc

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_rational(self) -> bool:
        return not self.b

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt2."""
        a, b = self.a, self.b
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return (b > 0) - (b < 0)
        sa = 1 if a > 0 else -1
        sb = 1 if b > 0 else -1
        if sa == sb:
            return sa
        # mixed signs: |a| vs |b|*sqrt2 decided by a^2 vs 2 b^2
        return sa if a * a > 2 * b * b else sb

    # -- arithmetic --------------------------------------------------------

    # +, - and * return early on a zero operand: most operands in the
    # curvature pipeline are zero.

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (other.a or other.b):
            return self
        if not (self.a or self.b):
            return other
        return _new(self.a + other.a, self.b + other.b if self.b or other.b else _ZERO)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (other.a or other.b):
            return self
        return _new(self.a - other.a, self.b - other.b if self.b or other.b else _ZERO)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _new(other.a - self.a, other.b - self.b if self.b or other.b else _ZERO)

    def __neg__(self):
        return _new(-self.a, -self.b if self.b else _ZERO)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        if not (a or b):
            return self
        if not (c or d):
            return other
        if not b and not d:
            return _new(a * c, _ZERO)
        return _new(a * c + 2 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.a * self.a - 2 * self.b * self.b
        if not n:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return Scalar(self.a / n, -self.b / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons (total order on the real line) -------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return not self.is_zero()

    # -- conversions ---------------------------------------------------------

    def conjugate(self) -> "Scalar":
        """Galois conjugate a - b*sqrt2."""
        return Scalar(self.a, -self.b)

    def __str__(self) -> str:
        try:
            return self._text()
        except ValueError as exc:  # an integer past the conversion limit
            raise DomainError("scalar too large to print: more than "
                              f"{sys.get_int_max_str_digits()} digits") from exc

    def _text(self) -> str:
        if not self.b:
            return str(self.a)
        coef = str(self.b) if self.b != 1 else ""
        if self.b == -1:
            coef = "-"
        root = f"{coef}*sqrt2" if coef not in ("", "-") else f"{coef}sqrt2"
        if not self.a:
            return root
        sep = "+" if self.b > 0 else ""
        return f"{self.a}{sep}{root}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _new(a: Fraction, b: Fraction) -> Scalar:
    """The scalar a + b*sqrt2 from two Fractions, unchecked: the trusted
    constructor of arithmetic results."""
    s = object.__new__(Scalar)
    _set(s, "a", a)
    _set(s, "b", b)
    return s


# p/q, then [+-] r/s*sqrt2, with q, s != 0; the rational part is cut off only
# before a sign or the end, so "2sqrt2" is refused
_SCALAR_TEXT = re.compile(
    r"(?!$)(?:(?P<a>[+-]?[0-9]+)(?:/(?P<ad>0*[1-9][0-9]*))?(?=[+-]|$))?"
    r"(?:(?P<bs>[+-]?)(?:(?P<b>[0-9]+)(?:/(?P<bd>0*[1-9][0-9]*))?\*)?sqrt2)?")


class _Shown(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # repr() refuses an int past sys.get_int_max_str_digits()
            return f"<int of more than {sys.get_int_max_str_digits()} digits>"


# the offending value in a refusal: its repr, cut to a bounded length and depth
_shown = _Shown().repr


def _rational(num: str, den: str | None):
    return Fraction(int(num), int(den)) if den else int(num)


def _fraction(x) -> Fraction:
    """A ``Scalar`` part whose type is neither int nor Fraction: a str must be
    a rational in the scalar grammar, not in Fraction's wider one, and any
    part but a str, an int or a Fraction (bool included) raises TypeError."""
    if isinstance(x, str):
        s = Scalar.from_string(x)
        if s.b:
            raise DomainError(f"malformed scalar {_shown(x)}")
        return s.a
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {_shown(x)} as a rational scalar part")


def _coerce(x) -> "Scalar":
    if type(x) is Scalar:
        return x
    if isinstance(x, int) or isinstance(x, Fraction):
        return Scalar(x)
    if isinstance(x, Scalar):
        return x
    return NotImplemented


def as_scalar(x) -> Scalar:
    """Coerce an int/Fraction/str/Scalar into a Scalar, raising on failure."""
    if type(x) is Scalar:
        return x
    if isinstance(x, str):
        return Scalar.from_string(x)
    s = _coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot interpret {_shown(x)} as a Q(sqrt2) scalar")
    return s


def json_int(x, what: str) -> int:
    """An integer field of a JSON document.  JSON true/false and numbers
    with a fraction part or an exponent are refused, not truncated."""
    if type(x) is not int:
        raise DomainError(f"{what} must be an integer, not {_shown(x)}")
    return x


def json_list(x, what: str) -> list:
    """A list field of a JSON document."""
    if type(x) is not list:
        raise DomainError(f"{what} must be a list, not {_shown(x)}")
    return x


def json_object(x, what: str) -> dict:
    """An object field of a JSON document, or the document itself."""
    if type(x) is not dict:
        raise DomainError(f"{what} must be an object, not {_shown(x)}")
    return x


def json_scalar(x, what: str) -> Scalar:
    """A scalar field of a JSON document: a string in the format of
    ``Scalar.__str__`` or an integer.  JSON true/false and numbers with a
    fraction part or an exponent, which a float may not hold exactly, are
    refused."""
    if type(x) is not int and not isinstance(x, str):
        raise DomainError(f"{what} must be a string or an integer, not {_shown(x)}")
    return as_scalar(x)


# -- Z[sqrt2] integer pairs ----------------------------------------------------
#
# The integer kernels (``Echelon``, ``pullback``, ``bilinear_volume_form``,
# ``ninth_root``) hold scalars as pairs (p, q) of integers over one common
# denominator den, meaning (p + q*sqrt2) / den.  These two helpers are the
# only way in and out.


def _clear_denominators(xs: Collection[Scalar]) -> tuple[int, list[tuple[int, int]]]:
    """(den, [(p, q), ...]) with x = (p + q*sqrt2) / den for each x of xs in
    turn, den the least common denominator of their parts."""
    den = 1
    for x in xs:
        den = lcm(den, x.a.denominator, x.b.denominator)
    if den == 1:
        return den, [(x.a.numerator, x.b.numerator) for x in xs]
    return den, [(x.a.numerator * (den // x.a.denominator),
                  x.b.numerator * (den // x.b.denominator)) for x in xs]


def _pair_scalar(p: int, q: int, den: int) -> Scalar:
    """The scalar (p + q*sqrt2) / den, for integers p, q and den != 0."""
    if den == 1:
        return Scalar(p, q)
    return Scalar(Fraction(p, den), Fraction(q, den))


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT2 = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))
HALF_SQRT2 = Scalar(0, Fraction(1, 2))
