"""Exact scalars in the quadratic field Q(sqrt2).

Every coefficient in this library is a ``Scalar``: a pair of rationals
(a, b) representing a + b*sqrt(2), stored in lowest terms.  Arithmetic is
exact; there is no rounding anywhere.  ``float()`` is provided only as a
diagnostic / fallback conversion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]

_FRACTION_ZERO = Fraction(0)


class Scalar:
    """An element a + b*sqrt(2) of Q(sqrt2), with a, b exact rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def sqrt2() -> "Scalar":
        return Scalar(0, 1)

    @staticmethod
    def from_string(text: str) -> "Scalar":
        """Parse the canonical serialization (see ``__str__``).

        Accepted forms: "p/q", "p/q*sqrt2", "p/q+r/s*sqrt2", "p/q-r/s*sqrt2",
        with integer numerators/denominators and no spaces; else ValueError.
        """
        s = text.strip().replace(" ", "")
        try:
            if "sqrt2" not in s:
                return Scalar(Fraction(s))
            head, _, _ = s.partition("sqrt2")
            if head.endswith("*"):
                head = head[:-1]
            # split off the rational part, if any; find the sign that separates
            # it from the sqrt2 coefficient (not the leading sign, not one inside /)
            split = -1
            for i in range(1, len(head)):
                if head[i] in "+-" and head[i - 1] not in "+-*/":
                    split = i
            if split < 0:
                rat, coef = "0", head
            else:
                rat, coef = head[:split], head[split:]
            if coef in ("", "+"):
                coef = "1"
            elif coef == "-":
                coef = "-1"
            return Scalar(Fraction(rat), Fraction(coef))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed scalar {text!r}") from exc

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
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (other.a or other.b):
            return self
        return Scalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(other.a - self.a, other.b - self.b)

    def __neg__(self):
        return Scalar(-self.a, -self.b)

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
            return Scalar(a * c)
        return Scalar(a * c + 2 * b * d, a * d + b * c)

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

    def __le__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() >= 0

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

    def norm(self) -> Fraction:
        """Field norm a^2 - 2 b^2 (a rational)."""
        return self.a * self.a - 2 * self.b * self.b

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 1.4142135623730951

    def __str__(self) -> str:
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
        raise TypeError(f"cannot interpret {x!r} as a Q(sqrt2) scalar")
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT2 = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))
HALF_SQRT2 = Scalar(0, Fraction(1, 2))
