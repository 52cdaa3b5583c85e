import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2aa.scalars import HALF_SQRT2, ONE, SQRT2, ZERO, DomainError, Scalar, as_scalar


def test_basic_arithmetic():
    x = Scalar(Fraction(1, 2), Fraction(3, 4))
    y = Scalar(2, -1)
    assert x + y == Scalar(Fraction(5, 2), Fraction(-1, 4))
    assert x * SQRT2 == Scalar(Fraction(3, 2), Fraction(1, 2))
    assert SQRT2 * SQRT2 == Scalar(2)
    assert (x / x) == ONE
    assert -x + x == ZERO


def test_norm_identity_randomized():
    rng = random.Random(1)
    for _ in range(300):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        s = Scalar(a, b)
        # (a + b sqrt2)(a - b sqrt2) = a^2 - 2 b^2
        assert s * s.conjugate() == Scalar(a * a - 2 * b * b)


def test_field_axioms_randomized():
    rng = random.Random(2)
    for _ in range(200):
        xs = [Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                     Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(3)]
        x, y, z = xs
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == ONE


def test_sign_exact():
    assert Scalar(1, -1).sign() < 0  # 1 - sqrt2 < 0
    assert Scalar(3, -2).sign() > 0  # 3 - 2 sqrt2 = 0.17...
    assert Scalar(-3, 2).sign() < 0
    assert Scalar(0, 0).sign() == 0
    assert HALF_SQRT2.sign() > 0
    # compare against float as a sanity oracle
    rng = random.Random(3)
    for _ in range(300):
        s = Scalar(Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
                   Fraction(rng.randint(-8, 8), rng.randint(1, 6)))
        f = float(s.a) + float(s.b) * math.sqrt(2)
        if abs(f) > 1e-9:
            assert s.sign() == (1 if f > 0 else -1)


# (x, y, sign of x - y); the first cases sit near cancellation
ORDER_CASES = [
    (Scalar(3, -2), 0, 1),                    # 3 - 2 sqrt2 = 0.17...
    (Scalar(Fraction(99, 70)), SQRT2, 1),     # 99/70 - sqrt2 = 7.2e-5
    (Scalar(Fraction(140, 99)), SQRT2, -1),   # 140/99 - sqrt2 = -3.6e-5
    (Scalar(577, -408), Fraction(1, 1154), 1),  # 577 - 408 sqrt2 = 1/1153.9...
    (Scalar(1, 1), Scalar(1, 1), 0),
    (Scalar(Fraction(1, 2)), Fraction(1, 2), 0),
    (Scalar(-2), -2, 0),
    (Scalar(0, -1), -1, -1),
    (SQRT2, 2, -1),
    (Scalar(Fraction(-3, 7), Fraction(1, 5)), Scalar(Fraction(-1, 3), Fraction(1, 9)), 1),
]


@pytest.mark.parametrize("x,y,sign", ORDER_CASES)
def test_ordering_agrees_with_the_sign_of_the_difference(x, y, sign):
    assert (x - y).sign() == sign
    for a, b, s in ((x, y, sign), (y, x, -sign)):
        assert (a < b, a <= b, a > b, a >= b) == (s < 0, s <= 0, s > 0, s >= 0)


def test_ordering_against_a_string_raises():
    for a, b in ((ONE, "1"), ("1", ONE)):
        for op in (lambda u, v: u < v, lambda u, v: u <= v,
                   lambda u, v: u > v, lambda u, v: u >= v):
            with pytest.raises(TypeError):
                op(a, b)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", Scalar(3)),
        ("-5/7", Scalar(Fraction(-5, 7))),
        ("1/2*sqrt2", Scalar(0, Fraction(1, 2))),
        ("-1/2*sqrt2", Scalar(0, Fraction(-1, 2))),
        ("sqrt2", SQRT2),
        ("-sqrt2", Scalar(0, -1)),
        ("1/2+1/2*sqrt2", Scalar(Fraction(1, 2), Fraction(1, 2))),
        ("2-3*sqrt2", Scalar(2, -3)),
    ],
)
def test_parse(text, value):
    assert Scalar.from_string(text) == value


def test_serialize_round_trip():
    rng = random.Random(4)
    for _ in range(200):
        s = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        assert Scalar.from_string(str(s)) == s


def test_canonical_strings():
    assert str(Scalar(Fraction(1, 2))) == "1/2"
    assert str(Scalar(0, Fraction(1, 2))) == "1/2*sqrt2"
    assert str(Scalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*sqrt2"
    assert str(Scalar(-1, 1)) == "-1+sqrt2"
    assert " " not in str(Scalar(Fraction(3, 4), Fraction(5, 6)))


def test_as_scalar_rejects_junk():
    with pytest.raises(TypeError):
        as_scalar(object())
    # text after sqrt2, or a "*" with no coefficient before it
    # and anything outside the grammar that Fraction would read: decimals,
    # exponents (a 9-character exponent is a 13-million-bit integer),
    # underscores, non-ASCII digits, a missing sign before the sqrt2 part
    junk = ("1/0", "", "x", "2*sqrt2+1", "sqrt2*3", "sqrt2xyz", "*sqrt2", "1+*sqrt2",
            "1.5", "1e3", "1_000", "1e2+1e1*sqrt2", "1e4000000", ".5", "\u0661",
            "2sqrt2", "1+2", "1+-2*sqrt2", "1/2/3", "+")
    for text in junk:
        with pytest.raises(ValueError, match=re.escape(f"malformed scalar '{text}'")):
            as_scalar(text)
    # the constructor reads a str part by the same grammar, as a rational
    for text in junk + ("sqrt2", "1-1/2*sqrt2"):
        for parts in ((text,), (0, text)):
            with pytest.raises(DomainError, match=re.escape(f"malformed scalar '{text}'")):
                Scalar(*parts)
    assert Scalar("1/2", "-3") == Scalar(Fraction(1, 2), -3)
    # a float or Decimal part is refused, as as_scalar refuses it; a bool is an int
    for value in (0.1, 1e300, Decimal("0.1")):
        for parts in ((value,), (0, value)):
            with pytest.raises(TypeError):
                Scalar(*parts)
    assert Scalar(True, False) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


# Q(sqrt2) with zero and the rationals well represented
parts = st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=6))
elements = st.builds(Scalar, parts, parts)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(x=elements, y=elements)
def test_arithmetic_results_equal_the_checked_constructor(x, y):
    # +, -, * and unary - build their results unchecked; each must be the
    # scalar that Scalar() would build from its parts, with the same hash
    cases = [(x + y, x.a + y.a, x.b + y.b), (x - y, x.a - y.a, x.b - y.b),
             (x * y, x.a * y.a + 2 * x.b * y.b, x.a * y.b + x.b * y.a), (-x, -x.a, -x.b),
             (1 - x, 1 - x.a, -x.b), (x + 2, x.a + 2, x.b), (3 * x, 3 * x.a, 3 * x.b)]
    for r, a, b in cases:
        assert type(r.a) is Fraction and type(r.b) is Fraction
        assert (r.a, r.b) == (a, b)
        assert r == Scalar(r.a, r.b) and hash(r) == hash(Scalar(r.a, r.b))
        if not b:
            assert hash(r) == hash(r.a)
