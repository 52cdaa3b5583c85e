import random
from fractions import Fraction

import pytest

from g2aa.scalars import HALF_SQRT2, ONE, SQRT2, ZERO, Scalar, as_scalar


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
        f = float(s)
        if abs(f) > 1e-9:
            assert s.sign() == (1 if f > 0 else -1)


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
    for text in ("1/0", "", "x"):
        with pytest.raises(ValueError, match=f"malformed scalar '{text}'"):
            as_scalar(text)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
