import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fixtures import random_laurent
from ribbonlab.errors import ConfigError, FieldMismatchError, ZeroOrderError
from ribbonlab.series import QQ, Field, LaurentPoly

F7 = Field(7)


def lp(field, d):
    return LaurentPoly.from_dict(field, d)


def test_add_cancellation():
    assert lp(QQ, {1: 1, 0: 1}) + lp(QQ, {1: -1}) == lp(QQ, {0: 1})


def test_add_identity():
    x = lp(QQ, {-3: 1})
    assert LaurentPoly.zero(QQ) + x == x


def test_add_coefficientwise():
    # oracle: direct coefficient addition
    left, right = {2: 1, 1: 1}, {2: 1, 1: -1}
    expect = {e: left.get(e, 0) + right.get(e, 0) for e in set(left) | set(right)}
    assert lp(QQ, left) + lp(QQ, right) == lp(QQ, expect)
    assert lp(QQ, left) + lp(QQ, right) == lp(QQ, {2: 2})


def _convolve(x: dict, y: dict) -> dict:
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def test_mul_examples():
    assert lp(QQ, {0: 1, 1: 1}) * lp(QQ, {0: 1, 1: -1}) == lp(QQ, {0: 1, 2: -1})
    assert lp(QQ, {-2: 1}) * lp(QQ, {5: 1}) == lp(QQ, {3: 1})


def test_mul_convolution_oracle():
    x, y = {0: 1, 1: 1, 2: 1}, {0: 1, 1: -1}
    assert lp(QQ, x) * lp(QQ, y) == lp(QQ, _convolve(x, y))
    assert lp(QQ, x) * lp(QQ, y) == lp(QQ, {0: 1, 3: -1})


@pytest.mark.parametrize("field", [QQ, F7])
def test_ring_axioms(field):
    rng = random.Random(101 if field is QQ else 102)
    for _ in range(500):
        a = random_laurent(rng, field)
        b = random_laurent(rng, field)
        c = random_laurent(rng, field)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("field", [QQ, F7])
def test_ord_additive_under_mul(field):
    rng = random.Random(7 if field is QQ else 8)
    done = 0
    while done < 1000:
        a = random_laurent(rng, field)
        b = random_laurent(rng, field)
        if not a or not b:
            continue
        assert (a * b).ord() == a.ord() + b.ord()
        done += 1


def test_canonical_zero():
    rng = random.Random(3)
    for _ in range(200):
        a = random_laurent(rng, QQ)
        assert (a + (-a)).coeffs == ()


def test_ord_of_zero_is_error():
    with pytest.raises(ZeroOrderError):
        LaurentPoly.zero(QQ).ord()


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        lp(QQ, {0: 1}) + lp(F7, {0: 1})
    with pytest.raises(FieldMismatchError):
        lp(QQ, {0: 1}) * lp(F7, {0: 1})


def test_prime_field_validation():
    with pytest.raises(ConfigError):
        Field(6)
    with pytest.raises(ConfigError):
        Field(2 ** 31 + 11)
    assert Field(2).scalar(3).value == 1


def test_field_from_tag_is_cached():
    big = Field.from_tag("Fp:2147483647")
    assert Field.from_tag("Fp:2147483647") is big
    assert big.p == 2 ** 31 - 1
    assert Field.from_tag("Q") is QQ
    for _ in range(2):
        with pytest.raises(ConfigError):
            Field.from_tag("Fp:6")


def test_prime_field_division():
    a = F7.scalar(3)
    assert (a / F7.scalar(5)) * F7.scalar(5) == a


def test_json_roundtrip_and_format():
    x = lp(QQ, {-2: "3/4", 1: 2})
    obj = x.to_json()
    assert obj == {"field": "Q", "coeffs": [[-2, "3/4"], [1, "2/1"]]}
    assert LaurentPoly.from_json(obj) == x
    y = lp(F7, {0: 5})
    assert y.to_json() == {"field": "Fp:7", "coeffs": [[0, "5"]]}
    assert LaurentPoly.from_json(y.to_json()) == y


def test_coeffs_sorted_ascending():
    x = lp(QQ, {5: 1, -1: 1, 2: 1})
    assert [e for e, _ in x.coeffs] == [-1, 2, 5]


def test_fp_fraction_with_denominator_divisible_by_p():
    for value in ("1/7", "3/14", Fraction(2, 21)):
        with pytest.raises(ConfigError, match="divisible by 7"):
            F7.scalar(value)
    with pytest.raises(ConfigError, match="1/7"):
        F7.scalar("1/7")
    assert F7.scalar("7/14") == F7.scalar(4)  # 1/2 in lowest terms
    assert QQ.scalar("1/7").value == Fraction(1, 7)


@pytest.mark.parametrize("d", [{0.5: 1}, {"3": 1}, {True: 1}, {1.0: 0}])
def test_from_dict_rejects_non_integer_exponents(d):
    with pytest.raises(ConfigError, match="exponent"):
        LaurentPoly.from_dict(QQ, d)


def test_monomial_rejects_non_integer_exponent():
    with pytest.raises(ConfigError):
        LaurentPoly.monomial(QQ, 0.5)


# Over Q a scalar's value is an int exactly when it is integral.
INTEGRAL = st.integers(-10 ** 6, 10 ** 6)
RATIONAL = st.one_of(INTEGRAL, INTEGRAL.map(Fraction),
                     st.fractions(min_value=-10 ** 3, max_value=10 ** 3, max_denominator=60))


def assert_canonical(s, expected: Fraction):
    assert s.field is QQ and s.value == expected
    assert type(s.value) is (int if expected.denominator == 1 else Fraction)
    assert str(s) == f"{expected.numerator}/{expected.denominator}"
    assert s == QQ.scalar(expected) and hash(s) == hash(QQ.scalar(expected))


@settings(max_examples=300, deadline=None)
@given(x=RATIONAL, y=RATIONAL, k=st.integers(1, 9))
@example(x=6, y=3, k=2)  # integral quotient
@example(x=Fraction(1, 2), y=Fraction(1, 2), k=1)  # integral sum
@example(x=Fraction(4, 3), y=Fraction(3, 2), k=1)  # integral product
@example(x=1, y=0, k=1)
def test_rational_scalars_match_fraction_arithmetic(x, y, k):
    fx, fy = Fraction(x), Fraction(y)
    a, b = QQ.scalar(x), QQ.scalar(y)
    assert_canonical(a, fx)
    # strings, reduced or not, and integral fractions coerce to the same scalar
    assert_canonical(QQ.scalar(f"{fx.numerator * k}/{fx.denominator * k}"), fx)
    assert_canonical(QQ.scalar(Fraction(fx.numerator * k, fx.denominator * k)), fx)
    if fx.denominator == 1:
        assert_canonical(QQ.scalar(str(fx.numerator)), fx)
    assert_canonical(a + b, fx + fy)
    assert_canonical(a - b, fx - fy)
    assert_canonical(a * b, fx * fy)
    assert_canonical(a + y, fx + fy)
    assert_canonical(y * a, fx * fy)
    assert_canonical(-a, -fx)
    if fy:
        assert_canonical(a / b, fx / fy)
        assert_canonical(b.inverse(), 1 / fy)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b

