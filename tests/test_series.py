from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fixtures import assert_frozen_value
from ribbonlab.errors import ConfigError, FieldMismatchError
from ribbonlab.local2d import Local2DElement
from ribbonlab.series import QQ, Field, LaurentPoly, Scalar

F7 = Field(7)


def lp(field, d):
    return LaurentPoly.from_dict(field, d)


def test_prime_field_validation():
    with pytest.raises(ConfigError):
        Field(6)
    with pytest.raises(ConfigError):
        Field(2 ** 31 + 11)
    assert Field(2).scalar(3).value == 1


@pytest.mark.parametrize("p", [9, 15, 46337 ** 2])
def test_prime_field_rejects_odd_composites(p):
    # each passes the parity test and falls to a divisor; 46337^2 < 2^31
    with pytest.raises(ConfigError, match=f"got {p}"):
        Field(p)


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
    assert obj == {"coeffs": [[-2, "3/4"], [1, "2/1"]]}
    assert LaurentPoly.from_json(obj, QQ) == x
    y = lp(F7, {0: 5})
    assert y.to_json() == {"coeffs": [[0, "5"]]}
    assert LaurentPoly.from_json(y.to_json(), F7) == y


def test_from_json_field_tag_is_optional_but_checked():
    # the field comes from the enclosing pair; a tag, if present, must name it
    obj = {"coeffs": [[0, "5"]]}
    assert LaurentPoly.from_json(dict(obj, field="Fp:7"), F7) == LaurentPoly.from_json(obj, F7)
    assert LaurentPoly.from_json(dict(obj, field="Fp:7"), Field(7)).field == F7
    with pytest.raises(FieldMismatchError):
        LaurentPoly.from_json(dict(obj, field="Q"), F7)
    with pytest.raises(ConfigError, match="field tag"):
        LaurentPoly.from_json(dict(obj, field=7), F7)


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
@example(x=Fraction(3, 2), y=1, k=1)  # product by one
@example(x=1, y=Fraction(-5, 7), k=1)  # one times a product
@example(x=1, y=-1, k=1)  # -1 is its own inverse
@example(x=1, y=Fraction(-1, 3), k=1)  # integral inverse
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
        assert_canonical(b * b.inverse(), Fraction(1))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


PRIME_FIELDS = [Field(2), Field(13), Field(2 ** 31 - 1)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from(PRIME_FIELDS))
def test_prime_field_inverse_matches_pow(data, field):
    p = field.p
    x = data.draw(st.one_of(st.sampled_from([1, p - 1, -1, -p - 1]),
                            st.integers(-10 ** 12, 10 ** 12).filter(lambda n: n % p)))
    a = field.scalar(x)
    inv = a.inverse()
    assert inv.field is field and type(inv.value) is int
    assert inv.value == pow(x, -1, p) and 0 < inv.value < p
    assert inv == field.scalar(pow(x, -1, p))
    assert (a * inv).value == 1 and a * inv == field.one


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from(PRIME_FIELDS))
def test_prime_field_division_is_multiplication_by_the_inverse(data, field):
    residue = st.integers(0, field.p - 1)
    a = field.scalar(data.draw(residue))
    b = field.scalar(data.draw(residue.filter(bool)))
    assert a / b == a * b.inverse()
    assert (a / b) * b == a
    assert type((a / b).value) is int and 0 <= (a / b).value < field.p
    for zero in (field.zero, 0):
        with pytest.raises(ZeroDivisionError, match="division by zero scalar"):
            a / zero


@pytest.mark.parametrize("field", [QQ] + PRIME_FIELDS, ids=["Q", "F2", "F13", "F2^31-1"])
def test_inverse_of_plus_or_minus_one_is_itself_and_zero_raises(field):
    minus_one = field.scalar(-1)
    assert minus_one.value == (-1 if field.p is None else field.p - 1)
    for a in (field.one, minus_one):
        assert a.inverse() is a
    with pytest.raises(ZeroDivisionError, match="division by zero scalar"):
        field.zero.inverse()


@pytest.mark.parametrize("make", [
    lambda: QQ.scalar(4),
    lambda: QQ.scalar("-3/4"),
    lambda: Field(2 ** 31 - 1).scalar(-1),
    lambda: Scalar(F7, 0),
    lambda: lp(QQ, {-2: "3/4", 1: 2}),
    lambda: lp(F7, {3: 5}),
    lambda: LaurentPoly(QQ),
], ids=["Q-int", "Q-fraction", "Fp-residue", "Fp-zero", "poly-Q", "poly-F7", "poly-zero"])
def test_scalar_and_laurent_poly_are_frozen_values(make):
    assert_frozen_value(make(), make())


def test_product_by_one_returns_the_other_factor():
    f = Field(2 ** 31 - 1)
    one, c = f.one, f.scalar(-3)
    for got in (one * c, c * one, c * 1, 1 * c):
        assert got is c and got.value == 2 ** 31 - 4
    assert one * one == one and f.scalar(5) * f.scalar(2) == f.scalar(10)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_unit_is_one_shared_scalar_per_field(field):
    one = field.one
    units = [field.scalar(1), field.scalar("1/1"), field.scalar(Fraction(2, 2)), field.one,
             Local2DElement.one(field).terms[0][1], one * one]
    if field.p is not None:
        units.append(field.scalar("8"))
    assert all(u is one for u in units)
    assert one.field is field and type(one.value) is int and one.value == 1
    assert QQ.one != F7.one


@settings(max_examples=300, deadline=None)
@given(n=st.integers(-10 ** 6, 10 ** 6),
       d=st.one_of(st.just(1), st.integers(-10 ** 3, 10 ** 3).filter(bool)),
       field=st.sampled_from([QQ, F7]))
@example(n=8, d=1, field=F7)  # "n/1" that is the unit
@example(n=-3, d=-1, field=QQ)  # negative denominator one
@example(n=3, d=-14, field=F7)  # denominator divisible by p
@example(n=7, d=14, field=F7)  # 1/2 in lowest terms
def test_coefficient_strings_parse_as_their_fraction(n, d, field):
    s, frac = f"{n}/{d}", Fraction(n, d)
    if field.p is not None and frac.denominator % field.p == 0:
        for value in (s, frac):
            with pytest.raises(ConfigError, match=f"divisible by {field.p}"):
                field.scalar(value)
    else:
        a, b = field.scalar(s), field.scalar(frac)
        assert a == b and type(a.value) is type(b.value)
        assert (a is field.one) == (a.value == 1)
    assert field.scalar(f"-0/{d}") == field.zero and not field.scalar("-0/1")
    with pytest.raises(ConfigError, match="zero denominator"):
        field.scalar(f"{n}/0")


def test_scalar_of_another_field_is_not_coerced():
    with pytest.raises(FieldMismatchError, match="Fp:7 vs Q"):
        QQ.scalar(F7.scalar(3))


def test_product_by_one_still_checks_the_field():
    with pytest.raises(FieldMismatchError):
        F7.scalar(1) * Field(11).scalar(3)
    with pytest.raises(FieldMismatchError):
        Field(11).scalar(3) * F7.scalar(1)
