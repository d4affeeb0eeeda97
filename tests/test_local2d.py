import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import assert_frozen_value, enlarged, random_local2d, support_radius, t_slice
from oracles import local2d_reference, t_slice_reference
from ribbonlab.errors import ConfigError, FieldMismatchError, ZeroOrderError
from ribbonlab.local2d import Local2DElement, Window2D, ord_t_vector
from ribbonlab.series import QQ, Field, Scalar

F5 = Field(5)


def el(field, d):
    return Local2DElement.from_dict(field, d)


def mono(a, b, c=1):
    return Local2DElement.from_dict(QQ, {(a, b): c})


def test_mul_inverse_monomials():
    assert mono(-1, 1) * mono(1, -1) == Local2DElement.one(QQ)


def test_mul_difference_of_squares():
    x = el(QQ, {(0, 0): 1, (0, 1): 1})
    y = el(QQ, {(0, 0): 1, (0, 1): -1})
    assert x * y == el(QQ, {(0, 0): 1, (0, 2): -1})


def test_mul_square_convolution_oracle():
    x = el(QQ, {(-1, 1): 1, (-2, 2): 1})
    # oracle: 2D convolution by hand
    expect = {}
    for (a1, b1), c1 in dict(x.terms).items():
        for (a2, b2), c2 in dict(x.terms).items():
            k = (a1 + a2, b1 + b2)
            expect[k] = expect.get(k, 0) + c1 * c2
    assert x * x == el(QQ, expect)
    assert x * x == el(QQ, {(-2, 2): 1, (-3, 3): 2, (-4, 4): 1})


def test_ord_t_examples():
    assert mono(-3, 2).ord_t() == 2
    assert el(QQ, {(0, -1): 1, (1, 3): 1}).ord_t() == -1
    assert (mono(-1, 1) * mono(1, -1)).ord_t() == 0
    with pytest.raises(ZeroOrderError):
        Local2DElement(QQ).ord_t()


def test_ord_t_vector_is_min_over_components():
    vec = (mono(0, 2), mono(0, -1), Local2DElement(QQ))
    assert ord_t_vector(vec) == -1
    with pytest.raises(ZeroOrderError):
        ord_t_vector((Local2DElement(QQ),))


@pytest.mark.parametrize("field", [QQ, F5])
def test_l2_ring_axioms(field):
    rng = random.Random(11 if field is QQ else 12)
    for _ in range(500):
        a = random_local2d(rng, field)
        b = random_local2d(rng, field)
        c = random_local2d(rng, field)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("field", [QQ, F5])
def test_ord_t_additive(field):
    rng = random.Random(21 if field is QQ else 22)
    done = 0
    while done < 1000:
        a = random_local2d(rng, field)
        b = random_local2d(rng, field)
        if not a or not b:
            continue
        assert (a * b).ord_t() == a.ord_t() + b.ord_t()
        done += 1


def test_margin_soundness_of_truncated_products():
    # truncating inputs on the enlarged window and the product on the original
    # window agrees with truncating the exact product
    def truncate(x, w):
        return Local2DElement(x.field, tuple(((a, b), c) for (a, b), c in x.terms
                                             if w.u_lo <= a < w.u_hi and w.t_lo <= b < w.t_hi))

    rng = random.Random(41)
    w = Window2D(-3, 3, -3, 3, 1, 1)
    for _ in range(1000):
        x = random_local2d(rng, QQ, lo=-5, hi=5)
        y = random_local2d(rng, QQ, lo=-5, hi=5)
        radius = max(support_radius(x), support_radius(y))
        wide = enlarged(w, radius)
        lhs = truncate(x * y, w)
        rhs = truncate(truncate(x, wide) * truncate(y, wide), w)
        assert lhs == rhs


def test_window_invariants():
    with pytest.raises(ConfigError):
        Window2D(2, 2, 0, 4)
    with pytest.raises(ConfigError):
        Window2D(0, 4, 3, 1)
    with pytest.raises(ConfigError):
        Window2D(0, 4, 0, 4, 2, 0)  # m_t not below half width
    with pytest.raises(ConfigError):
        Window2D(0, 4, 0, 4, -1, 0)
    # margins are compared in integers: 2 * 2^59 < 2^60 + 1, but not < 2^60
    Window2D(0, 2 ** 60 + 1, 0, 4, 2 ** 59, 0)
    with pytest.raises(ConfigError):
        Window2D(0, 2 ** 60, 0, 4, 2 ** 59, 0)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Local2DElement.one(QQ) + Local2DElement.one(F5)


def test_json_sorted_by_b_then_a():
    x = el(QQ, {(2, -1): 1, (-3, 0): 1, (0, -1): 1})
    obj = x.to_json()
    assert [(a, b) for a, b, _ in obj["terms"]] == [(0, -1), (2, -1), (-3, 0)]
    assert Local2DElement.from_json(obj, QQ) == x
    assert x.to_json(component=2)["component"] == 2


F31, F_MERSENNE = Field(31), Field(2 ** 31 - 1)
# small keys and small values, so sums and differences cancel often; over
# F_31 the values also wrap, so 16 + 15 is zero there
KEYS_2D = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
VALUES = {
    QQ: st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    F31: st.integers(-40, 40),
    F_MERSENNE: st.sampled_from([-2, -1, 1, 2, 2 ** 31 - 2, 2 ** 30]),
}


def elements(field):
    return st.dictionaries(KEYS_2D, VALUES[field], max_size=6).map(
        lambda d: Local2DElement.from_dict(field, d))


def assert_canonical(terms, field):
    """Strictly increasing keys, no zero coefficient, every coefficient in ``field``."""
    keys = [k for k, _ in terms]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    assert all(type(c) is Scalar and c and c.field == field for _, c in terms)


def second_operand(data, field, x, kind):
    """A random element, a one-term element, or x's leading block of n terms in one of three forms.

    "one-term" takes ``__mul__``'s shift path; its coefficient draws from the
    same values, -1 and p - 1 over F_(2^31 - 1) among them.  "same" reuses
    x's term objects, as the lift in ``layered_membership`` does; "copy" is
    an equal block built separately; "changed" is the block with one
    coefficient moved by 1, so it is no longer x's block.
    """
    if kind == "random":
        return data.draw(elements(field))
    if kind == "one-term":
        c = data.draw(VALUES[field].filter(lambda v: field.scalar(v)))
        return Local2DElement.from_dict(field, {data.draw(KEYS_2D): c})
    block = x.terms[:data.draw(st.integers(0, len(x.terms)))]
    if kind == "same":
        return Local2DElement(field, block)
    values = [(k, c.value) for k, c in block]
    if kind == "changed" and values:
        i = data.draw(st.integers(0, len(values) - 1))
        values[i] = (values[i][0], values[i][1] + 1)
    return Local2DElement.from_dict(field, values)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from([QQ, F31, F_MERSENNE]), b=st.integers(-2, 2),
       kind=st.sampled_from(["random", "one-term", "same", "copy", "changed"]))
def test_ops_match_dict_reference_and_stay_canonical(data, field, b, kind):
    x = data.draw(elements(field))
    y = second_operand(data, field, x, kind)
    if kind == "one-term" and data.draw(st.booleans()):
        x, y = y, x
    for op, got in (("+", x + y), ("-", x - y), ("*", x * y)):
        assert got == local2d_reference(x, y, op)
        assert_canonical([((bb, a), c) for (a, bb), c in got.terms], field)
    got = t_slice(x, b)
    assert got == t_slice_reference(x, b)
    assert_canonical(got.coeffs, field)


@pytest.mark.parametrize("c", [-1, 2 ** 31 - 2])
@pytest.mark.parametrize("swap", [False, True])
def test_one_term_factor_shifts_the_other(c, swap):
    # over F_(2^31 - 1), -1 and p - 1 are the same coefficient
    x = el(F_MERSENNE, {(0, -1): 2, (-2, 0): 1, (1, 0): 2 ** 30, (0, 2): -2})
    y = el(F_MERSENNE, {(3, -1): c})
    if swap:
        x, y = y, x
    got = x * y
    assert got == local2d_reference(x, y, "*")
    assert got == el(F_MERSENNE, {(3, -2): -2, (1, -1): -1, (4, -1): -2 ** 30, (3, 1): 2})
    assert_canonical([((bb, a), v) for (a, bb), v in got.terms], F_MERSENNE)
    assert x * Local2DElement(F_MERSENNE) == Local2DElement(F_MERSENNE)


def test_mul_key_cancelled_then_restored():
    # at u^2 the pairs 1*u^2 and u*(-u) cancel, then u^2*1 brings the key back;
    # u^1 and u^3 cancel for good
    x = el(QQ, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
    y = el(QQ, {(0, 0): 1, (1, 0): -1, (2, 0): 1})
    assert x * y == el(QQ, {(0, 0): 1, (2, 0): 1, (4, 0): 1})
    assert x * y == local2d_reference(x, y, "*")


def test_separately_built_equal_fields_combine():
    f7a, f7b = Field(7), Field(7)
    assert f7a is not f7b
    x = Local2DElement.from_dict(f7a, {(0, 0): 3, (1, 0): 5})
    y = Local2DElement.from_dict(f7b, {(0, 0): 4, (0, 1): 2})
    for op, got in (("+", x + y), ("-", x - y), ("*", x * y)):
        assert got == local2d_reference(x, y, op)
    assert x + y == Local2DElement.from_dict(f7a, {(1, 0): 5, (0, 1): 2})
    f11 = Local2DElement.from_dict(Field(11), {(0, 0): 1})
    for op in (lambda p, q: p + q, lambda p, q: p * q, lambda p, q: p - q):
        with pytest.raises(FieldMismatchError):
            op(x, f11)
        with pytest.raises(FieldMismatchError):
            op(f11, x)


@pytest.mark.parametrize("key", [(0.5, 0), (1.7, True), ("3", 0), (0, 1.0)])
def test_from_dict_rejects_non_integer_exponents(key):
    with pytest.raises(ConfigError, match="exponent"):
        Local2DElement.from_dict(QQ, {key: 1})
    with pytest.raises(ConfigError, match="exponent"):
        Local2DElement.monomial(QQ, *key)


def test_from_dict_names_the_first_bad_exponent_in_a_b_order():
    # the key is stored as (b, a), but a is still checked before b
    with pytest.raises(ConfigError, match="'x'"):
        Local2DElement.from_dict(QQ, {("x", "y"): 1})


@pytest.mark.parametrize("make", [
    lambda: el(QQ, {(0, 0): "1/2", (-3, 1): 4}),
    lambda: el(F_MERSENNE, {(2, -1): -1}),
    lambda: Local2DElement(F5),
], ids=["Q", "Fp-one-term", "zero"])
def test_local2d_element_is_a_frozen_value(make):
    assert_frozen_value(make(), make())
