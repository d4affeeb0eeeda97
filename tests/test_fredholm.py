import random

import pytest

from fixtures import enlarge
from oracles import brute_index, brute_membership, direct_sum, random_windowed_rows
from ribbonlab.errors import (FieldMismatchError, NotCocompactError,
                              SupportViolationError, WindowTooSmallError)
from ribbonlab.fredholm import Verdict, echelonize, fredholm_index, membership
from ribbonlab.series import QQ, Field, LaurentPoly

F13 = Field(13)


def lp(d, field=QQ):
    return LaurentPoly.from_dict(field, d)


def vec(*polys):
    return tuple(polys)


def monomial_space(exps, u_lo, u_hi, full_below=True, field=QQ):
    rows = [vec(lp({e: 1}, field)) for e in exps]
    return echelonize(rows, 1, u_lo, u_hi, full_below, field=field)


def test_echelonize_reduces_pivots():
    W = echelonize([vec(lp({1: 1, 0: 1})), vec(lp({1: 1}))], 1, -4, 4, True, field=QQ)
    assert W.row_vectors() == [vec(lp({0: 1})), vec(lp({1: 1}))]
    assert W.pivots == ((0, 0), (1, 0))


def test_echelonize_duplicates_collapse():
    W = echelonize([vec(lp({-1: 1})), vec(lp({-1: 1}))], 1, -4, 4, True, field=QQ)
    assert len(W.rows) == 1
    assert W.row_vectors() == [vec(lp({-1: 1}))]


def test_echelonize_empty():
    W = echelonize([], 1, -4, 4, False, field=QQ)
    assert W.rows == ()


def test_echelonize_absorbs_below_window_only_when_full():
    W = echelonize([vec(lp({-9: 1, 0: 1}))], 1, -8, 8, True, field=QQ)
    assert W.row_vectors() == [vec(lp({0: 1}))]
    with pytest.raises(SupportViolationError):
        echelonize([vec(lp({-9: 1, 0: 1}))], 1, -8, 8, False, field=QQ)
    with pytest.raises(SupportViolationError):
        echelonize([vec(lp({8: 1}))], 1, -8, 8, True, field=QQ)


def test_echelonize_rejects_a_component_over_another_field():
    # a vector over F_13 alone, and one after a vector over the space's own field
    with pytest.raises(FieldMismatchError):
        echelonize([vec(lp({0: 1}, F13))], 1, -4, 4, True, field=QQ)
    with pytest.raises(FieldMismatchError):
        echelonize([vec(lp({0: 1})), vec(lp({1: 1}, F13))], 1, -4, 4, True, field=QQ)
    W = echelonize([vec(lp({0: 1}, Field(13)))], 1, -4, 4, True, field=F13)
    assert W.row_vectors() == [vec(lp({0: 1}, F13))]


def test_echelonize_checks_every_field_before_the_window():
    # per vector: component count, then the field of every component, then the window
    with pytest.raises(FieldMismatchError):
        echelonize([vec(lp({20: 1}), lp({0: 1}, F13))], 2, -4, 4, True, field=QQ)
    with pytest.raises(SupportViolationError, match="components"):
        echelonize([vec(lp({20: 1}, F13))], 2, -4, 4, True, field=QQ)


def test_membership_examples():
    W = echelonize([vec(lp({0: 1})), vec(lp({1: 1}))], 1, -4, 4, True, field=QQ)
    assert membership(W, vec(lp({0: 3, 1: 2}))) is Verdict.IN
    W1 = echelonize([vec(lp({0: 1}))], 1, -4, 4, True, field=QQ)
    assert membership(W1, vec(lp({1: 1}))) is Verdict.NOT_IN


def test_membership_support_violation():
    W = monomial_space(range(-4, 1), -4, 4)
    with pytest.raises(SupportViolationError):
        membership(W, vec(lp({-7: 1})))
    assert membership(W, vec(lp({-3: 1, -1: 1}))) is Verdict.IN


def test_membership_refuses_a_vector_of_another_rank():
    W = monomial_space(range(-4, 1), -4, 4)
    with pytest.raises(SupportViolationError, match="2 components, expected 1"):
        membership(W, vec(lp({0: 1}), lp({0: 1})))


@pytest.mark.parametrize("vector", [
    vec(lp({0: 1}, F13)),   # equal to a row of W as numbers
    vec(lp({1: 1}, F13)),   # outside W as numbers
    vec(lp({9: 1}, F13)),   # a term outside the window: the field is checked first
])
def test_membership_refuses_a_component_over_another_field(vector):
    W = echelonize([vec(lp({0: 1}))], 1, -4, 4, True, field=QQ)
    with pytest.raises(FieldMismatchError, match="component over Fp:13 in a Q space"):
        membership(W, vector)


@pytest.mark.parametrize("vector, exponent", [
    (vec(lp({-5: 1, 0: 1})), -5),             # first exponent below u_lo
    (vec(lp({-4: 1, 4: 1})), 4),              # last exponent at u_hi
    (vec(lp({0: 1, 6: 1})), 6),               # last exponent above u_hi
    (vec(lp({-1: 1}), lp({-2: 1, 5: 1})), 5),  # only the second component pokes out
])
def test_membership_window_check_at_both_ends(vector, exponent):
    W = echelonize([], len(vector), -4, 4, True, field=QQ)
    with pytest.raises(SupportViolationError, match=f"exponent {exponent} outside window"):
        membership(W, vector)
    with pytest.raises(SupportViolationError, match=f"exponent {exponent} outside window"):
        echelonize([vector], len(vector), -4, 4, False, field=QQ)
    if exponent < -4:  # with full_below, echelonize drops the term into the modeled tail
        W = echelonize([vector], len(vector), -4, 4, True, field=QQ)
        assert W.row_vectors() == [vec(lp({0: 1}))]


def test_index_projective_line_profile():
    W = monomial_space(range(-4, 1), -4, 4)
    assert fredholm_index(W) == 1  # chi of the trivial twist on the line


def test_index_genus_one_gap():
    W = monomial_space([0, -4, -3, -2], -4, 4)
    assert fredholm_index(W) == 0


def test_index_not_cocompact():
    W = echelonize([], 1, -4, 4, False, field=QQ)
    with pytest.raises(NotCocompactError):
        fredholm_index(W)


def test_index_needs_window_straddling_zero():
    W = echelonize([], 1, -4, -1, True, field=QQ)
    with pytest.raises(WindowTooSmallError):
        fredholm_index(W)


def test_index_window_too_small_margin():
    W = monomial_space(range(-4, 3), -4, 4)
    assert fredholm_index(W) == 3
    with pytest.raises(WindowTooSmallError):
        fredholm_index(W, top_margin=2)


def test_pivot_profile_examples():
    # pivots are (exponent, component) keys, components numbered from 0
    assert monomial_space([0, 1], -4, 4).pivots == ((0, 0), (1, 0))
    W = echelonize([vec(lp({-2: 1, 1: 1}))], 1, -4, 4, True, field=QQ)
    assert W.pivots == ((-2, 0),)
    W2 = echelonize(
        [vec(lp({-1: 1}), LaurentPoly(QQ)), vec(LaurentPoly(QQ), lp({0: 1}))],
        2, -4, 4, True, field=QQ)
    assert W2.pivots == ((-1, 0), (0, 1))


@pytest.mark.parametrize("field", [QQ, F13])
def test_echelonize_idempotent_and_span_preserving(field):
    rng = random.Random(55 if field is QQ else 56)
    for _ in range(500):
        r = rng.randint(1, 2)
        u_lo, width = rng.randint(-6, 0), rng.randint(2, 8)
        rows = random_windowed_rows(rng, field, r, u_lo, u_lo + width, rng.randint(0, 4))
        W = echelonize(rows, r, u_lo, u_lo + width, True, field=field)
        W2 = echelonize(W.row_vectors(), r, u_lo, u_lo + width, True, field=field)
        assert W.rows == W2.rows
        assert W.pivots == tuple(min(dict(row)) for row in W.rows)
        assert all(p < q for p, q in zip(W.pivots, W.pivots[1:]))
        for row in rows:
            assert membership(W, row) is Verdict.IN


@pytest.mark.parametrize("field", [QQ, F13])
def test_membership_agrees_with_brute_force(field):
    rng = random.Random(65 if field is QQ else 66)
    for _ in range(500):
        r = rng.randint(1, 2)
        u_lo = rng.randint(-6, -1)
        u_hi = u_lo + rng.randint(2, 12)
        rows = random_windowed_rows(rng, field, r, u_lo, u_hi, rng.randint(0, 4))
        W = echelonize(rows, r, u_lo, u_hi, True, field=field)
        v = random_windowed_rows(rng, field, r, u_lo, u_hi, 1)[0]
        got = membership(W, v) is Verdict.IN
        want = brute_membership(W.row_vectors(), v, field, r, u_lo, u_hi)
        assert got == want


@pytest.mark.parametrize("field", [QQ, F13])
def test_index_agrees_with_brute_force(field):
    rng = random.Random(75 if field is QQ else 76)
    for _ in range(500):
        r = rng.randint(1, 3)
        u_lo = rng.randint(-8, 0)
        u_hi = rng.randint(1, max(2, u_lo + 16))
        rows = random_windowed_rows(rng, field, r, u_lo, u_hi, rng.randint(0, 5))
        W = echelonize(rows, r, u_lo, u_hi, True, field=field)
        assert fredholm_index(W) == brute_index(W.row_vectors(), field, r, u_lo, u_hi)


def test_index_and_membership_stable_under_enlargement():
    rng = random.Random(85)
    for _ in range(1000):
        r = rng.randint(1, 2)
        u_lo = rng.randint(-5, -1)
        u_hi = rng.randint(1, 6)  # index windows must straddle exponent 0
        rows = random_windowed_rows(rng, QQ, r, u_lo, u_hi, rng.randint(0, 4))
        W = echelonize(rows, r, u_lo, u_hi, True, field=QQ)
        big = enlarge(W, u_lo - rng.randint(1, 3), u_hi + rng.randint(1, 3))
        assert fredholm_index(big) == fredholm_index(W)
        v = random_windowed_rows(rng, QQ, r, u_lo, u_hi, 1)[0]
        assert membership(big, v) is membership(W, v)


def test_index_additive_on_direct_sums():
    rng = random.Random(95)
    for _ in range(300):
        u_lo, u_hi = -4, 4
        r1, r2 = rng.randint(1, 2), rng.randint(1, 2)
        rows1 = random_windowed_rows(rng, QQ, r1, u_lo, u_hi, rng.randint(0, 3))
        rows2 = random_windowed_rows(rng, QQ, r2, u_lo, u_hi, rng.randint(0, 3))
        W1 = echelonize(rows1, r1, u_lo, u_hi, True, field=QQ)
        W2 = echelonize(rows2, r2, u_lo, u_hi, True, field=QQ)
        S = direct_sum(W1, W2)
        assert S.r == r1 + r2
        assert S.rows == echelonize(S.row_vectors(), S.r, u_lo, u_hi, True, field=QQ).rows
        assert fredholm_index(S) == fredholm_index(W1) + fredholm_index(W2)


def test_json_roundtrip():
    W = echelonize([vec(lp({-2: 1, 1: "1/3"}))], 1, -4, 4, True, field=QQ)
    obj = W.to_json()
    assert obj["full_below"] and obj["r"] == 1
    from ribbonlab.fredholm import WindowedSubspace
    assert WindowedSubspace.from_json(obj, QQ).rows == W.rows
