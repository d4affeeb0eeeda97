"""Seeded random elements, window helpers, datum queries, pair comparison and a
value-semantics check for the tests.

Each generator draws a term's key before its coefficient, so a seed always
yields the same sequence of elements.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from ribbonlab.errors import WindowMismatchError
from ribbonlab.fredholm import WindowedSubspace, echelonize
from ribbonlab.local2d import Local2DElement, Window2D
from ribbonlab.series import Field, LaurentPoly


def _random_coeff(rng, field: Field):
    if field.p is None:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randint(0, field.p - 1)


def random_local2d(rng, field: Field, lo=-4, hi=4, max_terms=4) -> Local2DElement:
    """Small random element; a repeated key (a, b) keeps its last draw."""
    d = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(lo, hi), rng.randint(lo, hi))
        d[key] = _random_coeff(rng, field)
    return Local2DElement.from_dict(field, d)


def support_radius(x: Local2DElement) -> int:
    return max((max(abs(a), abs(b)) for (a, b), _c in x.terms), default=0)


def enlarged(w: Window2D, radius: int) -> Window2D:
    """``w`` widened by ``radius`` on every side, margins kept."""
    return Window2D(w.t_lo - radius, w.t_hi + radius, w.u_lo - radius, w.u_hi + radius,
                    w.m_t, w.m_u)


def enlarge(W: WindowedSubspace, u_lo: int, u_hi: int) -> WindowedSubspace:
    """Re-materialize the subspace on the larger window [u_lo, u_hi).

    Widening the bottom of a full_below subspace turns the newly visible part
    of the tail into explicit monomial rows, so index and membership verdicts
    inside the old interior are unchanged.
    """
    rows = W.row_vectors()
    if W.full_below:
        for e in range(u_lo, W.u_lo):
            for c in range(W.r):
                vec = [LaurentPoly(W.field)] * W.r
                vec[c] = LaurentPoly.monomial(W.field, e)
                rows.append(tuple(vec))
    return echelonize(rows, W.r, u_lo, u_hi, W.full_below, field=W.field)


def t_slice(x: Local2DElement, b: int) -> LaurentPoly:
    """Coefficient of t^b in x as a Laurent polynomial in u, read off x's canonical terms."""
    return LaurentPoly(x.field, tuple((a, c) for (a, bb), c in x.terms if bb == b))


def contains_monomial(g, a: int, b: int, side: str = "A") -> bool:
    """Whether u^a t^b lies on the datum's side, read off its ``level_bound``."""
    bound = g.level_bound(b, side)
    return bound is not None and a <= bound


def pair_equal_in_window(p1, p2) -> bool:
    """True iff every level's echelon rows coincide on both sides."""
    if p1.window != p2.window:
        raise WindowMismatchError("pairs live on different windows")
    if (p1.algebra.r, p1.module.r) != (p2.algebra.r, p2.module.r):
        raise WindowMismatchError("pairs have different ranks")
    for side1, side2 in ((p1.algebra, p2.algebra), (p1.module, p2.module)):
        for b in range(p1.window.t_lo, p1.window.t_hi):
            if side1.level(b).rows != side2.level(b).rows:
                return False
            if side1.level(b).full_below != side2.level(b).full_below:
                return False
    return True


def assert_frozen_value(x, twin):
    """``x`` and its separately built equal ``twin`` behave as one immutable value.

    No ``__dict__``; every assignment or deletion, of a field or of a new
    name, raises FrozenInstanceError; equal values hash alike; and a deep
    copy or a pickle round trip gives an equal object of the same type.
    """
    assert x == twin and x is not twin and hash(x) == hash(twin)
    assert not hasattr(x, "__dict__")
    for name in [f.name for f in dataclasses.fields(x)] + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
