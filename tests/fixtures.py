"""Seeded random elements, window helpers and datum queries for the property suites.

Each generator draws a term's key before its coefficient, so a seed always
yields the same sequence of elements.
"""

from fractions import Fraction

from ribbonlab.local2d import Local2DElement, Window2D
from ribbonlab.series import Field


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


def contains_monomial(g, a: int, b: int, side: str = "A") -> bool:
    """Whether u^a t^b lies on the datum's side, read off its ``level_bound``."""
    bound = g.level_bound(b, side)
    return bound is not None and a <= bound
