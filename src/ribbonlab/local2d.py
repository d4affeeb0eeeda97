"""Finite representatives of the two-dimensional local field k((u))((t)).

An element is a finite formal sum of monomials u^a t^b with exact nonzero
coefficients.  Infinite tails never appear here; they live in the subspace
types as a full-below flag.  Truncation windows carry their margins so every
consumer applies the same interior-region convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

from .errors import ConfigError, FieldMismatchError, ZeroOrderError
from .series import Field, LaurentPoly, json_int


@dataclass(frozen=True)
class Window2D:
    """Rectangular (u, t)-truncation window with distrust margins at the top."""

    t_lo: int
    t_hi: int
    u_lo: int
    u_hi: int
    m_t: int = 0
    m_u: int = 0

    def __post_init__(self):
        if any(type(v) is not int for v in vars(self).values()):
            raise ConfigError("window bounds and margins must be integers")
        if not (self.t_lo < self.t_hi and self.u_lo < self.u_hi):
            raise ConfigError("window bounds must satisfy t_lo < t_hi and u_lo < u_hi")
        if self.m_t < 0 or self.m_u < 0:
            raise ConfigError("margins must be nonnegative")
        if not (self.m_t < (self.t_hi - self.t_lo) / 2 and self.m_u < (self.u_hi - self.u_lo) / 2):
            raise ConfigError("margins must stay below half the window width")

    def contains(self, a: int, b: int) -> bool:
        return self.u_lo <= a < self.u_hi and self.t_lo <= b < self.t_hi

    @property
    def t_trusted_hi(self) -> int:
        return self.t_hi - self.m_t

    @property
    def u_trusted_hi(self) -> int:
        return self.u_hi - self.m_u

    def interior(self) -> "Window2D":
        """Window shrunk by its margins on every side; margins reset to zero."""
        return Window2D(self.t_lo + self.m_t, self.t_hi - self.m_t,
                        self.u_lo + self.m_u, self.u_hi - self.m_u, 0, 0)

    def enlarged(self, radius: int) -> "Window2D":
        return Window2D(self.t_lo - radius, self.t_hi + radius,
                        self.u_lo - radius, self.u_hi + radius, self.m_t, self.m_u)

    def to_json(self) -> dict:
        return {"t_lo": self.t_lo, "t_hi": self.t_hi, "u_lo": self.u_lo,
                "u_hi": self.u_hi, "m_t": self.m_t, "m_u": self.m_u}

    @staticmethod
    def from_json(obj: dict) -> "Window2D":
        return Window2D(obj["t_lo"], obj["t_hi"], obj["u_lo"], obj["u_hi"],
                        obj.get("m_t", 0), obj.get("m_u", 0))


@dataclass(frozen=True)
class Local2DElement:
    """Finite sum of monomials u^a t^b, stored canonically.

    Canonical means: terms strictly increasing in (b, a), no zero
    coefficient, and every coefficient a Scalar of ``field``.  Only
    ``from_dict`` and ``from_json`` coerce (they are the input boundary); the
    arithmetic, ``t_slice`` and ``truncate`` build their results directly
    from canonical terms, so equal elements have equal ``terms``.
    """

    field: Field
    terms: tuple = ()  # ((a, b), Scalar), sorted by (b, a)

    @staticmethod
    def from_dict(field: Field, d: dict) -> "Local2DElement":
        items = []
        for (a, b), c in d.items():
            k, c = (json_int(a, "exponent"), json_int(b, "exponent")), field.scalar(c)
            if c:
                items.append((k, c))
        items.sort(key=lambda kc: (kc[0][1], kc[0][0]))
        return Local2DElement(field, tuple(items))

    @staticmethod
    def zero(field: Field) -> "Local2DElement":
        return Local2DElement(field, ())

    @staticmethod
    def one(field: Field) -> "Local2DElement":
        return Local2DElement.monomial(field, 0, 0)

    @staticmethod
    def monomial(field: Field, a: int, b: int, coeff=1) -> "Local2DElement":
        return Local2DElement.from_dict(field, {(a, b): coeff})

    def as_dict(self) -> dict:
        return dict(self.terms)

    def support(self):
        return tuple(k for k, _ in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other: "Local2DElement"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(f"{self.field.tag} vs {other.field.tag}")

    def _merge(self, other: "Local2DElement", negate: bool) -> "Local2DElement":
        """self + other, or self - other when ``negate``: one merge of two sorted runs."""
        self._check(other)
        x, y = self.terms, other.terms
        out = []
        i = j = 0
        while i < len(x) and j < len(y):
            (ax, bx), cx = x[i]
            (ay, by), cy = y[j]
            if bx < by or (bx == by and ax < ay):
                out.append(x[i])
                i += 1
            elif by < bx or ay < ax:
                out.append((y[j][0], -cy) if negate else y[j])
                j += 1
            else:
                c = cx - cy if negate else cx + cy
                if c:
                    out.append((x[i][0], c))
                i += 1
                j += 1
        out += x[i:]
        out += [(k, -c) for k, c in y[j:]] if negate else y[j:]
        return Local2DElement(self.field, tuple(out))

    def __add__(self, other: "Local2DElement") -> "Local2DElement":
        return self._merge(other, False)

    def __neg__(self) -> "Local2DElement":
        return Local2DElement(self.field, tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "Local2DElement") -> "Local2DElement":
        return self._merge(other, True)

    def __mul__(self, other: "Local2DElement") -> "Local2DElement":
        self._check(other)
        d: dict = {}  # keyed (b, a), so sorting the keys gives the term order
        for (a1, b1), c1 in self.terms:
            for (a2, b2), c2 in other.terms:
                k = (b1 + b2, a1 + a2)
                prod = c1 * c2
                d[k] = d[k] + prod if k in d else prod
        return Local2DElement(self.field, tuple(
            ((a, b), c) for (b, a), c in sorted(d.items()) if c))

    def ord_t(self) -> int:
        """Minimal t-exponent carrying a nonzero term; undefined for zero."""
        if not self.terms:
            raise ZeroOrderError("ord_t of the zero element is undefined")
        return self.terms[0][0][1]

    def t_levels(self):
        return sorted({b for (_, b), _ in self.terms})

    def t_slice(self, b: int) -> LaurentPoly:
        """Coefficient of t^b as a Laurent polynomial in u."""
        return LaurentPoly(self.field, tuple((a, c) for (a, bb), c in self.terms if bb == b))

    def to_json(self, component: Union[int, None] = None) -> dict:
        obj = {"terms": [[a, b, self.field.format(c)] for (a, b), c in self.terms]}
        if component is not None:
            obj["component"] = component
        return obj

    @staticmethod
    def from_json(obj: dict, field: Field) -> "Local2DElement":
        return Local2DElement.from_dict(field, {
            (json_int(a, "exponent"), json_int(b, "exponent")): field.scalar(c)
            for a, b, c in obj["terms"]})


def l2_add(x: Local2DElement, y: Local2DElement) -> Local2DElement:
    return x + y


def l2_mul(x: Local2DElement, y: Local2DElement) -> Local2DElement:
    """Exact product of finite sums; ord_t(xy) = ord_t(x) + ord_t(y) for nonzero inputs."""
    return x * y


def ord_t(x: Local2DElement) -> int:
    return x.ord_t()


def ord_t_vector(vec: Sequence[Local2DElement]) -> int:
    """Order of a vector in K^r: the minimum of the component orders."""
    orders = [x.ord_t() for x in vec if x]
    if not orders:
        raise ZeroOrderError("ord_t of the zero vector is undefined")
    return min(orders)


class TruncationResult(NamedTuple):
    value: Local2DElement
    dropped: bool


def truncate(x: Local2DElement, w: Window2D) -> TruncationResult:
    """Drop the terms outside the window and record whether anything was lost."""
    kept = tuple((k, c) for k, c in x.terms if w.contains(*k))
    return TruncationResult(Local2DElement(x.field, kept), len(kept) != len(x.terms))


def support_radius(x: Local2DElement) -> int:
    return max((max(abs(a), abs(b)) for (a, b) in x.support()), default=0)


def random_local2d(rng, field: Field, lo=-4, hi=4, max_terms=4) -> Local2DElement:
    """Small random element, used by the property suites."""
    from fractions import Fraction

    d = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(lo, hi), rng.randint(lo, hi))
        if field.p is None:
            d[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            d[key] = rng.randint(0, field.p - 1)
    return Local2DElement.from_dict(field, d)
