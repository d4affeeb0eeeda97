"""Finite representatives of the two-dimensional local field k((u))((t)).

An element is a finite formal sum of monomials u^a t^b with exact nonzero
coefficients.  Infinite tails never appear here; they live in the subspace
types as a full-below flag.  Truncation windows carry their margins so every
consumer applies the same interior-region convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

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
        if not (2 * self.m_t < self.t_hi - self.t_lo and 2 * self.m_u < self.u_hi - self.u_lo):
            raise ConfigError("margins must stay below half the window width")

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
    ``from_dict`` coerces, and ``from_json`` hands it the raw terms (together
    they are the input boundary); the arithmetic and ``t_slice`` build
    their results directly from canonical terms, so equal elements have
    equal ``terms``.
    """

    field: Field
    terms: tuple = ()  # ((a, b), Scalar), sorted by (b, a)

    @staticmethod
    def from_dict(field: Field, d) -> "Local2DElement":
        """Coerce a dict or a list of ((a, b), coefficient) pairs; a key (a, b) may not repeat."""
        items = {}
        for (a, b), c in (d.items() if isinstance(d, dict) else d):
            k = (json_int(a, "exponent"), json_int(b, "exponent"))
            if k in items:
                raise ConfigError(f"term u^{a} t^{b} is repeated")
            items[k] = field.scalar(c)
        terms = [(k, c) for k, c in items.items() if c]
        terms.sort(key=lambda kc: (kc[0][1], kc[0][0]))
        return Local2DElement(field, tuple(terms))

    @staticmethod
    def zero(field: Field) -> "Local2DElement":
        return Local2DElement(field, ())

    @staticmethod
    def one(field: Field) -> "Local2DElement":
        return Local2DElement.monomial(field, 0, 0)

    @staticmethod
    def monomial(field: Field, a: int, b: int, coeff=1) -> "Local2DElement":
        return Local2DElement.from_dict(field, {(a, b): coeff})

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other: "Local2DElement"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(f"{self.field.tag} vs {other.field.tag}")

    def _merge(self, other: "Local2DElement", negate: bool) -> "Local2DElement":
        """self + other, or self - other when ``negate``: one merge of two sorted runs.

        Subtracting an element whose terms equal a leading block of self's
        returns self's remaining terms as they are, with no coefficient
        touched: that is ``layered_membership``'s lift subtraction.  The test
        compares terms exactly, so a block that differs anywhere is merged.
        """
        self._check(other)
        x, y = self.terms, other.terms
        if negate and x[:len(y)] == y:
            return Local2DElement(self.field, x[len(y):])
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
        """Product; a one-term factor c u^a t^b shifts the other factor's terms.

        Adding (a, b) to every key keeps the (b, a) order, and c times a
        nonzero coefficient is nonzero in a field, so a shift needs no sort and
        no zero test.  Otherwise only a key where two term pairs met can sum
        to zero, so only those keys are tested.
        """
        self._check(other)
        x, y = self.terms, other.terms
        if len(x) == 1:
            x, y = y, x
        if len(y) == 1:
            ((a2, b2), c2), = y
            return Local2DElement(self.field, tuple(
                ((a1 + a2, b1 + b2), c1 * c2) for (a1, b1), c1 in x))
        d: dict = {}  # keyed (b, a), so sorting the keys gives the term order
        met = set()
        for (a1, b1), c1 in x:
            for (a2, b2), c2 in y:
                k = (b1 + b2, a1 + a2)
                prod = c1 * c2
                if k in d:
                    d[k] = d[k] + prod
                    met.add(k)
                else:
                    d[k] = prod
        for k in met:
            if not d[k]:
                del d[k]
        return Local2DElement(self.field, tuple(((a, b), c) for (b, a), c in sorted(d.items())))

    def ord_t(self) -> int:
        """Minimal t-exponent carrying a nonzero term; undefined for zero."""
        if not self.terms:
            raise ZeroOrderError("ord_t of the zero element is undefined")
        return self.terms[0][0][1]

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
        return Local2DElement.from_dict(field, (((a, b), c) for a, b, c in obj["terms"]))


def ord_t_vector(vec: Sequence[Local2DElement]) -> int:
    """Order of a vector in K^r: the minimum of the component orders."""
    orders = [x.ord_t() for x in vec if x]
    if not orders:
        raise ZeroOrderError("ord_t of the zero vector is undefined")
    return min(orders)
