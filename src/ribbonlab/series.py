"""Exact scalars over Q or a prime field F_p, and Laurent polynomials in one variable u.

Everything here is exact and immutable: a rational is a Python int when it
is integral and an arbitrary-precision Fraction otherwise, and prime-field
elements are residues.  A Laurent polynomial is a value type, a finite
sorted map exponent -> nonzero scalar that carries one k((u)) component
into elimination and pair files; it has no arithmetic of its own.  Ring
arithmetic, orders included, is ``Local2DElement``'s.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ConfigError, FieldMismatchError

MAX_PRIME = 2 ** 31


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer, else ConfigError; a bool is not one."""
    if type(value) is not int:
        raise ConfigError(f"{what} {value!r} is not an integer")
    return value


def _rational(v):
    """A rational value in stored form: an integral Fraction becomes its int."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field: the rationals (p is None) or F_p for a prime p < 2^31."""

    p: Union[int, None] = None

    def __post_init__(self):
        if self.p is not None:
            if not (2 <= self.p < MAX_PRIME and _is_prime(self.p)):
                raise ConfigError(f"prime field needs a prime p < 2^31, got {self.p}")

    @property
    def tag(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    @staticmethod
    def from_tag(tag: str) -> "Field":
        """The field named by ``tag``; cached, so each prime is tested once."""
        if not isinstance(tag, str):
            raise ConfigError(f"field tag must be a string, got {tag!r}")
        return _field_from_tag(tag)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction or coefficient string into this field.

        Over Q the value is stored as an int when it is integral (``4``,
        ``Fraction(4, 2)``, ``"4/2"``) and as a Fraction otherwise.  Over F_p
        a fraction whose denominator is divisible by p has no value and is a
        ConfigError.  Anything else, a float or a bool included, is a
        ConfigError: a float is already rounded, and 0.5 would become 0 in F_7.
        """
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldMismatchError(f"{value.field.tag} vs {self.tag}")
            return value
        if isinstance(value, str):
            return self._parse(value)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ConfigError(f"coefficient {value!r} is not an integer, fraction or string")
        if self.p is None:
            return Scalar(self, _rational(value) if isinstance(value, Fraction) else int(value))
        if isinstance(value, Fraction):
            num = value.numerator % self.p
            den = value.denominator % self.p
            if den == 0:
                raise ConfigError(f"coefficient {value} has a denominator divisible by {self.p}")
            return Scalar(self, num * pow(den, -1, self.p) % self.p)
        return Scalar(self, int(value) % self.p)

    def _parse(self, s: str) -> "Scalar":
        if "/" in s:
            num, den = s.split("/", 1)
            try:
                return self.scalar(Fraction(int(num), int(den)))
            except ZeroDivisionError:
                raise ConfigError(f"coefficient {s!r} has a zero denominator") from None
        return self.scalar(int(s))

    def format(self, a: "Scalar") -> str:
        if self.p is None:
            return f"{a.value.numerator}/{a.value.denominator}"
        return str(a.value)

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)


QQ = Field()


@functools.lru_cache
def _field_from_tag(tag: str) -> Field:
    if tag == "Q":
        return QQ
    if tag.startswith("Fp:"):
        return Field(int(tag[3:]))
    raise ConfigError(f"unknown field tag {tag!r}")


@dataclass(frozen=True)
class Scalar:
    """Exact field element; arithmetic never leaves the field and never rounds.

    Over Q ``value`` is an int exactly when the element is integral and a
    Fraction otherwise, never a float; every operator keeps that form, so
    equal elements have equal values and equal hashes.  Over F_p ``value``
    is the residue in [0, p).
    """

    field: Field
    value: Union[Fraction, int]

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(f"{self.field.tag} vs {other.field.tag}")
            return other
        return self.field.scalar(other)

    def __add__(self, other):
        other = self._coerce(other)
        v, p = self.value + other.value, self.field.p
        return Scalar(self.field, _rational(v) if p is None else v % p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        v, p = self.value - other.value, self.field.p
        return Scalar(self.field, _rational(v) if p is None else v % p)

    def __mul__(self, other):
        other = self._coerce(other)
        v, p = self.value * other.value, self.field.p
        return Scalar(self.field, _rational(v) if p is None else v % p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact quotient; over Q it goes through Fraction, so int / int never gives a float."""
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        p = self.field.p
        if p is None:
            return Scalar(self.field, _rational(Fraction(self.value, other.value)))
        return Scalar(self.field, self.value * pow(other.value, -1, p) % p)

    def __neg__(self):
        p = self.field.p
        return Scalar(self.field, -self.value if p is None else -self.value % p)

    def inverse(self) -> "Scalar":
        return self.field.one / self

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        # equal Scalars have equal values; hashing the value alone skips the Field's hash
        return hash(self.value)

    def __str__(self):
        return self.field.format(self)


@dataclass(frozen=True)
class LaurentPoly:
    """Finite Laurent polynomial in u: sorted tuple of (exponent, nonzero scalar)."""

    field: Field
    coeffs: tuple = ()

    @staticmethod
    def from_dict(field: Field, d) -> "LaurentPoly":
        """Coerce a dict or a list of (exponent, coefficient) pairs; an exponent may not repeat."""
        items = {}
        for e, c in (d.items() if isinstance(d, dict) else d):
            e = json_int(e, "exponent")
            if e in items:
                raise ConfigError(f"exponent {e} is repeated")
            items[e] = field.scalar(c)
        return LaurentPoly(field, tuple(sorted((e, c) for e, c in items.items() if c)))

    @staticmethod
    def monomial(field: Field, exp: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly.from_dict(field, {exp: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def to_json(self) -> dict:
        """The coefficients alone; the field is the enclosing pair's."""
        return {"coeffs": [[e, self.field.format(c)] for e, c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict, field: Field) -> "LaurentPoly":
        """Read a polynomial over ``field``; a ``"field"`` tag is optional but must name it."""
        if "field" in obj and Field.from_tag(obj["field"]) != field:
            raise FieldMismatchError(f"polynomial tagged {obj['field']} in a {field.tag} pair")
        return LaurentPoly.from_dict(field, obj["coeffs"])
