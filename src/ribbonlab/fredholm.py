"""Finite echelon models of discrete-cocompact subspaces of k((u))^r relative to k[[u]]^r.

A WindowedSubspace spans finitely many echelon rows inside a u-window
[u_lo, u_hi) and, when full_below is set, additionally contains every vector
supported strictly below the window.  That full below-window tail is the only
infinite mechanism in the model; it is what makes the quotient by k[[u]]^r
linearly compact and the index finite.

Rows are vectors of Laurent polynomials.  The ambient basis is indexed by
(exponent, component) in exponent-major order, so a row's pivot is its lowest
u-order term and the pivot profile is the gap sequence of the subspace.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence, Union

from . import _linalg
from .errors import (ConfigError, FieldMismatchError, NotCocompactError,
                     SupportViolationError, WindowTooSmallError)
from .series import Field, LaurentPoly, json_int


class Verdict(enum.Enum):
    IN = "in"
    NOT_IN = "not-in"
    INCONCLUSIVE = "inconclusive"


def _vector_to_row(vec: Sequence[LaurentPoly]) -> dict:
    row = {}
    for c, poly in enumerate(vec):
        for e, coeff in poly.coeffs:
            row[(e, c)] = coeff
    return row


def _row_to_vector(row: tuple, r: int, field: Field) -> tuple:
    """Split a stored row, sorted by (e, c), into its r canonical components."""
    return tuple(LaurentPoly(field, tuple((e, coeff) for (e, cc), coeff in row if cc == c))
                 for c in range(r))


@dataclass(frozen=True)
class WindowedSubspace:
    """Echelonized window model; rows stored canonically sorted by pivot.

    ``rows`` must be in reduced echelon form: pivot coefficient exactly 1 and
    every row zero at every other row's pivot.  ``membership`` relies on it,
    since ``_linalg.reduce_vector`` drops each pivot entry without
    arithmetic.  ``echelonize``, the only place in the package that builds a
    WindowedSubspace, guarantees it.
    """

    field: Field
    r: int
    u_lo: int
    u_hi: int
    full_below: bool
    rows: tuple = ()  # each row: tuple(((e, c), Scalar), ...) sorted by (e, c)

    def row_dicts(self) -> list:
        return [dict(row) for row in self.rows]

    @functools.cached_property
    def pivots(self) -> tuple:
        """Pivot key of each row in order; a stored row's first key is its pivot."""
        return tuple(row[0][0] for row in self.rows)

    @functools.cached_property
    def pivot_rows(self) -> dict:
        """{pivot key: row dict}."""
        return dict(zip(self.pivots, self.row_dicts()))

    def row_vectors(self) -> list:
        return [_row_to_vector(row, self.r, self.field) for row in self.rows]

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "u_lo": self.u_lo,
            "u_hi": self.u_hi,
            "full_below": self.full_below,
            "rows": [[p.to_json() for p in vec] for vec in self.row_vectors()],
        }

    @staticmethod
    def from_json(obj: dict, field: Field) -> "WindowedSubspace":
        if type(obj["full_below"]) is not bool:
            raise ConfigError(f"full_below {obj['full_below']!r} is not true or false")
        rows = [tuple(LaurentPoly.from_json(p, field) for p in vec) for vec in obj["rows"]]
        return echelonize(rows, json_int(obj["r"], "rank r"), json_int(obj["u_lo"], "u_lo"),
                          json_int(obj["u_hi"], "u_hi"), obj["full_below"], field=field)


def echelonize(rows: Sequence[Sequence[LaurentPoly]], r: int, u_lo: int, u_hi: int,
               full_below: bool, field: Union[Field, None] = None) -> WindowedSubspace:
    """Reduced echelon form of the span of the given vectors inside the window.

    With full_below set, terms below u_lo are absorbable into the modeled tail
    and are discarded before elimination.  Support at or above u_hi is an error,
    and so is a component over a field other than ``field`` (default: the first's).
    """
    dict_rows = []
    for vec in rows:
        if len(vec) != r:
            raise SupportViolationError(f"vector has {len(vec)} components, expected {r}")
        if field is None:
            field = vec[0].field
        for poly in vec:
            if poly.field is not field and poly.field != field:
                raise FieldMismatchError(f"component over {poly.field.tag} in a {field.tag} space")
        row = _vector_to_row(vec)
        kept = {}
        for (e, c), coeff in row.items():
            if e >= u_hi:
                raise SupportViolationError(f"exponent {e} at or above window top {u_hi}")
            if e < u_lo:
                if not full_below:
                    raise SupportViolationError(f"exponent {e} below window bottom {u_lo}")
                continue  # absorbed by the full below-window tail
            kept[(e, c)] = coeff
        dict_rows.append(kept)
    if field is None:
        raise SupportViolationError("cannot infer the field of an empty subspace; pass field=")
    basis = _linalg.echelon(dict_rows)
    canon = tuple(tuple(sorted(row.items())) for row in basis)
    return WindowedSubspace(field, r, u_lo, u_hi, full_below, canon)


def membership(W: WindowedSubspace, vec: Sequence[LaurentPoly]) -> Verdict:
    """In iff the vector reduces to zero against the rows.

    The vector's support must lie inside the window; terms below u_lo count as
    zero only through the full_below tail of the rows themselves, a vector
    poking outside is rejected; a component's exponents are sorted, so only
    its first and last are compared with the window.  The rows must be in
    reduced echelon form, which ``echelonize`` guarantees: the reduction reads
    each row's multiple off the vector's coefficient at that row's pivot.
    """
    if len(vec) != W.r:
        raise SupportViolationError(f"vector has {len(vec)} components, expected {W.r}")
    u_lo, u_hi = W.u_lo, W.u_hi
    for poly in vec:
        if poly.coeffs:
            for e in (poly.coeffs[0][0], poly.coeffs[-1][0]):
                if not u_lo <= e < u_hi:
                    raise SupportViolationError(f"exponent {e} outside window [{u_lo}, {u_hi})")
    row = _vector_to_row(vec)
    rem = _linalg.reduce_vector(row, W.pivot_rows)
    return Verdict.IN if not rem else Verdict.NOT_IN


def check_top_margin(W: WindowedSubspace, top_margin: int):
    """Raise WindowTooSmallError if a pivot lies in the distrusted top u-margin."""
    for (e, _c) in W.pivots:
        if e >= W.u_hi - top_margin:
            raise WindowTooSmallError(
                f"pivot exponent {e} touches the top margin [{W.u_hi - top_margin}, {W.u_hi})")


def fredholm_index(W: WindowedSubspace, top_margin: int = 0) -> int:
    """Index of the modeled subspace against k[[u]]^r.

    Equals dim(RowSpan ∩ F+) - dim(F- / proj(RowSpan)) with F+ the window span
    of exponents >= 0 and F- the span of exponents < 0; for faithfully windowed
    inputs this is the index of W -> k((u))^r / k[[u]]^r.
    """
    if not W.full_below:
        raise NotCocompactError(
            "subspace without a full below-window tail has a non-compact quotient")
    if not (W.u_lo <= 0 < W.u_hi):
        raise WindowTooSmallError(
            "index against k[[u]]^r needs the window to straddle exponent 0")
    check_top_margin(W, top_margin)
    # exponent-major reduced echelon: a combination lies in F+ iff every
    # contributing row has pivot exponent >= 0, so both dimensions read off
    # the pivot profile.
    nonneg = sum(1 for (e, _c) in W.pivots if e >= 0)
    neg = len(W.pivots) - nonneg
    neg_window = W.r * max(0, min(0, W.u_hi) - W.u_lo)
    return nonneg - (neg_window - neg)
