"""Finite echelon models of discrete-cocompact subspaces of k((u))^r relative to k[[u]]^r.

A WindowedSubspace spans finitely many echelon rows inside a u-window
[u_lo, u_hi) and, when full_below is set, additionally contains every vector
supported strictly below the window.  That full below-window tail is the only
infinite mechanism in the model; it is what makes the quotient by k[[u]]^r
linearly compact and the index finite.

Rows are vectors of Laurent polynomials.  The ambient basis is indexed by
(exponent, component) in exponent-major order, so a row's pivot is its lowest
u-order term and the pivot profile is the gap sequence of the subspace.  A
vector enters the model only through ``_row``, which ``echelonize`` and
``membership`` share.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence

from . import _linalg
from .errors import (ConfigError, FieldMismatchError, NotCocompactError,
                     SupportViolationError, WindowTooSmallError)
from .series import Field, LaurentPoly, json_int


class Verdict(enum.Enum):
    IN = "in"
    NOT_IN = "not-in"
    INCONCLUSIVE = "inconclusive"


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
        """Split each stored row, sorted by (e, c), into its r canonical components."""
        return [tuple(LaurentPoly(self.field, tuple((e, coeff) for (e, cc), coeff in row if cc == c))
                      for c in range(self.r)) for row in self.rows]

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


def _row(vec: Sequence[LaurentPoly], r: int, field: Field, u_lo: int, u_hi: int,
         full_below: bool) -> dict:
    """Admit a vector into the window as a row dict {(exponent, component): coefficient}.

    The model's one admission rule, checked in this order: r components; every
    component over ``field``; every term in [u_lo, u_hi), except that with
    full_below set a term below u_lo is dropped, since the modeled tail
    absorbs it.
    """
    if len(vec) != r:
        raise SupportViolationError(f"vector has {len(vec)} components, expected {r}")
    for poly in vec:
        if poly.field is not field and poly.field != field:
            raise FieldMismatchError(f"component over {poly.field.tag} in a {field.tag} space")
    row = {}
    for c, poly in enumerate(vec):
        for e, coeff in poly.coeffs:
            if u_lo <= e < u_hi:
                row[(e, c)] = coeff
            elif e >= u_hi or not full_below:
                raise SupportViolationError(f"exponent {e} outside window [{u_lo}, {u_hi})")
    return row


def echelonize(rows: Sequence[Sequence[LaurentPoly]], r: int, u_lo: int, u_hi: int,
               full_below: bool, field: Field) -> WindowedSubspace:
    """Reduced echelon form of the span of the given vectors inside the window.

    Each vector is admitted by ``_row``, so with full_below set its terms
    below u_lo are discarded before elimination.
    """
    basis = _linalg.echelon([_row(vec, r, field, u_lo, u_hi, full_below) for vec in rows])
    canon = tuple(tuple(sorted(row.items())) for row in basis)
    return WindowedSubspace(field, r, u_lo, u_hi, full_below, canon)


def membership(W: WindowedSubspace, vec: Sequence[LaurentPoly]) -> Verdict:
    """In iff the vector reduces to zero against the rows.

    The vector is admitted by ``_row`` without the tail: terms below u_lo count
    as zero only through the full_below tail of the rows themselves, so a
    vector poking outside the window is refused.  The rows must be in reduced
    echelon form, which ``echelonize`` guarantees: the reduction reads each
    row's multiple off the vector's coefficient at that row's pivot.
    """
    row = _row(vec, W.r, W.field, W.u_lo, W.u_hi, False)
    return Verdict.IN if not _linalg.reduce_vector(row, W.pivot_rows) else Verdict.NOT_IN


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
    # by the pivot profile: #{e >= 0} - (r * -u_lo - #{e < 0}); the two counts sum to all pivots
    return len(W.pivots) + W.r * W.u_lo
