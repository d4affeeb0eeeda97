"""Two-chart Cech cohomology of line bundles on the base line and of truncated
level stacks on its formal thickenings, plus the unipotent Picard dimension.

Charts are U1 = P^1 minus infinity with coordinate u and U2 = P^1 minus zero
with coordinate 1/u; a twist-d section moves across the overlap by
g(u') -> u^d g(1/u), so the chart-2 monomial (1/u)^a lands on overlap
exponent d - a.  All section spaces are truncated at a chart degree bound B,
and every result states its bound, so each dimension claim stays an honest
finite statement.  Level degrees come from ``GeometricDatum.level_bound``.
``ribbon_cohomology`` and ``picard_dimension`` return their reports as the
JSON-ready dicts that ``report cohomology`` and ``report picard`` write from.
"""

from __future__ import annotations

from . import _linalg
from .errors import RangeViolationError, TruncationBoundError, UnsupportedDatumError
from .geometry import P2_LINE, GeometricDatum
from .series import QQ, Field


def cech_line_bundle(d: int, B: int, fld: Field = QQ):
    """(h0, h1) of the twist-d line bundle on the base line, from the two-chart complex.

    Each chart carries the monomials of degree 0..B in its coordinate.  The
    Cech difference map sends u^a on U1 to overlap exponent a with sign +1
    and (1/u)^a on U2 to overlap exponent d - a with sign -1; h0 is its
    kernel and h1 its cokernel in the truncated overlap, exponents d - B
    through B, of which there are 2B - d + 1.  Both hull edges, B and d - B,
    are images of degree-B chart monomials, so no cokernel class can sit on
    the truncation edge.
    """
    if B < abs(d) + 2:
        raise TruncationBoundError(f"bound B={B} too small for twist {d}; need B >= |d| + 2")
    plus, minus = fld.one, -fld.one
    columns = [{a: plus} for a in range(B + 1)] + [{d - a: minus} for a in range(B + 1)]
    rank = len(_linalg.echelon(columns))
    return len(columns) - rank, 2 * B - d + 1 - rank


def ribbon_cohomology(degrees, B: int, fld: Field = QQ) -> dict:
    """Cohomology of a truncated level stack: one Cech complex per level, summed.

    Level j is the line bundle of twist d = ``degrees[j]``; a bound below
    |d| + 2 at any level raises ``TruncationBoundError``.  Returns the sums h0
    and h1 (again as ``levelwise``), the per-level {d, h0, h1} and ``bound``.

    ``agreement`` and ``transition_surjective`` hold by construction: every
    Cech difference column is a single key (level, exponent), so the block
    complex is block-diagonal by level and equals the levelwise sum; and the
    two-chart complex has no C^2 term, so dropping the deepest level maps C^1
    onto C^1 and every H^1 transition between truncation depths is onto.
    """
    levels = []
    for d in degrees:
        h0, h1 = cech_line_bundle(d, B, fld)
        levels.append({"d": d, "h0": h0, "h1": h1})
    h0, h1 = sum(lv["h0"] for lv in levels), sum(lv["h1"] for lv in levels)
    return {"h0": h0, "h1": h1, "levels": levels, "levelwise": {"h0": h0, "h1": h1},
            "agreement": True, "transition_surjective": True, "bound": B,
            "note": "levelwise sums; the block complex is block-diagonal by level and "
                    "the two-chart complex has no C^2 term, so both flags hold by construction"}


def picard_dimension(g: GeometricDatum, depth: int, B: int, fld: Field = QQ) -> dict:
    """Dimension of the unipotent Picard part of the depth-i thickening.

    h^1 of the level stack of graded pieces, the piece at level j = 1..i being
    the line bundle of degree ``g.level_bound(j, "A")``, -j(C.C) on the
    p2-line; the grading is exact because every piece has vanishing h^0 (the
    stack's h^0 is 0), as ``h0_vanishing`` records.  Also reports the levels
    {j, d, h0, h1} and the discrete invariant d = -(C.C) of the degree quotient.
    """
    if g.kind != P2_LINE:
        raise UnsupportedDatumError("picard dimension is computed for the p2-line datum only")
    if depth < 1:
        raise RangeViolationError("thickening depth must be a positive integer")
    rep = ribbon_cohomology([g.level_bound(j, "A") for j in range(1, depth + 1)], B, fld)
    levels = [dict(lv, j=j) for j, lv in enumerate(rep["levels"], 1)]
    return {"dim": rep["h1"], "levels": levels, "d": -g.selfint,
            "h0_vanishing": rep["h0"] == 0}
