"""Built-in geometric data and the forward map from geometry to windowed Schur pairs.

Each datum fixes its curve model, distinguished point and formal parameters
once and for all; the plane model behind "p2-line" is the projective plane
with the line X2 = 0 as the curve, P = (1:0:0), u = X1/X0, t = X2/X0 and the
identity trivialization.  Expanding sections at P turns every level of the
filtration into a span of monomials u^a with a bounded above, which is what
the window model stores.

The "even-variant" datum is synthetic (not a geometric example): it restricts
the plane algebra to even t-orders purely to exercise the d > 1 case of the
cyclic order group, and is labeled as synthetic in all outputs.  The
"nilpotent" datum carries its own multiplication rule t_i t_j = 0 for
i, j != 0, which the order and axiom scans use instead of the field product.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Union

from . import _linalg
from .errors import (ConfigError, DegreeBoundError, UnsupportedDatumError,
                     WindowTooSmallError)
# fredholm_index is unused here, but bench/tracing.py patches it by name (ROADMAP item 2)
from .fredholm import echelonize, fredholm_index
from .local2d import Local2DElement, Window2D
from .schur import LayeredSubspace, Router, SchurPair, _index_or_marker
from .series import QQ, Field, LaurentPoly

P2_LINE = "p2-line"
EVEN_VARIANT = "even-variant"
NILPOTENT = "nilpotent"
NODAL_CUBIC = "nodal-cubic"
PROJECTIVE_KINDS = (P2_LINE, EVEN_VARIANT, NILPOTENT)
KINDS = PROJECTIVE_KINDS + (NODAL_CUBIC,)


@dataclass(frozen=True)
class GeometricDatum:
    """Descriptor of a built-in example; coordinates and P are fixed per kind."""

    kind: str
    twist: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown example kind {self.kind!r}")
        if self.twist and self.kind != P2_LINE:
            raise ConfigError("only p2-line supports a twist")

    @property
    def selfint(self) -> int:
        return 1 if self.kind in (P2_LINE, EVEN_VARIANT) else 0

    @property
    def synthetic(self) -> bool:
        return self.kind == EVEN_VARIANT

    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "twist": self.twist,
            "selfint": self.selfint,
            "synthetic": self.synthetic,
            "point": "(1:0:0)",
            "u": "X1/X0",
            "t": "X2/X0",
            "trivialization": "identity",
        }

    def level_bound(self, b: int, side: str) -> Union[int, None]:
        """Largest u-exponent present at t-level b, or None for a zero level.

        Monomial u^a t^b belongs to the side iff a <= bound; the bound comes
        from the pole-divisor computation for sections over the curve minus P.
        """
        m = self.twist if side == "W" else 0
        if self.kind == P2_LINE:
            return m - b
        if self.kind == EVEN_VARIANT:
            return -b if b % 2 == 0 else None
        if self.kind == NILPOTENT:
            return 0
        raise UnsupportedDatumError(f"{self.kind} has no section levels")

    def product(self, x: Local2DElement, y: Local2DElement) -> Local2DElement:
        """Multiplication rule of the datum's structure sheaf on representatives.

        Under the nilpotent rule t_i t_j = 0 (i, j != 0) only term pairs with a
        t^0 factor survive: with x0, y0 the t^0 parts, x0 * y + (x - x0) * y0.
        """
        if self.kind != NILPOTENT:
            return x * y
        x0, y0 = (Local2DElement(z.field, tuple(kc for kc in z.terms if kc[0][1] == 0))
                  for z in (x, y))
        return x0 * y + (x - x0) * y0


def make_datum(kind: str, twist: int = 0) -> GeometricDatum:
    return GeometricDatum(kind, twist)


def _build_level(g: GeometricDatum, b: int, side: str, w: Window2D, fld: Field):
    bound = g.level_bound(b, side)
    if bound is None:
        return echelonize([], 1, w.u_lo, w.u_hi, False, field=fld)
    if bound >= w.u_hi:
        raise ConfigError(
            f"level {b} needs u-exponent {bound}, outside the window top {w.u_hi}")
    if bound < w.u_lo - 1:
        raise ConfigError(
            f"level {b} lives entirely below the u-window; widen u_lo past {bound}")
    rows = [(LaurentPoly.monomial(fld, a),) for a in range(w.u_lo, bound + 1)]
    return echelonize(rows, 1, w.u_lo, w.u_hi, True, field=fld)


def _monomials(g: GeometricDatum, side: str, w: Window2D):
    """(a, b) of every monomial u^a t^b of the side inside the window, b-major."""
    for b in range(w.t_lo, w.t_hi):
        bound = g.level_bound(b, side)
        if bound is not None:
            yield from ((a, b) for a in range(w.u_lo, min(bound, w.u_hi - 1) + 1))


def _interior_generators(g: GeometricDatum, side: str, w: Window2D, fld: Field):
    return tuple((Local2DElement.monomial(fld, a, b),)
                 for a, b in _monomials(g, side, w.interior()))


def forward_krichever(g: GeometricDatum, w: Window2D, fld: Field = QQ) -> SchurPair:
    """Windowed Schur pair of a projective datum: section spaces expanded at P.

    For p2-line with twist m the algebra is spanned by monomials with
    a + b <= 0 and the module by a + b <= m, intersected with the window;
    levels are assembled with full below-window tails and the interior
    monomials are emitted as closure witnesses.  Witnesses and levels come
    from the same ``level_bound``, so every witness lies in its side.
    """
    if g.kind not in PROJECTIVE_KINDS:
        raise UnsupportedDatumError(
            "nodal-cubic is affine; the correspondence needs a projective irreducible curve")
    sides = {}
    for side in ("A", "W"):
        levels = tuple((b, _build_level(g, b, side, w, fld))
                       for b in range(w.t_lo, w.t_hi))
        gens = _interior_generators(g, side, w, fld)
        sides[side] = LayeredSubspace(fld, 1, w, levels, gens)
    return SchurPair(sides["A"], sides["W"], g.meta())


@dataclass
class LevelIndexTable:
    rows: list  # dicts: b, index_A/marker_A, index_W/marker_W

    def index(self, side: str, b: int):
        for row in self.rows:
            if row["b"] == b:
                return row[f"index_{side}"]
        raise KeyError(b)

    def to_json(self) -> dict:
        return {"levels": list(self.rows)}


def level_index_table(g: GeometricDatum, w: Window2D, fld: Field = QQ) -> LevelIndexTable:
    """Fredholm index of every visible level of A and W; margin hits become markers."""
    pair = forward_krichever(g, w, fld)
    rows = []
    for b in range(w.t_lo, w.t_hi):
        entry = {"b": b}
        for side, layer in (("A", pair.algebra), ("W", pair.module)):
            entry[f"index_{side}"], entry[f"marker_{side}"] = _index_or_marker(
                layer.level(b), w.m_u)
        rows.append(entry)
    return LevelIndexTable(rows)


@dataclass
class OrderGroupReport:
    d: int
    witness: Union[tuple, None]      # ((a, b), (a', b')) with product 1
    window_limited: bool

    def to_json(self) -> dict:
        return {"d": self.d, "witness": list(map(list, self.witness)) if self.witness else None,
                "window_limited": self.window_limited}


def order_group(g: GeometricDatum, w: Window2D, fld: Field = QQ) -> OrderGroupReport:
    """Nonnegative generator of the t-orders of invertible pairs found in the window.

    Pairs each window monomial u^a t^b (b > 0) of the algebra side with its
    partner u^-a t^-b, when that is one too, and keeps the pairs multiplying
    to 1 under the datum's own product; the witness has the least t-order.
    d = 0 with the window-limited caveat means only order-zero invertibles
    were found.
    """
    monomials = list(_monomials(g, "A", w))
    present = set(monomials)
    found = [(a, b) for a, b in monomials if b > 0 and (-a, -b) in present
             and g.product(Local2DElement.monomial(fld, a, b),
                           Local2DElement.monomial(fld, -a, -b)) == Local2DElement.one(fld)]
    d = math.gcd(*(b for _a, b in found))
    witness = (found[0], (-found[0][0], -found[0][1])) if found else None
    return OrderGroupReport(d, witness, window_limited=(d == 0))


@dataclass
class RibbonAxiomReport:
    unit: bool
    products_pass: bool
    products_checked: int
    products_vanished: int
    products_deferred: int
    products_escaped: int
    torsion_free: bool
    bad_levels: list

    @property
    def all_pass(self) -> bool:
        return self.unit and self.products_pass and self.torsion_free

    def to_json(self) -> dict:
        return {
            "unit_at_level_zero": self.unit,
            "filtered_products": {
                "pass": self.products_pass,
                "checked": self.products_checked,
                "vanished": self.products_vanished,
                "deferred": self.products_deferred,
                "escaped": self.products_escaped,
            },
            "torsion_free_levels": {"pass": self.torsion_free,
                                    "bad_levels": list(self.bad_levels)},
            "verdict": "pass" if self.all_pass else "fail",
        }


def _validate_layered(g: GeometricDatum, layer: LayeredSubspace) -> RibbonAxiomReport:
    """Route the datum's products of witness pairs through the Schur-check router.

    No t-order test is needed: t-orders add under the field product, and the
    nilpotent product only drops terms, so ord_t(xy) >= ord_t(x) + ord_t(y).
    """
    w = layer.window
    route = Router(A=layer)
    unit = route("A", (Local2DElement.one(layer.field),)) == "in"

    counts = Counter()
    gens = [vec[0] for vec in layer.generators]
    for i, x in enumerate(gens):
        for y in gens[i:]:
            prod = g.product(x, y)
            counts[route("A", (prod,)) if prod else "vanished"] += 1

    bad = []
    for b in range(w.t_lo, w.t_hi):
        lvl = layer.level(b)
        bounded = all(e < w.u_trusted_hi for (e, _c) in lvl.pivots)
        if not (lvl.full_below and bounded):
            bad.append(b)
    return RibbonAxiomReport(unit, counts["not-in"] == 0, counts["in"], counts["vanished"],
                             counts["deferred"], counts["escaped"], not bad, bad)


def validate_ribbon_axioms(g: GeometricDatum, w: Window2D, fld: Field = QQ) -> RibbonAxiomReport:
    """Windowed check of the filtration axioms: unit, graded products, torsion-freeness."""
    pair = forward_krichever(g, w, fld)
    return _validate_layered(g, pair.algebra)


# ---------------------------------------------------------------------------
# The affine nodal-cubic ring and the non-Noetherian ideal chain demonstration.
# ---------------------------------------------------------------------------

X = (1, 0)
Y = (0, 1)


@dataclass(frozen=True)
class NodalCubicRing:
    """k[x, y]/(y^2 - x^2 (x + 1)) in the normal-form basis {x^a, x^a y}, deg <= D."""

    degree_bound: int
    field: Field = QQ

    def __post_init__(self):
        if self.degree_bound < 1:
            raise DegreeBoundError("degree bound must be at least 1")

    def basis(self, max_deg: Union[int, None] = None):
        d = self.degree_bound if max_deg is None else max_deg
        out = []
        for a in range(d + 1):
            out.append((a, 0))
            if a + 1 <= d:
                out.append((a, 1))
        return out

    def mono_mul(self, m1, m2) -> dict:
        """Product of basis monomials, reduced by y^2 -> x^3 + x^2 (confluent)."""
        a, eps = m1[0] + m2[0], m1[1] + m2[1]
        one = self.field.one
        if eps < 2:
            return {(a, eps): one}
        return {(a + 3, 0): one, (a + 2, 0): one}

    def nf_mul(self, p: dict, q: dict) -> dict:
        out: dict = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                for m, c in self.mono_mul(m1, m2).items():
                    v = out.get(m, self.field.zero) + c1 * c2 * c
                    if v:
                        out[m] = v
                    else:
                        out.pop(m, None)
        return out

    def _ideal_window_dim(self, gen_monomials: Sequence[tuple]) -> int:
        """dim of (ideal generated by the monomials) ∩ {normal forms of degree <= D}.

        Spans products generator * basis monomial inside an extended degree
        window, then cuts down to degree <= D by comparing the rank with the
        rank of the projection onto the excess-degree coordinates.
        """
        d = self.degree_bound
        one = self.field.one
        span = []
        for gen in gen_monomials:
            for m in self.basis(d + 1):
                span.append(self.nf_mul({gen: one}, {m: one}))
        total = _linalg.rank(span)
        high = _linalg.rank([{m: c for m, c in row.items() if m[0] + m[1] > d}
                             for row in span])
        return total - high

    def point_ideal_dim(self) -> int:
        """dim of J_Q ∩ {deg <= D} for the ideal J_Q = (x, y) of the node."""
        return self._ideal_window_dim([X, Y])

    def point_ideal_sq_dim(self) -> int:
        return self._ideal_window_dim([(2, 0), (1, 1), (0, 2)])


def noncoherent_chain(ring: NodalCubicRing, k_max: int, w: Window2D):
    """Dimensions of the truncated ideals J_1 ⊂ J_2 ⊂ ... on the nodal cubic.

    J_k takes coefficients in J_Q everywhere and in J_Q^2 below t-order -k;
    at a fixed degree bound the chain grows by dim(J_Q/J_Q^2) per step and
    never stabilizes.
    """
    if ring.degree_bound < 3:
        raise DegreeBoundError(
            "degree bound below 3 cannot separate the cubic relation; use D >= 3")
    if k_max < 1:
        raise DegreeBoundError("k_max must be positive")
    if not (w.t_lo <= -k_max - 1 and w.t_hi >= 1):
        raise WindowTooSmallError(
            f"t-window must cover [{-k_max - 1}, 1) for k_max={k_max}")
    jd = ring.point_ideal_dim()
    j2d = ring.point_ideal_sq_dim()
    dims = []
    for k in range(1, k_max + 1):
        below = sum(1 for i in range(w.t_lo, w.t_hi) if i < -k)
        above = (w.t_hi - w.t_lo) - below
        dims.append(below * j2d + above * jd)
    return dims
