"""t-filtered subspaces of K^r, Schur-pair verification, graded slices and Hilbert data.

A LayeredSubspace models a subspace L of k((u))((t))^r inside a rectangular
window as the direct sum of t^b * levels[b], one WindowedSubspace per t-level
b, plus a finite list of generator vectors kept as closure witnesses.  Levels
are authoritative.  A witness is checked against L by the same rule that the
Schur check applies to products, ``layered_membership``.

Membership is three-valued.  Truncation must distinguish "provably outside"
from "escaped the window", so reductions that reach the distrusted top margin
return Inconclusive instead of guessing.  The Schur check routes each witness
product in one pass over its terms (``_route_check``: in, not-in, deferred
into a margin, or escaped the window) and merges every outcome, Fredholm
markers included, by one order: pass < inconclusive < fail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Sequence, Union

from .errors import (ConfigError, FieldMismatchError, NotCocompactError,
                     RangeViolationError, SupportViolationError,
                     WindowMismatchError, WindowTooSmallError)
from .fredholm import (Verdict, WindowedSubspace, direct_sum,
                       fredholm_index, membership)
from .local2d import Local2DElement, Window2D, ord_t_vector
from .series import Field, LaurentPoly, json_int


def as_vector(x, r: int) -> tuple:
    """Coerce a bare element to a rank-1 vector; pass vectors through."""
    if isinstance(x, Local2DElement):
        if r != 1:
            raise SupportViolationError("bare element given where a rank-%d vector is needed" % r)
        return (x,)
    vec = tuple(x)
    if len(vec) != r:
        raise SupportViolationError(f"vector has {len(vec)} components, expected {r}")
    return vec


def scalar_times_vector(a: Local2DElement, vec: Sequence[Local2DElement]) -> tuple:
    return tuple(a * x for x in vec)


@dataclass(frozen=True)
class LayeredSubspace:
    """Window model of a t-filtered subspace: one windowed space per t-level."""

    field: Field
    r: int
    window: Window2D
    levels: tuple = ()       # ((b, WindowedSubspace), ...) for every b in [t_lo, t_hi)
    generators: tuple = ()   # closure-witness vectors, each a tuple of Local2DElement

    def __post_init__(self):
        by_b = dict(self.levels)
        for b in range(self.window.t_lo, self.window.t_hi):
            if b not in by_b:
                raise ConfigError(f"missing level {b} in layered subspace")
            lvl = by_b[b]
            if lvl.r != self.r or (lvl.u_lo, lvl.u_hi) != (self.window.u_lo, self.window.u_hi):
                raise ConfigError(f"level {b} does not match the layered window/rank")
        if any(len(vec) != self.r for vec in self.generators):
            raise ConfigError(f"every generator needs {self.r} components")
        object.__setattr__(self, "_by_b", by_b)

    def level(self, b: int) -> WindowedSubspace:
        return self._by_b[b]

    def validate_witnesses(self):
        """Raise ConfigError if ``layered_membership`` puts a generator outside L.

        An inconclusive verdict (a remainder reaching the top t-margin) is not
        an error: it says nothing about the witness.
        """
        for i, vec in enumerate(self.generators):
            if layered_membership(self, vec) is Verdict.NOT_IN:
                raise ConfigError(f"generator #{i} is not in the layered subspace")

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "levels": [{"b": b, "space": lvl.to_json()} for b, lvl in self.levels],
            "generators": [
                [x.to_json(component=c + 1) for c, x in enumerate(vec)]
                for vec in self.generators
            ],
        }

    @staticmethod
    def from_json(obj: dict, window: Window2D, fld: Field) -> "LayeredSubspace":
        levels = tuple(
            (json_int(entry["b"], "level b"), WindowedSubspace.from_json(entry["space"], fld))
            for entry in obj["levels"]
        )
        generators = tuple(
            tuple(Local2DElement.from_json(e, fld) for e in vec)
            for vec in obj["generators"]
        )
        return LayeredSubspace(fld, json_int(obj["r"], "rank r"), window, levels, generators)


@dataclass(frozen=True)
class SchurPair:
    """Pair (A, W): A a rank-1 layered subalgebra model containing 1, W its module."""

    algebra: LayeredSubspace
    module: LayeredSubspace
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.algebra.r != 1:
            raise ConfigError("the subalgebra side of a pair must have rank 1")
        if self.algebra.window != self.module.window:
            raise WindowMismatchError("pair sides live on different windows")
        if self.algebra.field != self.module.field:
            raise WindowMismatchError("pair sides live over different fields")

    @property
    def window(self) -> Window2D:
        return self.algebra.window

    @property
    def field(self) -> Field:
        return self.algebra.field

    def to_json(self) -> dict:
        return {
            "A": self.algebra.to_json(),
            "W": self.module.to_json(),
            "window": self.window.to_json(),
            "field": self.field.tag,
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_json(obj: dict) -> "SchurPair":
        fld = Field.from_tag(obj["field"])
        window = Window2D.from_json(obj["window"])
        meta = obj.get("meta", {})
        if not isinstance(meta, dict):
            raise ConfigError(f"pair meta {meta!r} is not a JSON object")
        return SchurPair(
            LayeredSubspace.from_json(obj["A"], window, fld),
            LayeredSubspace.from_json(obj["W"], window, fld),
            dict(meta),
        )


def layered_membership(L: LayeredSubspace, x) -> Verdict:
    """Iterated level-by-level reduction of x against L.

    At each step the t^b-coefficient vector of the remainder is reduced
    against levels[b]; a nonzero remainder there means NotIn, otherwise the
    certified level-b representative is subtracted and reduction continues on
    the strictly higher t-order part.  Reaching the distrusted top margin with
    a nonzero remainder is Inconclusive.

    Components are canonical (see ``Local2DElement``), so with b the least
    t-order, the t^b slice of a component is the leading block of its terms.
    The slice and its lift t^b * slice are built from that block as they
    are, with no coefficient coerced again.
    """
    w = L.window
    vec = as_vector(x, L.r)
    for comp in vec:
        if comp.field is not L.field and comp.field != L.field:
            raise FieldMismatchError(f"{comp.field.tag} vs {L.field.tag}")
        for (a, b), _c in comp.terms:
            if not w.contains(a, b):
                raise SupportViolationError(f"term u^{a} t^{b} outside the window")
    rem = list(vec)
    while any(rem):
        b = ord_t_vector(rem)
        if b >= w.t_trusted_hi:
            return Verdict.INCONCLUSIVE
        blocks = []
        for comp in rem:
            n = 0
            for (_a, bb), _c in comp.terms:
                if bb != b:
                    break
                n += 1
            blocks.append(comp.terms[:n])
        slice_vec = tuple(LaurentPoly(L.field, tuple((a, c) for (a, _), c in block))
                          for block in blocks)
        if membership(L.level(b), slice_vec) is Verdict.NOT_IN:
            return Verdict.NOT_IN
        lift = tuple(Local2DElement(L.field, block) for block in blocks)
        rem = [rem_c - lift_c for rem_c, lift_c in zip(rem, lift)]
    return Verdict.IN


def _route_check(L: LayeredSubspace, vec) -> str:
    """Classify a product against the window's trust regions, then decide.

    One pass over the terms returns 'escaped' at the first term that leaves
    the representable window: outside the t-window, at or above u_hi, or below
    u_lo at a level without a full below-window tail.  Below-window terms that
    a full_below level absorbs are dropped.  What is left is 'in' if it is
    zero, 'deferred' if a term lies in a margin band (the margins exist to
    absorb exactly these), and otherwise the ``layered_membership`` verdict,
    'in' or 'not-in'.  That verdict is never inconclusive here: subtracting a
    lift removes one t-slice, so every t-order reduced is below t_trusted_hi.
    """
    w = L.window
    kept, in_margin = [], False
    for comp in vec:
        terms = []
        for (a, b), c in comp.terms:
            if not w.t_lo <= b < w.t_hi or a >= w.u_hi:
                return "escaped"
            if a < w.u_lo:
                if L.level(b).full_below:
                    continue
                return "escaped"
            in_margin = in_margin or b >= w.t_trusted_hi or a >= w.u_trusted_hi
            terms.append(((a, b), c))
        kept.append(Local2DElement(comp.field, tuple(terms)))
    if not any(kept):
        return "in"
    return "deferred" if in_margin else layered_membership(L, kept).value


class Router:
    """``_route_check`` over the named sides of one closure scan, memoised.

    A result is keyed by side name and exact product, so equal products on
    different sides never share a verdict.  Witness products repeat heavily
    on split pairs and hardly at all on perturbed ones, so a result is stored
    only once its key is routed a second time: ``_seen`` holds the hashes of
    keys routed once.  A hash collision only costs a recomputation, since the
    memo matches full keys.
    """

    def __init__(self, **sides: LayeredSubspace):
        self.sides = sides
        self._seen = set()
        self._memo = {}

    def __call__(self, side: str, vec) -> str:
        key = (side, tuple(x.terms for x in vec))
        h = hash(key)
        if h not in self._seen:
            self._seen.add(h)
            return _route_check(self.sides[side], vec)
        res = self._memo.get(key)
        if res is None:
            res = self._memo[key] = _route_check(self.sides[side], vec)
        return res


# the verdict each check outcome supports; None is a level with an index
_VERDICT_OF = {"in": "pass", "deferred": "pass", None: "pass",
               "escaped": "inconclusive", "window-too-small": "inconclusive",
               "not-in": "fail", "not-cocompact": "fail"}
_SEVERITY = ("pass", "inconclusive", "fail")


def _merge(outcomes) -> str:
    """The most severe verdict the outcomes support: pass < inconclusive < fail."""
    return max((_VERDICT_OF[o] for o in outcomes), key=_SEVERITY.index, default="pass")


@dataclass
class LevelIndexRow:
    b: int
    index_a: Union[int, None]
    index_w: Union[int, None]
    marker_a: Union[str, None] = None
    marker_w: Union[str, None] = None


@dataclass
class SchurReport:
    subalgebra: str
    module_closure: str
    fredholm: str
    verdict: str
    unit: str
    levels: list
    checked: int
    deferred: int
    escaped: int
    failures: list

    def to_json(self) -> dict:
        return {
            "subalgebra": self.subalgebra,
            "module_closure": self.module_closure,
            "fredholm": self.fredholm,
            "verdict": self.verdict,
            "unit": self.unit,
            "levels": [
                {"b": row.b, "index_A": row.index_a, "index_W": row.index_w,
                 "marker_A": row.marker_a, "marker_W": row.marker_w}
                for row in self.levels
            ],
            "tallies": {"checked": self.checked, "deferred": self.deferred,
                        "escaped": self.escaped},
            "failures": list(self.failures),
        }


def _index_or_marker(level: WindowedSubspace, m_u: int):
    try:
        return fredholm_index(level, m_u), None
    except NotCocompactError:
        return None, "not-cocompact"
    except WindowTooSmallError:
        return None, "window-too-small"


def check_schur_pair(pair: SchurPair) -> SchurReport:
    """Run the three Schur-pair verdicts on a windowed pair.

    (1) subalgebra: 1 is in A and products of A-witness pairs never reduce to
    NotIn; (2) module closure: products of A-witnesses with W-witnesses never
    reduce to NotIn inside W; (3) per-level Fredholm indices exist on every
    level of the t-interior.  Pass needs no NotIn and no Fredholm failure;
    any escape or window-too-small makes the overall verdict inconclusive.
    Repeated products reuse an earlier routing result (see ``Router``), but
    every occurrence is tallied and every failing occurrence keeps its own
    label.
    """
    A, W = pair.algebra, pair.module
    w = pair.window
    failures = []
    tallies = Counter()
    outcomes = {"A": set(), "W": set()}
    route = Router(A=A, W=W)

    def run(side, vec, label):
        res = route(side, vec)
        outcomes[side].add(res)
        tallies["checked" if res in ("in", "not-in") else res] += 1
        if res == "not-in":
            failures.append(label)
        return res

    unit_res = run("A", (Local2DElement.one(pair.field),), "unit 1 not in A")
    a_gens = A.generators
    for i, g in enumerate(a_gens):
        run("A", g, f"A-generator #{i} fails membership")
    for i, g in enumerate(a_gens):
        for j in range(i, len(a_gens)):
            run("A", scalar_times_vector(g[0], a_gens[j]), f"A-product #{i}*#{j} leaves A")
    for i, wgen in enumerate(W.generators):
        run("W", wgen, f"W-generator #{i} fails membership")
    for i, g in enumerate(a_gens):
        for j, wgen in enumerate(W.generators):
            run("W", scalar_times_vector(g[0], wgen), f"module product A#{i}*W#{j} leaves W")

    rows, markers = [], set()
    for b in range(w.t_lo + w.m_t, w.t_hi - w.m_t):
        ia, ma = _index_or_marker(A.level(b), w.m_u)
        iw, mw = _index_or_marker(W.level(b), w.m_u)
        rows.append(LevelIndexRow(b, ia, iw, ma, mw))
        markers |= {ma, mw}
        failures += [f"level {b} of {lbl} is not cocompact"
                     for marker, lbl in ((ma, "A"), (mw, "W")) if marker == "not-cocompact"]

    subalgebra, module_closure, fredholm = map(_merge, (outcomes["A"], outcomes["W"], markers))
    verdict = _merge(outcomes["A"] | outcomes["W"] | markers)
    return SchurReport(subalgebra, module_closure, fredholm, verdict,
                       unit_res, rows, tallies["checked"], tallies["deferred"],
                       tallies["escaped"], failures)


def graded_slice(L: LayeredSubspace, i: int, j: int) -> WindowedSubspace:
    """Stacked model of (L ∩ O(i)^r)/(L ∩ O(j)^r): block b of the sum is levels[b]."""
    w = L.window
    if not (w.t_lo <= i < j <= w.t_hi):
        raise RangeViolationError(f"need t_lo <= i < j <= t_hi, got ({i}, {j})")
    out = L.level(i)
    for b in range(i + 1, j):
        out = direct_sum(out, L.level(b))
    return out


def hilbert_function(L: LayeredSubspace, j: int, n: int) -> int:
    """dim of (u^-n k[[u]] stack) ∩ (levels 0..j-1), by exponent filtering.

    Valid because every level is full_below and row-supported inside the
    window: the graded piece is the count of pivots at exponents >= -n.
    """
    w = L.window
    if j < 1:
        raise RangeViolationError("j must be a positive integer")
    if n < 0:
        raise RangeViolationError("n must be nonnegative")
    if not (w.t_lo <= 0 and j <= w.t_hi):
        raise WindowTooSmallError(f"levels 0..{j - 1} not all inside the t-window")
    if not (w.u_lo <= -n and w.u_hi > 0):
        raise WindowTooSmallError(f"u-window does not accommodate exponents [-{n}, 0]")
    total = 0
    for b in range(j):
        total += sum(1 for (e, _c) in L.level(b).pivots if e >= -n)
    return total


@dataclass
class PointIdealReport:
    ok: bool
    dims: list
    jumps: list

    def to_json(self) -> dict:
        return {"pass": self.ok, "dims": list(self.dims), "jumps": list(self.jumps)}


def point_ideal_check(L: LayeredSubspace, n_max: Union[int, None] = None) -> PointIdealReport:
    """Colength-one test for the distinguished point in the degree-1 slice.

    Each degree-n jump dim(U_n ∩ L(0,1)) - dim(U_{n-1} ∩ L(0,1)) must be
    exactly 1; the n = 0 dimension is unconstrained.
    """
    if n_max is None:
        n_max = -L.window.u_lo
    if n_max < 0:
        raise RangeViolationError("n_max must be nonnegative")
    if -n_max < L.window.u_lo:
        raise WindowTooSmallError(f"n_max {n_max} outside the u-window range")
    dims = [hilbert_function(L, 1, n) for n in range(n_max + 1)]
    jumps = [dims[n] - dims[n - 1] for n in range(1, n_max + 1)]
    return PointIdealReport(all(j == 1 for j in jumps), dims, jumps)


def pair_equal_in_window(p1: SchurPair, p2: SchurPair) -> bool:
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
