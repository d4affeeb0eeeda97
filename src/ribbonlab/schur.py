"""t-filtered subspaces of K^r, Schur-pair verification and Hilbert data.

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
from .fredholm import Verdict, WindowedSubspace, check_top_margin, fredholm_index, membership
from .local2d import Local2DElement, Window2D
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
    levels: tuple = ()       # ((b, WindowedSubspace), ...), each b in [t_lo, t_hi) once
    generators: tuple = ()   # closure-witness vectors, each a tuple of Local2DElement

    def __post_init__(self):
        if self.r < 1:
            raise ConfigError(f"rank r must be at least 1, got {self.r}")
        w = self.window
        for b, n in Counter(b for b, _lvl in self.levels).items():
            if not w.t_lo <= b < w.t_hi:
                raise ConfigError(f"level {b} is outside the window's {w.t_lo}..{w.t_hi - 1}")
            if n > 1:
                raise ConfigError(f"level {b} appears {n} times in layered subspace")
        by_b = dict(self.levels)
        for b in range(w.t_lo, w.t_hi):
            if b not in by_b:
                raise ConfigError(f"missing level {b} in layered subspace")
            lvl = by_b[b]
            if lvl.r != self.r or (lvl.u_lo, lvl.u_hi) != (w.u_lo, w.u_hi):
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
        for vec in obj["generators"]:
            for c, e in enumerate(vec, 1):
                if "component" in e and json_int(e["component"], "component") != c:
                    raise ConfigError(f"witness component {e['component']} sits at position {c}")
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
    are, with no coefficient coerced again.  The lift is the remainder's own
    leading block, so subtracting it drops that block without arithmetic
    (see ``Local2DElement._merge``).
    """
    w = L.window
    t_lo, t_hi, u_lo, u_hi = w.t_lo, w.t_hi, w.u_lo, w.u_hi
    t_top = t_hi - w.m_t
    fld = L.field
    vec = as_vector(x, L.r)
    for comp in vec:
        if comp.field is not fld and comp.field != fld:
            raise FieldMismatchError(f"{comp.field.tag} vs {fld.tag}")
        for (a, b), _c in comp.terms:
            if not (u_lo <= a < u_hi and t_lo <= b < t_hi):
                raise SupportViolationError(f"term u^{a} t^{b} outside the window")
    rem = list(vec)
    while True:
        lead = [comp.terms[0][0][1] for comp in rem if comp.terms]
        if not lead:
            return Verdict.IN
        b = min(lead)
        if b >= t_top:
            return Verdict.INCONCLUSIVE
        blocks, slices = [], []
        for comp in rem:
            terms = comp.terms
            n = 0
            for (_a, bb), _c in terms:
                if bb != b:
                    break
                n += 1
            block = terms[:n]
            blocks.append(block)
            slices.append(LaurentPoly(fld, tuple([(a, c) for (a, _b), c in block])))
        if membership(L.level(b), tuple(slices)) is Verdict.NOT_IN:
            return Verdict.NOT_IN
        rem = [comp - Local2DElement(fld, block) for comp, block in zip(rem, blocks)]


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
    A component that lost no term is passed on as it is.
    """
    w = L.window
    t_lo, t_hi, u_lo, u_hi = w.t_lo, w.t_hi, w.u_lo, w.u_hi
    t_top, u_top = t_hi - w.m_t, u_hi - w.m_u
    kept, in_margin = [], False
    for comp in vec:
        dropped = False
        for (a, b), _c in comp.terms:
            if not t_lo <= b < t_hi or a >= u_hi:
                return "escaped"
            if a < u_lo:
                if not L.level(b).full_below:
                    return "escaped"
                dropped = True
            elif b >= t_top or a >= u_top:
                in_margin = True
        if dropped:
            comp = Local2DElement(comp.field, tuple(t for t in comp.terms if t[0][0] >= u_lo))
        kept.append(comp)
    if not any(kept):
        return "in"
    return "deferred" if in_margin else layered_membership(L, kept).value


class Router:
    """``_route_check`` over the named sides of one closure scan, memoised.

    A result is keyed by side name and exact product, so equal products on
    different sides never share a verdict.  Witness products repeat heavily
    on split pairs and hardly at all on perturbed ones, so a result is stored
    only once its key is routed a second time: ``_seen`` holds the hashes of
    keys routed once.  Storing every first-sight key instead held about
    10 MB (tracemalloc) for the 7,028 distinct witness products of one
    perturbed F_(2^31 - 1) pair at h = 6.

    The memo matches full keys, because hashes collide: CPython hashes -1
    and -2 alike, and a Scalar hashes by its value, so products differing
    only in such an exponent or coefficient share a hash (795 distinct keys
    of the h = 8 twist-1 p2-line pair give 723 hashes).  A collision in
    ``_seen`` only costs storing a result early.
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
    label, formatted from its indices only when it fails.
    """
    A, W = pair.algebra, pair.module
    w = pair.window
    failures = []
    tallies = Counter()
    outcomes = {"A": set(), "W": set()}
    route = Router(A=A, W=W)

    def run(side, vec, label, *ix):
        res = route(side, vec)
        outcomes[side].add(res)
        tallies["checked" if res in ("in", "not-in") else res] += 1
        if res == "not-in":
            failures.append(label.format(*ix))
        return res

    unit_res = run("A", (Local2DElement.one(pair.field),), "unit 1 not in A")
    a_gens = A.generators
    for i, g in enumerate(a_gens):
        run("A", g, "A-generator #{} fails membership", i)
    for i, g in enumerate(a_gens):
        for j in range(i, len(a_gens)):
            run("A", scalar_times_vector(g[0], a_gens[j]), "A-product #{}*#{} leaves A", i, j)
    for i, wgen in enumerate(W.generators):
        run("W", wgen, "W-generator #{} fails membership", i)
    for i, g in enumerate(a_gens):
        for j, wgen in enumerate(W.generators):
            run("W", scalar_times_vector(g[0], wgen), "module product A#{}*W#{} leaves W", i, j)

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


def hilbert_function(L: LayeredSubspace, j: int, n: int) -> int:
    """dim of (u^-n k[[u]] stack) ∩ (levels 0..j-1), by exponent filtering.

    Valid because every level is full_below and row-supported inside the
    window: the graded piece is the count of pivots at exponents >= -n.
    A counted level with a pivot in the top u-margin is WindowTooSmallError.
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
        check_top_margin(L.level(b), w.m_u)
        total += sum(1 for (e, _c) in L.level(b).pivots if e >= -n)
    return total


@dataclass
class PointIdealReport:
    ok: bool
    dims: list
    jumps: list

    def to_json(self) -> dict:
        return {"pass": self.ok, "dims": list(self.dims), "jumps": list(self.jumps)}


def point_ideal_check(L: LayeredSubspace, n_max: int) -> PointIdealReport:
    """Colength-one test for the distinguished point in the degree-1 slice.

    Each degree-n jump dim(U_n ∩ L(0,1)) - dim(U_{n-1} ∩ L(0,1)) must be
    exactly 1; the n = 0 dimension is unconstrained.
    """
    if n_max < 0:
        raise RangeViolationError("n_max must be nonnegative")
    dims = [hilbert_function(L, 1, n) for n in range(n_max + 1)]
    jumps = [dims[n] - dims[n - 1] for n in range(1, n_max + 1)]
    return PointIdealReport(all(j == 1 for j in jumps), dims, jumps)
