"""t-filtered subspaces of K^r, Schur-pair verification and Hilbert data.

A LayeredSubspace models a subspace L of k((u))((t))^r inside a rectangular
window as the direct sum of t^b * levels[b], one WindowedSubspace per t-level
b, plus a finite list of generator vectors kept as closure witnesses.  Levels
are authoritative.  A witness is checked against L by the same rule that the
Schur check applies to products, ``layered_membership``: one reduction of the
vector's terms against ``pivot_index``, every level's rows keyed t-major.  The
Schur check certifies closure only where ``membership`` puts each trusted
level row in the witnesses' span.

Membership is three-valued.  Truncation must distinguish "provably outside"
from "escaped the window", so reductions that reach the distrusted top margin
return Inconclusive instead of guessing.  The Schur check routes each witness
product in one pass over its terms (``_route_check``: in, not-in, deferred
into a margin, or escaped the window) and merges every outcome, Fredholm
markers included, by one order: pass < inconclusive < fail.
``check_schur_pair`` and ``point_ideal_check`` return their reports as the
JSON-ready dicts that ``check`` and ``report hilbert`` write.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterator, Sequence

from . import _linalg
from .errors import (ConfigError, FieldMismatchError, NotCocompactError,
                     RangeViolationError, SupportViolationError,
                     WindowMismatchError, WindowTooSmallError)
from .fredholm import (Verdict, WindowedSubspace, check_top_margin, echelonize, fredholm_index,
                       membership)
from .local2d import Local2DElement, Window2D, ord_t_vector
from .series import Field, LaurentPoly, json_int


def scalar_times_vector(a: Local2DElement, vec: Sequence[Local2DElement]) -> tuple:
    return tuple([a * x for x in vec])


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
            if lvl.field is not self.field and lvl.field != self.field:
                raise FieldMismatchError(
                    f"level {b} is over {lvl.field.tag} in a {self.field.tag} subspace")
        if any(len(vec) != self.r for vec in self.generators):
            raise ConfigError(f"every generator needs {self.r} components")
        object.__setattr__(self, "_by_b", by_b)

    def level(self, b: int) -> WindowedSubspace:
        return self._by_b[b]

    @cached_property
    def pivot_index(self) -> dict:
        """{(b, a, c): row re-keyed (b, a2, c2)}: every level below the top t-margin at once.

        The levels' reduced rows share no key across levels, so their union,
        keyed t-major, is a reduced echelon basis of L below the margin.
        """
        t_top = self.window.t_trusted_hi
        return {(b,) + row[0][0]: {(b, a, c): x for (a, c), x in row}
                for b, lvl in self.levels if b < t_top for row in lvl.rows}

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
        generators = []
        for vec in obj["generators"]:
            comps = []
            for c, e in enumerate(vec, 1):
                if "component" in e and json_int(e["component"], "component") != c:
                    raise ConfigError(f"witness component {e['component']} sits at position {c}")
                comps.append(Local2DElement.from_json(e, fld))
            generators.append(tuple(comps))
        r = json_int(obj["r"], "rank r")
        return LayeredSubspace(fld, r, window, levels, tuple(generators))


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
    """One reduction of the vector x against L's ``pivot_index``.

    x is a sequence of L.r components, so a rank-1 element is passed as
    ``(element,)``.  Its rank, field and window are checked first, in that
    order.  L is the direct sum of t^b * levels[b], so x is in L exactly when
    each t^b slice of x is in levels[b].  The terms below the distrusted top
    t-margin are collected into one row {(b, a, component): coefficient} and
    reduced with ``_linalg.reduce_vector``; rows of different levels share no
    key, so that is every slice's own reduction at once, and a nonzero
    remainder means NotIn.  Otherwise the terms at or above the margin are
    left: Inconclusive if there are any, else In.

    Components are canonical (see ``Local2DElement``), so the terms below the
    margin are a leading block of each component's terms.  What is left is
    the component minus the lift of that block, subtracted only from a
    component whose block is not empty; the lift is the component's own
    leading block, so the subtraction drops it without arithmetic (see
    ``Local2DElement._merge``).
    """
    w = L.window
    t_lo, t_hi, u_lo, u_hi = w.t_lo, w.t_hi, w.u_lo, w.u_hi
    t_top = t_hi - w.m_t
    fld = L.field
    vec = tuple(x)
    if len(vec) != L.r:
        raise SupportViolationError(f"vector has {len(vec)} components, expected {L.r}")
    row, lengths = {}, []
    for c, comp in enumerate(vec):
        if comp.field is not fld and comp.field != fld:
            raise FieldMismatchError(f"{comp.field.tag} vs {fld.tag}")
        n = 0
        for (a, b), coeff in comp.terms:
            if not (u_lo <= a < u_hi and t_lo <= b < t_hi):
                raise SupportViolationError(f"term u^{a} t^{b} outside the window")
            if b < t_top:
                row[(b, a, c)] = coeff
                n += 1
        lengths.append(n)
    if _linalg.reduce_vector(row, L.pivot_index):
        return Verdict.NOT_IN
    rest = [comp - Local2DElement(fld, comp.terms[:n]) if n else comp
            for comp, n in zip(vec, lengths)]
    return Verdict.INCONCLUSIVE if any(rest) else Verdict.IN


def _route_check(L: LayeredSubspace, vec) -> str:
    """Classify a product against the window's trust regions, then decide.

    One pass over the terms returns 'escaped' at the first term that leaves
    the representable window: outside the t-window, at or above u_hi, or below
    u_lo at a level without a full below-window tail.  Below-window terms that
    a full_below level absorbs are dropped.  What is left is 'in' if it is
    zero, 'deferred' if a term lies in a margin band (the margins exist to
    absorb exactly these), and otherwise the ``layered_membership`` verdict,
    'in' or 'not-in'.  That verdict is never inconclusive here: a term at or
    above t_trusted_hi lies in the t-margin band, so it made the product
    'deferred' first.
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
    """``_route_check`` against one side of a closure scan, memoised.

    A result is keyed by the exact product, the tuple of its components'
    terms; each side has its own router, so equal products on different
    sides never share a verdict, and no key holds a string, so the router's
    state does not depend on the hash seed.  Witness products repeat heavily
    on split pairs and hardly at all on perturbed ones, so a result is stored
    only once its key is routed a second time: ``_seen`` holds the hashes of
    keys routed once.  Storing every first-sight key instead held about
    10 MB (tracemalloc) for the 7,028 distinct witness products of one
    perturbed F_(2^31 - 1) pair at h = 6.

    The memo matches full keys, because hashes collide: CPython hashes -1
    and -2 alike, and a Scalar hashes by its value, so products differing
    only in such an exponent or coefficient share a hash (on the h = 8
    twist-1 p2-line pair, 390 distinct A-side keys give 355 hashes, and 405
    W-side keys give 368).  A collision in ``_seen`` only costs storing a
    result early.  On a split pair every coefficient is the field's shared
    unit, so a memo hit compares a key's coefficients by identity and calls
    no ``Scalar.__eq__``.
    """

    def __init__(self, L: LayeredSubspace):
        self.L = L
        self._seen = set()
        self._memo = {}

    def __call__(self, vec) -> str:
        key = tuple([x.terms for x in vec])
        h = hash(key)
        if h not in self._seen:
            self._seen.add(h)
            return _route_check(self.L, vec)
        res = self._memo.get(key)
        if res is None:
            res = self._memo[key] = _route_check(self.L, vec)
        return res


# the verdict each check outcome supports; None is a level with an index
_VERDICT_OF = {"in": "pass", "deferred": "pass", None: "pass",
               "escaped": "inconclusive", "window-too-small": "inconclusive",
               "unwitnessed": "inconclusive",
               "not-in": "fail", "not-cocompact": "fail"}
_SEVERITY = ("pass", "inconclusive", "fail")


def _merge(outcomes) -> str:
    """The most severe verdict the outcomes support: pass < inconclusive < fail."""
    return max((_VERDICT_OF[o] for o in outcomes), key=_SEVERITY.index, default="pass")


def _index_or_marker(level: WindowedSubspace, m_u: int):
    try:
        return fredholm_index(level, m_u), None
    except NotCocompactError:
        return None, "not-cocompact"
    except WindowTooSmallError:
        return None, "window-too-small"


def level_index_rows(pair: SchurPair, bs) -> Iterator[dict]:
    """Rows {b, index_A, index_W, marker_A, marker_W}: each side's index, or the marker for it."""
    m_u = pair.window.m_u
    for b in bs:
        ia, ma = _index_or_marker(pair.algebra.level(b), m_u)
        iw, mw = _index_or_marker(pair.module.level(b), m_u)
        yield {"b": b, "index_A": ia, "index_W": iw, "marker_A": ma, "marker_W": mw}


def _unwitnessed_rows(side: str, L: LayeredSubspace) -> list:
    """Trusted level rows that the witnesses do not span, as {side, b, pivot}.

    Closure on a spanning set gives closure on its span, by bilinearity, so
    witness products verify closure of L's trusted part only where the
    witnesses span it.  At each t-interior level b, the t^b slices of the
    witnesses of t-order b, together with the bottom band u^a for
    a < u_lo + m_u, must span every row whose pivot exponent lies in
    [u_lo + m_u, u_hi - m_u).  Each trusted row is a ``membership`` question
    against the slices echelonized with a full tail below the band, which
    stands for the band's unit rows, and a top above every slice, so that a
    witness term at or above u_hi still counts.  A pivot is [exponent,
    1-based component].
    """
    w = L.window
    fld = L.field
    band_top = w.u_lo + w.m_u
    slices = {}
    for vec in L.generators:
        if any(vec):
            b = ord_t_vector(vec)
            slices.setdefault(b, []).append(tuple(
                LaurentPoly(fld, tuple([(a, coeff) for (a, bb), coeff in x.terms if bb == b]))
                for x in vec))
    out = []
    for b in range(w.t_lo + w.m_t, w.t_trusted_hi):
        vecs = slices.get(b, ())
        u_top = max([w.u_hi] + [p.coeffs[-1][0] + 1 for vec in vecs for p in vec if p])
        span = echelonize(vecs, L.r, band_top, u_top, True, field=fld)
        lvl = L.level(b)
        for row, vec in zip(lvl.rows, lvl.row_vectors()):
            e, c = row[0][0]
            if band_top <= e < w.u_trusted_hi and membership(span, vec) is Verdict.NOT_IN:
                out.append({"side": side, "b": b, "pivot": [e, c + 1]})
    return out


def check_schur_pair(pair: SchurPair) -> dict:
    """Run the three Schur-pair verdicts on a windowed pair; return the check report.

    (1) subalgebra: 1 is in A and products of A-witness pairs never reduce to
    NotIn; (2) module closure: products of A-witnesses with W-witnesses never
    reduce to NotIn inside W; (3) per-level Fredholm indices exist on every
    level of the t-interior.  Pass needs no NotIn and no Fredholm failure;
    any escape or window-too-small makes the overall verdict inconclusive,
    and so does a trusted level row the side's witnesses do not span
    (``_unwitnessed_rows``): closure went unverified there.
    Each side has its own ``Router``, so a repeated product reuses an earlier
    routing result of its own side only, but every occurrence is tallied and
    every failing occurrence keeps its own label, formatted from its indices
    only when it fails.  The report is the
    dict ``check`` prints: the verdicts, ``unit`` (how 1 routed), ``levels``
    (the ``level_index_rows``), ``tallies``, ``failures`` and ``unwitnessed``.
    """
    A, W = pair.algebra, pair.module
    w = pair.window
    failures = []
    tallies = {"checked": 0, "deferred": 0, "escaped": 0}
    outcomes = {"A": set(), "W": set()}
    routers = {"A": Router(A), "W": Router(W)}

    def run(side, vec, label, *ix):
        res = routers[side](vec)
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

    unwitnessed = []
    for side, L in (("A", A), ("W", W)):
        missing = _unwitnessed_rows(side, L)
        if missing:
            outcomes[side].add("unwitnessed")
        unwitnessed += missing

    rows = list(level_index_rows(pair, range(w.t_lo + w.m_t, w.t_hi - w.m_t)))
    markers = {row["marker_" + side] for row in rows for side in "AW"}
    failures += [f"level {row['b']} of {side} is not cocompact"
                 for row in rows for side in "AW" if row["marker_" + side] == "not-cocompact"]

    verdict = _merge(outcomes["A"] | outcomes["W"] | markers)
    return {"subalgebra": _merge(outcomes["A"]), "module_closure": _merge(outcomes["W"]),
            "fredholm": _merge(markers), "verdict": verdict, "unit": unit_res, "levels": rows,
            "tallies": tallies, "failures": failures, "unwitnessed": unwitnessed}


def hilbert_function(L: LayeredSubspace, j: int, n: int) -> int:
    """dim of (u^-n k[[u]] stack) ∩ (levels 0..j-1), by exponent filtering.

    Needs each counted level's rows inside the window and no counted pivot in
    the top u-margin (WindowTooSmallError there); a full_below tail lies below
    u_lo <= -n and adds nothing, so the piece counts pivots at exponents >= -n.
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


def point_ideal_check(L: LayeredSubspace, n_max: int) -> dict:
    """Colength-one test for the distinguished point in the degree-1 slice.

    Each degree-n jump dim(U_n ∩ L(0,1)) - dim(U_{n-1} ∩ L(0,1)) must be
    exactly 1; the n = 0 dimension is unconstrained.  Returns {pass, dims, jumps}.
    """
    if n_max < 0:
        raise RangeViolationError("n_max must be nonnegative")
    dims = [hilbert_function(L, 1, n) for n in range(n_max + 1)]
    jumps = [dims[n] - dims[n - 1] for n in range(1, n_max + 1)]
    return {"pass": all(j == 1 for j in jumps), "dims": dims, "jumps": jumps}
