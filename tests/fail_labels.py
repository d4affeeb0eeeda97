"""Confirm the ``fail`` labels of ``check`` on plain values, from a pair's JSON alone.

This module imports nothing from ribbonlab.  ``confirm`` re-forms the vector
a label names from the pair file's witnesses, on ints mod p over F_p or
Fractions over Q, and takes its t^b slices keyed (a, component).  Terms
below the u-window are dropped at a level with a full below-window tail.
Each slice is reduced against level b's stored rows, row by row in pivot
order (a row's pivot is its least (exponent, component) key).  The label is
confirmed when a remainder keeps a key below both top margins,
b < t_hi - m_t and a < u_hi - m_u: the slice is then outside level b, so
the vector is outside the side.
"""

import re
from fractions import Fraction

GENERATOR = re.compile(r"([AW])-generator #(\d+) fails membership")
PRODUCT = re.compile(r"(?:A-product |module product A)#(\d+)\*[AW]?#(\d+) leaves ([AW])")


def _coeff(text: str, p):
    num, _, den = text.partition("/")
    v = Fraction(int(num), int(den or 1))
    return v if p is None else v.numerator * pow(v.denominator, -1, p) % p


def _vector(gen: list, p) -> list:
    """A witness's components, each as {(a, b): value}."""
    return [{(a, b): _coeff(c, p) for a, b, c in comp["terms"]} for comp in gen]


def _times(x: dict, y: dict) -> dict:
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            out[a1 + a2, b1 + b2] = out.get((a1 + a2, b1 + b2), 0) + c1 * c2
    return out


def _nonzero(v: dict, p) -> dict:
    """v with its values reduced mod p (over F_p) and zeros dropped."""
    out = {}
    for k, x in v.items():
        x = x if p is None else x % p
        if x:
            out[k] = x
    return out


def _reduce(v: dict, rows: list, p) -> dict:
    """Remainder of v after clearing each echelon row's pivot, in pivot order."""
    v = _nonzero(v, p)
    for row in sorted(rows, key=min):
        k = min(row)
        if v.get(k):
            f = v[k] / row[k] if p is None else v[k] * pow(row[k], -1, p)
            for k2, x in row.items():
                v[k2] = v.get(k2, 0) - f * x
            v = _nonzero(v, p)
    return v


def confirm(pair: dict, label: str) -> bool:
    """Whether the pair file alone shows the vector ``label`` names outside its side."""
    p = None if pair["field"] == "Q" else int(pair["field"][len("Fp:"):])
    gens = {side: pair[side]["generators"] for side in "AW"}
    m = GENERATOR.fullmatch(label)
    if m:
        side, vec = m[1], _vector(gens[m[1]][int(m[2])], p)
    else:
        i, j, side = PRODUCT.fullmatch(label).groups()
        (x,) = _vector(gens["A"][int(i)], p)
        vec = [_times(x, y) for y in _vector(gens[side][int(j)], p)]
    w = pair["window"]
    levels = {lvl["b"]: lvl["space"] for lvl in pair[side]["levels"]}
    slices = {}
    for c, x in enumerate(vec):
        for (a, b), v in x.items():
            slices.setdefault(b, {})[a, c] = v
    for b, sl in sorted(slices.items()):
        space = levels.get(b)
        if space is None:
            continue
        if space["full_below"]:
            sl = {(a, c): v for (a, c), v in sl.items() if a >= space["u_lo"]}
        rows = [{(e, c): _coeff(t, p) for c, comp in enumerate(row) for e, t in comp["coeffs"]}
                for row in space["rows"]]
        if any(b < w["t_hi"] - w["m_t"] and a < w["u_hi"] - w["m_u"]
               for a, _c in _reduce(sl, rows, p)):
            return True
    return False
