"""Sparse exact Gaussian elimination over arbitrary sortable basis keys.

Rows are dicts mapping a basis key to a nonzero Scalar.  The pivot of a row
is its minimal key, so with keys ordered (exponent, component) the echelon
profile reads off leading orders from below, which is the convention every
filtration in this package uses.
"""

from __future__ import annotations


def row_scale(row: dict, c) -> dict:
    return {k: v * c for k, v in row.items()}


def row_sub(row: dict, other: dict) -> dict:
    out = dict(row)
    for k, v in other.items():
        if k in out:
            w = out[k] - v
            if w:
                out[k] = w
            else:
                del out[k]
        else:
            out[k] = -v
    return out


def echelon(rows) -> list:
    """Reduced row echelon basis of the span of ``rows``.

    Returns rows sorted by strictly increasing pivot key, pivot coefficient 1,
    and every pivot coordinate eliminated from the other rows.
    """
    pivots: dict = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            k = min(row)
            if k in pivots:
                row = row_sub(row, row_scale(pivots[k], row[k]))
            else:
                pivots[k] = row_scale(row, row[k].inverse())
                break
    keys = sorted(pivots)
    # back-substitution pass for the reduced form, deepest pivot first
    for i in range(len(keys) - 1, -1, -1):
        r = pivots[keys[i]]
        for k2 in keys[i + 1:]:
            c = r.get(k2)
            if c:
                r = row_sub(r, row_scale(pivots[k2], c))
        pivots[keys[i]] = r
    return [pivots[k] for k in keys]


def reduce_vector(v: dict, pivots: dict) -> dict:
    """Remainder of v after full reduction against a reduced echelon basis.

    ``pivots`` maps each basis row's pivot key to the row.  The basis must be
    in reduced echelon form, as ``echelon`` returns it: pivot coefficient 1
    and every row zero on every other row's pivot.  Subtracting a row then
    leaves v's coefficients at the other pivots unchanged, so the multiple
    of each row is read off v in one pass over v's support.  Each multiple
    is subtracted in place from one working copy of v; v itself is not
    modified.
    """
    rem = {k: c for k, c in v.items() if c}
    for k, c in v.items():
        row = pivots.get(k)
        if row is None or not c:
            continue
        for k2, x in row.items():
            y = x * c
            w = rem.get(k2)
            if w is None:
                rem[k2] = -y
            else:
                w = w - y
                if w:
                    rem[k2] = w
                else:
                    del rem[k2]
    return rem


def rank(rows) -> int:
    return len(echelon(rows))
