"""Sparse exact Gaussian elimination over arbitrary sortable basis keys.

Rows are dicts mapping a basis key to a Scalar.  An input row may hold zero
entries: ``echelon`` and ``reduce_vector`` drop them, and every row they
return holds nonzero entries only.  The pivot of a row is its minimal key,
so with keys ordered (exponent, component) the echelon profile reads off
leading orders from below, which is the convention every filtration in this
package uses.  There is one elimination kernel,
``reduce_vector`` against a reduced basis: ``echelon`` builds its basis with
it, and membership tests reduce against the basis ``echelon`` returns.
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
    and every pivot coordinate eliminated from the other rows.  The basis is
    kept in that form as rows arrive: each row is reduced against it with
    ``reduce_vector``, a nonzero remainder is scaled to 1 at its least key,
    and that key is cleared from the kept rows.  The form is unique, so the
    result depends only on the span.

    A remainder already 1 at its least key is kept as it is, without
    scaling: c * 1 = c, and it is ``reduce_vector``'s fresh dict, so neither
    ``rows`` nor any of its dicts is modified or returned.  One is tested on
    the value: a ``Field`` shares one unit, but arithmetic that comes out
    to one may build a new Scalar.
    """
    pivots: dict = {}
    for row in rows:
        rem = reduce_vector(row, pivots)
        if not rem:
            continue
        k = min(rem)
        c = rem[k]
        new = rem if c.value == 1 else row_scale(rem, c.inverse())
        if pivots and min(pivots) < k:  # only a row whose pivot is below k can hold k
            for k2, kept in pivots.items():
                c = kept.get(k)
                if c:
                    pivots[k2] = row_sub(kept, row_scale(new, c))
        pivots[k] = new
    return [pivots[k] for k in sorted(pivots)]


def reduce_vector(v: dict, pivots: dict) -> dict:
    """Remainder of v after full reduction against a reduced echelon basis.

    ``pivots`` maps each basis row's pivot key to the row.  The basis must be
    in reduced echelon form, as ``echelon`` returns it: pivot coefficient 1
    and every row zero on every other row's pivot.  Subtracting a row then
    leaves v's coefficients at the other pivots unchanged, so the multiple
    of each row is read off v in one pass over v's support.  Each multiple
    is subtracted in place from one working copy of v; v itself is not
    modified.  The pivot entry is dropped without arithmetic: the multiple
    of a row is v's coefficient c at its pivot, the row is 1 there, and no
    other row touches that key, so c - c * 1 is exactly zero.  Only the
    row's other entries are multiplied and subtracted.

    v may hold zero entries.  They leave the copy in a loop of their own,
    before any subtraction: deleting a zero later could delete the value a
    row subtraction has since written at its key.  So a pivot key is in the
    copy exactly when v's coefficient there is nonzero, because no row
    touches another row's pivot, and ``k not in rem`` is the one zero test
    the main loop needs.
    """
    rem = dict(v)
    for k, c in v.items():
        if not c:
            del rem[k]
    for k, c in v.items():
        row = pivots.get(k)
        if row is None or k not in rem:
            continue
        del rem[k]
        for k2, x in row.items():
            if k2 == k:
                continue
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
