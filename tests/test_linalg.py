from hypothesis import given, settings, strategies as st

from oracles import row_scan_reduce
from ribbonlab import _linalg
from ribbonlab.series import QQ, Field

KEYS = [(e, c) for e in range(-3, 4) for c in range(2)]
ROWS = st.dictionaries(st.sampled_from(KEYS), st.integers(-4, 4), max_size=5)


def in_field(field, row):
    return {k: field.scalar(x) for k, x in row.items()}


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from([QQ, Field(31)]), rows=st.lists(ROWS, max_size=8),
       extra=ROWS, multiples=st.lists(st.integers(-3, 3), max_size=8))
def test_reduce_vector_matches_row_scan(field, rows, extra, multiples):
    basis = _linalg.echelon([in_field(field, row) for row in rows])
    # a combination of basis rows plus terms on and off the pivots
    v = in_field(field, extra)
    for row, m in zip(basis, multiples):
        v = _linalg.row_sub(v, _linalg.row_scale(row, field.scalar(m)))
    pivots = {min(row): row for row in basis}
    before = dict(v)
    rem = _linalg.reduce_vector(v, pivots)
    assert v == before
    assert rem == row_scan_reduce(v, basis)
    assert all(rem.values()) and not set(rem) & set(pivots)
