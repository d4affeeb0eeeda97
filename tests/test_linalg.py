from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from oracles import dense_rank, row_scan_reduce, two_pass_echelon
from ribbonlab import _linalg
from ribbonlab.series import QQ, Field

KEYS = [(e, c) for e in range(-3, 4) for c in range(2)]
ROWS = st.dictionaries(st.sampled_from(KEYS), st.integers(-4, 4), max_size=5)


def in_field(field, row):
    return {k: field.scalar(x) for k, x in row.items()}


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from([QQ, Field(31), Field(2 ** 31 - 1)]), rows=st.lists(ROWS, max_size=8),
       extra=ROWS, multiples=st.lists(st.integers(-3, 3), max_size=8))
# v's zero entries, pinned as inputs: a zero at a key that subtracting the row
# writes (the remainder is {(1, 0): -6}, not {}), and a zero at the pivot key
@example(field=QQ, rows=[{(0, 0): 1, (1, 0): 2}], extra={(0, 0): 3, (1, 0): 0}, multiples=[])
@example(field=QQ, rows=[{(0, 0): 1, (1, 0): 2}], extra={(0, 0): 0, (1, 0): 3}, multiples=[])
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


# 13 is zero in F_13; the large values wrap in F_(2^31-1)
VALUES = st.integers(-4, 4) | st.sampled_from([13, 2 ** 30, 2 ** 31 - 2])


def combination(field, x, y, a, b):
    """a * x + b * y, coefficients combined key by key; zeros stay in the row."""
    return {k: field.scalar(a) * x.get(k, field.zero) + field.scalar(b) * y.get(k, field.zero)
            for k in x.keys() | y.keys()}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from([QQ, Field(13), Field(2 ** 31 - 1)]))
def test_echelon_matches_two_pass_elimination(data, field):
    rows = data.draw(st.lists(st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=5)
                              .map(lambda row: in_field(field, row)), max_size=8))
    # splice in zero rows, repeated rows and combinations of earlier rows
    for kind in data.draw(st.lists(st.sampled_from(["zero", "repeat", "combination"]),
                                   max_size=6)):
        if kind == "zero" or not rows:
            new = data.draw(st.sampled_from([{}, {KEYS[0]: field.zero}]))
        elif kind == "repeat":
            new = dict(data.draw(st.sampled_from(rows)))
        else:
            x, y = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            new = combination(field, x, y, data.draw(VALUES), data.draw(VALUES))
        rows.insert(data.draw(st.integers(0, len(rows))), new)
    assert _linalg.echelon(rows) == two_pass_echelon(rows)


def monic(field, row, sign=1):
    """``row`` scaled to ``sign`` at its least key; the empty row stays empty."""
    if not row:
        return row
    inv = field.scalar(sign) / row[min(row)]
    return {k: c * inv for k, c in row.items()}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from([QQ, Field(13), Field(2 ** 31 - 1)]))
def test_echelon_keeps_monic_remainders_exactly(data, field):
    """Rows already 1 at their least key, rows that reach 1 only after
    reduction, and rows at -1 (p - 1 in F_p), which must still be scaled."""
    draw_row = st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=5).map(
        lambda row: {k: c for k, c in in_field(field, row).items() if c})
    rows = []
    for kind in data.draw(st.lists(st.sampled_from(["monic", "negated", "reduces-to-monic"]),
                                   min_size=1, max_size=10)):
        row = data.draw(draw_row)
        if kind == "monic":
            new = monic(field, row)
        elif kind == "negated":
            new = monic(field, row, -1)
        else:
            # a monic row off the current pivots plus a multiple of an earlier row:
            # its remainder is exactly the monic part, whatever its own least key holds
            pivots = {min(r) for r in two_pass_echelon(rows)}
            new = monic(field, {k: c for k, c in row.items() if k not in pivots})
            if rows:
                y = data.draw(st.sampled_from(rows))
                new = {k: c for k, c in combination(field, new, y, 1, data.draw(VALUES)).items()
                       if c}
            rows.append(new)  # after every row whose span it was built against
            continue
        rows.insert(data.draw(st.integers(0, len(rows))), new)
    basis = _linalg.echelon(rows)
    assert basis == two_pass_echelon(rows)
    assert all(row[min(row)].value == 1 for row in basis)


def test_echelon_neither_mutates_nor_returns_its_rows():
    f = Field(13)
    rows = [{(0, 0): f.scalar(1), (1, 0): f.scalar(1), (2, 0): f.scalar(5)},  # kept as its remainder
            {(1, 0): f.scalar(1), (2, 0): f.scalar(12)},  # monic; the first row holds (1, 0) at 1
            {(3, 0): f.scalar(12), (4, 0): f.scalar(3)},  # -1 = 12 at its least key: scaled
            {(-1, 0): f.scalar(1), (0, 0): f.scalar(1)}]
    before = [dict(row) for row in rows]
    basis = _linalg.echelon(rows)
    assert rows == before
    assert not any(b is r for b in basis for r in rows)
    assert basis == two_pass_echelon(before)


def test_echelon_over_q_stores_integral_values_as_ints():
    # integer rows whose pivots are +-2 and +-3, so elimination divides
    matrix = [
        [2, 1, 0, 3, -1],
        [-3, 0, 2, 1, 4],
        [0, 3, -1, 0, 2],
        [0, 0, -2, 5, 1],
        [4, 2, 0, 6, -2],   # twice the first row
        [-1, 4, 1, 4, 5],   # sum of the first three rows
    ]
    rows = [{c: QQ.scalar(x) for c, x in enumerate(r) if x} for r in matrix]
    basis = _linalg.echelon(rows)
    assert len(basis) == dense_rank([[Fraction(x) for x in r] for r in matrix]) == 4
    values = [c.value for row in basis for c in row.values()]
    assert any(type(x) is int for x in values) and any(type(x) is Fraction for x in values)
    for x in values:
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)
