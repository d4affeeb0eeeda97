"""Reconstruct the base curve and its marked point from graded dimensions.

The degree-1 slice of the algebra is a graded ring whose Hilbert function
n -> n + 1 is exactly that of the projective line; two stacked levels give
(n + 1) + n.  The marked point reappears as a homogeneous ideal of colength
one in every degree: each jump of the degree-1 table equals 1.
"""

from ribbonlab import (Window2D, forward_krichever, hilbert_function,
                       make_datum, point_ideal_check)

pair = forward_krichever(make_datum("p2-line", twist=0), Window2D(-4, 4, -8, 8, 2, 2))
A = pair.algebra

for j in (1, 2):
    table = [hilbert_function(A, j, n) for n in range(7)]
    print(f"hilbert function of the depth-{j} slice: {table}")
    assert table == [(n + 1) + (n if j == 2 else 0) for n in range(7)], table

point = point_ideal_check(A, n_max=6)
print(f"\npoint-ideal colength-one jumps: {point['jumps']} -> "
      f"{'the marked point is there and reduced' if point['pass'] else 'FAILED'}")
assert point["pass"], point["jumps"]

# a level with a gap at exponent -1 breaks the colength-one pattern
from ribbonlab.fredholm import echelonize
from ribbonlab.schur import LayeredSubspace
from ribbonlab.series import QQ, LaurentPoly

w = Window2D(0, 1, -8, 8, 0, 2)
rows = [(LaurentPoly.from_dict(QQ, {a: 1}),) for a in list(range(-8, -1)) + [0]]
gapped = LayeredSubspace(QQ, 1, w, ((0, echelonize(rows, 1, -8, 8, True, field=QQ)),), ())
broken = point_ideal_check(gapped, n_max=4)
print(f"gapped level-0 space: jumps {broken['jumps']} -> pass={broken['pass']}")
assert not broken["pass"], broken["jumps"]
