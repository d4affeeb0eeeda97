"""Two-chart cohomology on the line, level stacks, and the unipotent Picard part.

A single line bundle of twist d has (h0, h1) = (max(0, d+1), max(0, -d-1));
the two-chart complex recovers this exactly at any sufficient truncation
bound.  A level stack's cohomology is the sum of one such complex per level:
the block complex over all levels is block-diagonal, so it agrees with the
levelwise sum, and its H^1 maps onto every shallower truncation; the report
carries both facts as flags that hold by construction.  The Picard dimension
of the depth-i thickening is h^1 of the level stack of twists -j(C.C),
j = 1..i; it grows like the triangular numbers, with the degree quotient of
order |d| = 1 collapsing.
"""

from ribbonlab import (LevelStack, cech_line_bundle, make_datum,
                       picard_dimension, ribbon_cohomology)

B = 8
print("twist d : (h0, h1) for d = -6..6")
print("  " + "  ".join(f"{d:+d}:{cech_line_bundle(d, B)}" for d in range(-6, 7)))

print("\nSerre-duality symmetry at B=10:")
for d in range(-4, 3):
    h = cech_line_bundle(d, 10)
    dual = cech_line_bundle(-2 - d, 10)
    print(f"  d={d:+d}: {h}   vs  -2-d={-2 - d:+d}: {dual}")

print("\nstacked structure sheaf of the thickenings (twist 0):")
for depth in (2, 5):
    rep = ribbon_cohomology(LevelStack.for_p2_line(0, depth), B)
    print(f"  depth {depth}: (h0,h1) = ({rep.h0},{rep.h1}) = levelwise sum of "
          f"{[(lv['h0'], lv['h1']) for lv in rep.levels]}, agreement={rep.agreement}, "
          f"transitions surjective={rep.transition_surjective}")

g = make_datum("p2-line", twist=0)
dims = [picard_dimension(g, i, B).dim for i in range(1, 6)]
stack_h1 = [ribbon_cohomology(LevelStack(tuple(-j for j in range(1, i + 1))), B).h1
            for i in range(1, 6)]
print(f"\nunipotent Picard dimensions, depth 1..5: {dims}")
print(f"h^1 of the level stacks of twists -1..-i:   {stack_h1}")
assert dims == stack_h1, (dims, stack_h1)
print(f"degree-quotient invariant d = {picard_dimension(g, 5, B).d} "
      "(so the discrete quotient vanishes and the unipotent part is everything)")
