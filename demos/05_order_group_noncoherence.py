"""Invertible t-orders in three regimes, and an ideal chain that never stabilizes.

The invertible elements of a filtered algebra have t-orders forming a cyclic
subgroup dZ of the integers.  The plane pair realizes d = 1, the synthetic
even-order variant d = 2, and the nilpotent example d = 0: its relations kill
every product of nonzero-order elements, so no inverse pair exists.

The affine nodal cubic shows why these section rings can fail to be
Noetherian: truncating the ideals J_k (point-ideal coefficients everywhere,
squared ones below t-order -k) gives a strictly increasing dimension chain
whose step is the gap between the point ideal and its square.
"""

from ribbonlab import (NodalCubicRing, Window2D, make_datum, noncoherent_chain,
                       order_group)

window = Window2D(-4, 4, -8, 8, 2, 2)
for kind, d in (("p2-line", 1), ("even-variant", 2), ("nilpotent", 0)):
    rep = order_group(make_datum(kind), window)
    assert rep["d"] == d, (kind, rep["d"])
    tag = " (synthetic)" if make_datum(kind).synthetic else ""
    wit = f", witness u^{rep['witness'][0][0]} t^{rep['witness'][0][1]}" if rep["witness"] else ""
    lim = ", search exhausted in window" if rep["window_limited"] else ""
    print(f"{kind}{tag}: d = {rep['d']}{wit}{lim}")

rep = noncoherent_chain(NodalCubicRing(degree_bound=8), k_max=5, t_lo=-6, t_hi=1)
chain = rep["dims"]
print(f"\nnodal cubic, degree bound {rep['degree_bound']}: "
      f"dim(point ideal) = {rep['point_ideal_dim']}, dim(its square) = {rep['point_ideal_sq_dim']}")
print(f"truncated chain J_1 .. J_5 dimensions: {chain}")
gap = rep["point_ideal_dim"] - rep["point_ideal_sq_dim"]
assert [b - a for a, b in zip(chain, chain[1:])] == [gap] * 4 and gap > 0, chain
print("constant step = ideal gap, so the ascending chain never stabilizes")
