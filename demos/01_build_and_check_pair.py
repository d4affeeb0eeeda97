"""Build the plane/line pair at a finite window and walk through its checks.

The algebra side collects all monomials u^a t^b with a + b <= 0 that the
window can see; the module side is the same picture shifted by the twist.
The checker then confirms the three defining properties at window scale:
1 sits at level zero, witness products stay inside, and every visible level
is a discrete subspace with finite index against the tail.
"""

from ribbonlab import Window2D, check_schur_pair, forward_krichever, make_datum

window = Window2D(t_lo=-4, t_hi=4, u_lo=-8, u_hi=8, m_t=2, m_u=2)
pair = forward_krichever(make_datum("p2-line", twist=2), window)

print(f"window: t in [{window.t_lo},{window.t_hi}), u in [{window.u_lo},{window.u_hi}), "
      f"margins ({window.m_t},{window.m_u})")
print(f"algebra witnesses: {len(pair.algebra.generators)}, "
      f"module witnesses: {len(pair.module.generators)}")

report = check_schur_pair(pair)
print(f"\nsubalgebra closure : {report['subalgebra']}")
print(f"module closure     : {report['module_closure']}")
print(f"per-level indices  : {report['fredholm']}")
for row in report["levels"]:
    print(f"  level {row['b']:+d}: index_A = {row['index_A']:+d}, index_W = {row['index_W']:+d}")
tallies = report["tallies"]
print(f"products checked decisively: {tallies['checked']}, "
      f"deferred into margins: {tallies['deferred']}, escaped: {tallies['escaped']}")
print(f"\noverall verdict: {report['verdict']}")
assert report["verdict"] == "pass", report["failures"]

# shrink the margins to zero and the same construction exhausts the window:
# some witness products leave it, and honesty demands 'inconclusive'
tight = Window2D(-4, 4, -8, 8, 0, 0)
verdict = check_schur_pair(forward_krichever(make_datum("p2-line", twist=2), tight))["verdict"]
print(f"same pair with zero margins: {verdict}")
assert verdict == "inconclusive", verdict
