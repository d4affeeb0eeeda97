"""Per-level Fredholm indices of the plane/line pair against the closed form.

Each t-level of the module models the sections of a twist-(m - b) line bundle
on the base line away from the marked point; its index against the power
series tail is therefore the Euler characteristic m - b + 1.  The table below
recovers that closed form purely from echelon pivot profiles.
"""

from ribbonlab import Window2D, level_index_table, make_datum

window = Window2D(-4, 4, -12, 12, 2, 2)

for m in range(4):
    table = level_index_table(make_datum("p2-line", twist=m), window)
    got = [table.index("W", b) for b in range(-3, 4)]
    want = [m - b + 1 for b in range(-3, 4)]
    assert got == want, f"twist {m}: W-level indices {got} differ from the closed form {want}"
    print(f"twist {m}: W-level indices b=-3..3 -> {got}  (closed form {want})  ok")

print()
table = level_index_table(make_datum("p2-line", twist=0), window)
print("algebra side, twist 0:")
for row in table.rows:
    print(f"  level {row['b']:+d}: index_A = {row['index_A']:+d}")
