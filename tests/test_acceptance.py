"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact arithmetic, so every tolerance is exact equality.  Run
with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import random
import time

from fixtures import enlarge, random_local2d
from oracles import (brute_index, brute_membership, chi, random_windowed_rows,
                     rr_h0, rr_h1)
from ribbonlab.cli import main as cli_main
from ribbonlab.cohomology import cech_line_bundle, picard_dimension, ribbon_cohomology
from ribbonlab.fredholm import Verdict, echelonize, fredholm_index, membership
from ribbonlab.geometry import NodalCubicRing, forward_krichever, make_datum, noncoherent_chain, order_group, level_index_table
from ribbonlab.local2d import Window2D
from ribbonlab.schur import hilbert_function, point_ideal_check
from ribbonlab.series import QQ, Field

W_AC = Window2D(-4, 4, -8, 8, 2, 2)
W_WIDE = Window2D(-4, 4, -12, 12, 2, 2)


def _report(line):
    print(line)


def test_ac1_schur_pair_soundness(tmp_path, capsys):
    for m in range(4):
        t0 = time.perf_counter()
        pair_file = tmp_path / f"pair{m}.json"
        assert cli_main(["build", "p2-line", "--twist", str(m),
                         "--out", str(pair_file)]) == 0
        assert cli_main(["check", str(pair_file)]) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"twist {m} took {elapsed:.1f}s"
    obj = json.loads((tmp_path / "pair0.json").read_text())
    obj["A"]["generators"].append([{"terms": [[1, 0, "1/1"]], "component": 1}])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert cli_main(["check", str(bad)]) == 1
    capsys.readouterr()  # swallow the check reports
    _report("AC1 schur-pair soundness (build+check m=0..3, injected flip): PASS")


def test_ac2_level_fredholm_indices():
    for m in range(4):
        table = {row["b"]: row for row in level_index_table(make_datum("p2-line", m), W_WIDE)}
        for b in range(-3, 4):
            assert table[b]["index_W"] == m - b + 1 == chi(m - b)
    _report("AC2 level Fredholm indices match m - b + 1 for b in [-3,4): PASS")


def test_ac3_hilbert_reconstruction():
    pair = forward_krichever(make_datum("p2-line", 0), W_AC)
    for n in range(7):
        assert hilbert_function(pair.algebra, 1, n) == n + 1
        assert hilbert_function(pair.algebra, 2, n) == (n + 1) + n
    point = point_ideal_check(pair.algebra, 6)
    assert point["pass"] and point["jumps"] == [1] * 6
    _report("AC3 Hilbert reconstruction (j=1, j=2, colength-one point): PASS")


def test_ac4_cohomology():
    for d in range(-6, 7):
        assert cech_line_bundle(d, 8) == (max(0, d + 1), max(0, -d - 1))
    g = make_datum("p2-line", 0)
    for depth, want in ((2, (1, 1)), (5, (1, 10))):
        rep = ribbon_cohomology([g.level_bound(b, "W") for b in range(depth + 1)], 8)
        assert (rep["h0"], rep["h1"]) == want
        assert rep["agreement"] and rep["transition_surjective"]
    _report("AC4 Cech line bundles + ribbon stacks (1,1)/(1,10): PASS")


def test_ac5_picard():
    g = make_datum("p2-line", 0)
    dims = [picard_dimension(g, i, 8)["dim"] for i in range(1, 6)]
    assert dims == [0, 1, 3, 6, 10]
    assert picard_dimension(g, 5, 8)["d"] == -1
    _report("AC5 Picard dimensions [0,1,3,6,10] with d = -1: PASS")


def test_ac6_order_group():
    assert order_group(make_datum("p2-line", 0), W_AC)["d"] == 1
    assert order_group(make_datum("even-variant"), W_AC)["d"] == 2
    assert order_group(make_datum("nilpotent"), W_AC)["d"] == 0
    _report("AC6 order group d = 1 / 2 / 0 across the three regimes: PASS")


def test_ac7_non_noetherian_demo():
    dims = noncoherent_chain(NodalCubicRing(8), 5, -6, 1)["dims"]
    assert len(dims) == 5
    steps = [b - a for a, b in zip(dims, dims[1:])]
    assert all(s == steps[0] and s > 0 for s in steps)
    _report(f"AC7 non-Noetherian chain strictly increasing {dims}: PASS")


def test_ac8_property_suites():
    started = time.perf_counter()
    fields = [QQ, Field(13)]

    rng = random.Random(801)
    for _ in range(1000):
        fld = rng.choice(fields)
        r = rng.randint(1, 2)
        u_lo, u_hi = rng.randint(-6, 0), rng.randint(1, 6)
        rows = random_windowed_rows(rng, fld, r, u_lo, u_hi, rng.randint(0, 4))
        W = echelonize(rows, r, u_lo, u_hi, True, field=fld)
        W2 = echelonize(W.row_vectors(), r, u_lo, u_hi, True, field=fld)
        assert W.rows == W2.rows

    rng = random.Random(802)
    for _ in range(1000):
        fld = rng.choice(fields)
        r = rng.randint(1, 2)
        u_lo = rng.randint(-6, -1)
        u_hi = u_lo + rng.randint(2, 12)
        rows = random_windowed_rows(rng, fld, r, u_lo, u_hi, rng.randint(0, 4))
        W = echelonize(rows, r, u_lo, u_hi, True, field=fld)
        v = random_windowed_rows(rng, fld, r, u_lo, u_hi, 1)[0]
        assert (membership(W, v) is Verdict.IN) == brute_membership(
            W.row_vectors(), v, fld, r, u_lo, u_hi)

    rng = random.Random(803)
    for _ in range(1000):
        fld = rng.choice(fields)
        r = rng.randint(1, 3)
        u_lo, u_hi = rng.randint(-8, 0), rng.randint(1, 8)
        rows = random_windowed_rows(rng, fld, r, u_lo, u_hi, rng.randint(0, 5))
        W = echelonize(rows, r, u_lo, u_hi, True, field=fld)
        assert fredholm_index(W) == brute_index(W.row_vectors(), fld, r, u_lo, u_hi)

    rng = random.Random(804)
    for _ in range(1000):
        r = rng.randint(1, 2)
        u_lo, u_hi = rng.randint(-5, 0), rng.randint(1, 5)
        rows = random_windowed_rows(rng, QQ, r, u_lo, u_hi, rng.randint(0, 4))
        W = echelonize(rows, r, u_lo, u_hi, True, field=QQ)
        big = enlarge(W, u_lo - rng.randint(1, 3), u_hi + rng.randint(1, 3))
        assert fredholm_index(big) == fredholm_index(W)
        v = random_windowed_rows(rng, QQ, r, u_lo, u_hi, 1)[0]
        assert membership(big, v) is membership(W, v)

    rng = random.Random(805)
    done = 0
    while done < 1000:
        fld = rng.choice(fields)
        x = random_local2d(rng, fld)
        y = random_local2d(rng, fld)
        if not x or not y:
            continue
        assert (x * y).ord_t() == x.ord_t() + y.ord_t()
        done += 1

    rng = random.Random(806)
    for _ in range(1000):
        d = rng.randint(-10, 10)
        B = max(abs(d), abs(-2 - d)) + 2 + rng.randint(0, 2)
        fld = rng.choice(fields)
        assert cech_line_bundle(d, B, fld) == (rr_h0(d), rr_h1(d))
        assert rr_h0(d) == rr_h1(-2 - d)
        h0, h1 = cech_line_bundle(d, B, fld)
        dh0, dh1 = cech_line_bundle(-2 - d, B, fld)
        assert (h0, h1) == (dh1, dh0)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"property suites took {elapsed:.0f}s"
    _report(f"AC8 six property suites, 1000 exact cases each ({elapsed:.1f}s): PASS")
