import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from fixtures import pair_equal_in_window, t_slice
from oracles import (brute_membership, dense_closure, graded_dimension, graded_slice,
                     random_windowed_rows, slicewise_membership)
from perturbed import F_MERSENNE, W_GROWN, perturbed_pair
from ribbonlab import schur
from ribbonlab.errors import (ConfigError, FieldMismatchError,
                              RangeViolationError, SupportViolationError,
                              WindowMismatchError, WindowTooSmallError)
from ribbonlab.fredholm import Verdict, echelonize, membership
from ribbonlab.geometry import make_datum, forward_krichever
from ribbonlab.local2d import Local2DElement, Window2D, ord_t_vector
from ribbonlab.schur import (LayeredSubspace, Router, SchurPair, _merge, _route_check,
                             check_schur_pair, hilbert_function, layered_membership,
                             point_ideal_check, scalar_times_vector)
from ribbonlab.series import QQ, Field, LaurentPoly, Scalar

W_AC = Window2D(-4, 4, -8, 8, 2, 2)


@pytest.fixture(scope="module")
def p2_pair():
    return forward_krichever(make_datum("p2-line", 0), W_AC)


def mono(a, b, c=1):
    return Local2DElement.from_dict(QQ, {(a, b): c})


def monomial_level(bound, w, field=QQ):
    rows = [(LaurentPoly.from_dict(field, {a: 1}),) for a in range(w.u_lo, bound + 1)]
    return echelonize(rows, 1, w.u_lo, w.u_hi, True, field=field)


def test_layered_membership_zero_is_in(p2_pair):
    assert layered_membership(p2_pair.algebra, (Local2DElement(QQ),)) is Verdict.IN


def test_layered_membership_reduction_oracle(p2_pair):
    # level-0 space is span{u^a : a <= 0}, so u t^0 cannot reduce
    assert layered_membership(p2_pair.algebra, (mono(1, 0),)) is Verdict.NOT_IN
    assert layered_membership(p2_pair.algebra, (mono(-1, 0) + mono(-3, 1),)) is Verdict.IN


def test_layered_membership_margin_exhaustion(p2_pair):
    x = mono(-5, 2) + mono(-5, 3)  # entirely at t-orders >= t_hi - m_t
    assert layered_membership(p2_pair.algebra, (x,)) is Verdict.INCONCLUSIVE


def test_layered_membership_support_violation(p2_pair):
    with pytest.raises(SupportViolationError):
        layered_membership(p2_pair.algebra, (mono(-9, 0),))
    with pytest.raises(SupportViolationError):
        layered_membership(p2_pair.algebra, (mono(0, -5),))


def test_layered_membership_refuses_a_vector_of_another_rank(p2_pair):
    with pytest.raises(SupportViolationError, match="2 components, expected 1"):
        layered_membership(p2_pair.algebra, (mono(0, 0), mono(0, 0)))
    w = p2_pair.window
    zero = echelonize([], 2, w.u_lo, w.u_hi, False, field=QQ)
    rank_two = LayeredSubspace(QQ, 2, w, tuple((b, zero) for b in range(w.t_lo, w.t_hi)))
    with pytest.raises(SupportViolationError, match="1 components, expected 2"):
        layered_membership(rank_two, (mono(0, 0),))


def test_check_passes_on_plane_pair(p2_pair):
    rep = check_schur_pair(p2_pair)
    assert rep["verdict"] == "pass"
    assert rep["tallies"]["escaped"] == 0
    by_b = {row["b"]: row["index_A"] for row in rep["levels"]}
    for b, idx in by_b.items():
        assert idx == 1 - b  # chi of the twist -b piece on the line


def test_check_fails_with_injected_generator(p2_pair):
    obj = p2_pair.to_json()
    obj["A"]["generators"].append([mono(1, 0).to_json(component=1)])
    rep = check_schur_pair(SchurPair.from_json(obj))
    assert rep["subalgebra"] == "fail"
    assert rep["verdict"] == "fail"


def test_check_inconclusive_when_products_escape_window():
    w = Window2D(-2, 2, -4, 4, 0, 0)
    rep = check_schur_pair(forward_krichever(make_datum("p2-line", 0), w))
    assert rep["verdict"] == "inconclusive"
    assert rep["tallies"]["escaped"] > 0


def test_graded_slice_single_level(p2_pair):
    assert graded_slice(p2_pair.algebra, 0, 1).rows == p2_pair.algebra.level(0).rows


def test_graded_slice_two_levels_monomial_criterion(p2_pair):
    sl = graded_slice(p2_pair.algebra, 0, 2)
    # block 0 carries exponents <= 0, block 1 (level 1) exponents <= -1
    assert {(e, c) for (e, c) in sl.pivots if c == 0} == {(e, 0) for e in range(-8, 1)}
    assert {(e, c) for (e, c) in sl.pivots if c == 1} == {(e, 1) for e in range(-8, 0)}


def test_graded_slice_nesting(p2_pair):
    inner = graded_slice(p2_pair.algebra, 0, 2)
    outer = graded_slice(p2_pair.algebra, 0, 3)
    sub = {(e, c) for (e, c) in outer.pivots if c <= 1}
    assert sub == set(inner.pivots)
    # blocks are independent, so the outer rows supported in the first two
    # blocks must coincide with the inner echelon rows exactly
    outer_sub = [row for row in outer.rows if all(c < 2 for (_e, c), _v in row)]
    assert sorted(outer_sub) == sorted(inner.rows)


def test_graded_slice_empty_range(p2_pair):
    with pytest.raises(RangeViolationError):
        graded_slice(p2_pair.algebra, 1, 1)
    with pytest.raises(RangeViolationError):
        graded_slice(p2_pair.algebra, -5, 0)


def test_hilbert_values(p2_pair):
    A = p2_pair.algebra
    assert hilbert_function(A, 1, 3) == 4
    assert hilbert_function(A, 2, 0) == 1
    assert hilbert_function(A, 2, 3) == 7


def test_hilbert_brute_force_intersection(p2_pair):
    # oracle: dim(U_n ∩ level) by dense rank over the window coordinates
    A = p2_pair.algebra
    for j in (1, 2, 3):
        for n in range(0, 7):
            want = 0
            for b in range(j):
                lvl = A.level(b)
                rows = lvl.row_vectors()
                unit = [(LaurentPoly.from_dict(QQ, {e: 1}),) for e in range(-n, lvl.u_hi)]
                inside = [v for v in rows
                          if brute_membership(unit, v, QQ, 1, lvl.u_lo, lvl.u_hi)]
                want += len(inside)
            assert hilbert_function(A, j, n) == want


@pytest.mark.parametrize("kind, twist", [("p2-line", 0), ("p2-line", 2),
                                         ("even-variant", 0), ("nilpotent", 0)])
def test_hilbert_matches_graded_slice_rank_on_built_pairs(kind, twist):
    pair = forward_krichever(make_datum(kind, twist), W_AC)
    for L in (pair.algebra, pair.module):
        for j in (1, 2, 3):
            for n in range(0, 9, 2):
                assert hilbert_function(L, j, n) == graded_dimension(L, j, n)


def test_hilbert_matches_graded_slice_rank_on_random_levels():
    rng = random.Random(113)
    for _ in range(200):
        fld, r = rng.choice([QQ, Field(13)]), rng.randint(1, 2)
        w = Window2D(rng.randint(-2, 0), rng.randint(1, 3), rng.randint(-5, -1), rng.randint(1, 5))
        levels = tuple(
            (b, echelonize(random_windowed_rows(rng, fld, r, w.u_lo, w.u_hi, rng.randint(0, 4)),
                           r, w.u_lo, w.u_hi, True, field=fld))
            for b in range(w.t_lo, w.t_hi))
        L = LayeredSubspace(fld, r, w, levels, ())
        j, n = rng.randint(1, w.t_hi), rng.randint(0, -w.u_lo)
        assert hilbert_function(L, j, n) == graded_dimension(L, j, n)


def test_hilbert_refuses_a_counted_pivot_in_the_top_u_margin(p2_pair):
    # the top u-margin of W_AC is [6, 8); check reads a level with a pivot
    # there as window-too-small, and so does every depth that counts it
    obj = p2_pair.to_json()
    level = {e["b"]: e["space"] for e in obj["A"]["levels"]}
    level[1]["rows"].append([LaurentPoly.monomial(QQ, 5).to_json()])
    level[2]["rows"].append([LaurentPoly.monomial(QQ, 6).to_json()])
    A = SchurPair.from_json(obj).algebra
    assert hilbert_function(A, 2, 0) == 2  # u^5 at level 1 is trusted and counted
    with pytest.raises(WindowTooSmallError, match="pivot exponent 6 touches the top margin"):
        hilbert_function(A, 3, 0)
    level[0]["rows"].append([LaurentPoly.monomial(QQ, 7).to_json()])
    with pytest.raises(WindowTooSmallError):
        point_ideal_check(SchurPair.from_json(obj).algebra, 6)


def test_hilbert_monotone_and_convex(p2_pair):
    A = p2_pair.algebra
    for j in (1, 2, 3):
        vals = [hilbert_function(A, j, n) for n in range(8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(b >= a for a, b in zip(diffs, diffs[1:]))


def test_hilbert_window_errors(p2_pair):
    with pytest.raises(WindowTooSmallError):
        hilbert_function(p2_pair.algebra, 1, 9)  # u_lo = -8
    with pytest.raises(WindowTooSmallError):
        hilbert_function(p2_pair.algebra, 5, 0)  # t_hi = 4
    with pytest.raises(RangeViolationError):
        hilbert_function(p2_pair.algebra, 0, 1)
    with pytest.raises(RangeViolationError, match="n must be nonnegative"):
        hilbert_function(p2_pair.algebra, 1, -1)


def test_point_ideal_passes_on_plane_pair(p2_pair):
    rep = point_ideal_check(p2_pair.algebra, 6)
    assert rep["pass"]
    assert rep["dims"] == [n + 1 for n in range(7)]
    assert rep["jumps"] == [1] * 6


def test_point_ideal_gap_fails():
    w = Window2D(0, 1, -8, 8, 0, 2)
    gap_level = echelonize(
        [(LaurentPoly.from_dict(QQ, {a: 1}),) for a in list(range(-8, -1)) + [0]],
        1, -8, 8, True, field=QQ)
    L = LayeredSubspace(QQ, 1, w, ((0, gap_level),), ())
    rep = point_ideal_check(L, 4)
    assert not rep["pass"]
    # dimension oracle: counts of {a : -n <= a <= 0, a != -1}
    assert rep["dims"] == [1, 1, 2, 3, 4]
    assert rep["jumps"] == [0, 1, 1, 1]


def test_point_ideal_fails_on_jumps_above_one():
    # rank 2, two pivots per exponent: every jump is 2, not 1
    w = Window2D(0, 1, -8, 8, 0, 2)
    zero = LaurentPoly.from_dict(QQ, {})
    rows = [vec for a in range(-8, 1) for vec in ((LaurentPoly.monomial(QQ, a), zero),
                                                   (zero, LaurentPoly.monomial(QQ, a)))]
    L = LayeredSubspace(QQ, 2, w, ((0, echelonize(rows, 2, -8, 8, True, field=QQ)),), ())
    rep = point_ideal_check(L, 4)
    assert not rep["pass"]
    assert rep["dims"] == [2, 4, 6, 8, 10]
    assert rep["jumps"] == [2, 2, 2, 2]


def test_point_ideal_n_zero_boundary(p2_pair):
    rep = point_ideal_check(p2_pair.algebra, 0)
    assert rep["pass"] and rep["dims"] == [1] and rep["jumps"] == []


def test_pair_equal_reflexive_and_canonical(p2_pair):
    assert pair_equal_in_window(p2_pair, p2_pair)
    # rescale one level's basis by 2 and re-echelonize: canonical form agrees
    obj = p2_pair.to_json()
    entry = next(e for e in obj["A"]["levels"] if e["b"] == 0)
    for vec in entry["space"]["rows"]:
        for poly in vec:
            poly["coeffs"] = [[e, f"{2 * int(c.split('/')[0])}/{c.split('/')[1]}"]
                              for e, c in poly["coeffs"]]
    assert pair_equal_in_window(p2_pair, SchurPair.from_json(obj))


def test_pair_equal_detects_level_perturbation(p2_pair):
    obj = p2_pair.to_json()
    entry = next(e for e in obj["A"]["levels"] if e["b"] == 0)
    entry["space"]["rows"].append([LaurentPoly.from_dict(QQ, {1: 1}).to_json()])
    assert not pair_equal_in_window(p2_pair, SchurPair.from_json(obj))


def test_pair_equal_window_mismatch(p2_pair):
    other = forward_krichever(make_datum("p2-line", 0), Window2D(-4, 4, -8, 8, 1, 1))
    with pytest.raises(WindowMismatchError):
        pair_equal_in_window(p2_pair, other)


@pytest.mark.parametrize("window,field,match", [
    (Window2D(-4, 4, -8, 8, 1, 1), QQ, "different windows"),
    (W_AC, Field(7), "different fields"),
], ids=["window", "field"])
def test_pair_refuses_sides_that_do_not_match(p2_pair, window, field, match):
    other = forward_krichever(make_datum("p2-line", 0), window, field)
    with pytest.raises(WindowMismatchError, match=match):
        SchurPair(p2_pair.algebra, other.module)


def test_layered_requires_every_level():
    w = Window2D(0, 2, -2, 2, 0, 0)
    lvl = monomial_level(0, w)
    with pytest.raises(ConfigError):
        LayeredSubspace(QQ, 1, w, ((0, lvl),), ())


def test_layered_refuses_a_level_over_another_field():
    # reducing against F_7 rows would delete each pivot entry of a Q vector
    # without arithmetic, so the fields would never meet
    w = Window2D(-2, 2, -4, 4, 0, 0)
    levels = tuple((b, monomial_level(0, w, Field(7))) for b in range(w.t_lo, w.t_hi))
    with pytest.raises(FieldMismatchError, match="level -2 is over Fp:7 in a Q subspace"):
        LayeredSubspace(QQ, 1, w, levels, ())


def test_witness_validation_strict(p2_pair):
    bad = LayeredSubspace(QQ, 1, W_AC, p2_pair.algebra.levels,
                          p2_pair.algebra.generators + ((mono(1, 0),),))
    with pytest.raises(ConfigError):
        bad.validate_witnesses()


def test_witness_rule_is_layered_membership_on_non_split_witness():
    # level 0 = tail + u^0, level 1 = tail, witness g = u^0 t^0 + u^3 t^1.
    # Its leading slice u^0 lies in level 0, but the one membership rule
    # subtracts the bare slice and finds u^3 outside level 1, so the witness
    # is rejected.  For the subspace g generates both verdicts below are
    # wrong: subtracting bare slices is sound only for split subspaces.
    w = Window2D(0, 2, -2, 5, 0, 0)
    level0 = echelonize([(LaurentPoly.monomial(QQ, 0),)], 1, w.u_lo, w.u_hi, True, field=QQ)
    level1 = echelonize([], 1, w.u_lo, w.u_hi, True, field=QQ)
    g = mono(0, 0) + mono(3, 1)
    L = LayeredSubspace(QQ, 1, w, ((0, level0), (1, level1)), ((g,),))
    with pytest.raises(ConfigError):
        L.validate_witnesses()
    assert layered_membership(L, (g,)) is Verdict.NOT_IN
    assert layered_membership(L, (mono(0, 0),)) is Verdict.IN


def test_rank_two_membership_reduces_once_and_subtracts_one_lift_per_component(monkeypatch):
    # component 0 has terms at t^0 and t^1, component 1 only at t^2 < t_top:
    # three (level, component) blocks, but one reduction and two lifts
    w = Window2D(-1, 4, -4, 4, 1, 1)
    row0 = (LaurentPoly.from_dict(QQ, {-1: 1, 0: 2}), LaurentPoly.from_dict(QQ, {}))
    row1 = (LaurentPoly.from_dict(QQ, {}), LaurentPoly.from_dict(QQ, {-1: 1, 1: -1}))
    level = echelonize([row0, row1], 2, w.u_lo, w.u_hi, False, field=QQ)
    L = LayeredSubspace(QQ, 2, w, tuple((b, level) for b in range(w.t_lo, w.t_hi)), ())
    comp0 = Local2DElement.from_dict(QQ, {(-1, 0): 1, (0, 0): 2, (-1, 1): 3, (0, 1): 6})
    vec = (comp0, Local2DElement.from_dict(QQ, {(-1, 2): 5, (1, 2): -5}))
    moved = (comp0, Local2DElement.from_dict(QQ, {(-1, 2): 5, (1, 1): -5}))
    subs, reduces = [], []
    sub, reduce_vector = Local2DElement.__sub__, schur._linalg.reduce_vector

    def counting_sub(self, other):
        subs.append(len(other.terms))
        return sub(self, other)

    def counting_reduce(v, pivots):
        reduces.append(sorted(v))
        return reduce_vector(v, pivots)

    monkeypatch.setattr(Local2DElement, "__sub__", counting_sub)
    monkeypatch.setattr(schur._linalg, "reduce_vector", counting_reduce)
    assert "pivot_index" not in vars(L)
    assert layered_membership(L, vec) is Verdict.IN is slicewise_membership(L, vec)
    index = vars(L)["pivot_index"]
    assert subs == [4, 2]
    assert reduces == [[(0, -1, 0), (0, 0, 0), (1, -1, 0), (1, 0, 0), (2, -1, 1), (2, 1, 1)]]
    assert layered_membership(L, moved) is Verdict.NOT_IN is slicewise_membership(L, moved)
    assert len(reduces) == 2 and subs == [4, 2]  # a NotIn verdict subtracts no lift
    assert vars(L)["pivot_index"] is index
    # t^3 is the top margin: its level is not indexed
    assert sorted(L.pivot_index) == [(b, a, c) for b in range(w.t_lo, w.t_hi - w.m_t)
                                     for a, c in ((-1, 0), (-1, 1))]
    assert L.pivot_index[(2, -1, 1)] == {(2, -1, 1): QQ.one, (2, 1, 1): -QQ.one}


def test_layered_membership_soundness_vs_brute_force():
    rng = random.Random(77)
    w = Window2D(-2, 2, -3, 3, 0, 1)
    for _ in range(500):
        levels = []
        for b in range(w.t_lo, w.t_hi):
            rows = random_windowed_rows(rng, QQ, 1, w.u_lo, w.u_hi, rng.randint(0, 3))
            levels.append((b, echelonize(rows, 1, w.u_lo, w.u_hi, True, field=QQ)))
        L = LayeredSubspace(QQ, 1, w, tuple(levels), ())
        d = {}
        for _ in range(rng.randint(0, 4)):
            d[(rng.randint(w.u_lo, w.u_hi - 1), rng.randint(w.t_lo, w.t_hi - 1))] = rng.randint(-4, 4)
        x = Local2DElement.from_dict(QQ, d)
        verdict = layered_membership(L, (x,))
        if verdict is Verdict.IN:
            for b in sorted({b for (_a, b), _c in x.terms}):
                lvl = L.level(b)
                assert brute_membership(lvl.row_vectors(), (t_slice(x, b),),
                                        QQ, 1, w.u_lo, w.u_hi)


def test_pair_json_roundtrip(p2_pair):
    obj = json.loads(json.dumps(p2_pair.to_json(), sort_keys=True))
    assert pair_equal_in_window(p2_pair, SchurPair.from_json(obj))


def test_prime_field_pipeline():
    from ribbonlab.series import Field
    f7 = Field(7)
    pair = forward_krichever(make_datum("p2-line", 1), W_AC, f7)
    rep = check_schur_pair(pair)
    assert rep["verdict"] == "pass"
    assert {row["b"]: row["index_W"] for row in rep["levels"]} == {b: 2 - b for b in range(-2, 2)}
    assert [hilbert_function(pair.algebra, 1, n) for n in range(5)] == [1, 2, 3, 4, 5]
    assert point_ideal_check(pair.algebra, 5)["pass"]


def unmemoised_check(pair):
    """Reference for check_schur_pair's closure part: route every occurrence."""
    A, W = pair.algebra, pair.module
    tallies = {"checked": 0, "deferred": 0, "escaped": 0}
    failures = []

    def run(L, vec, label):
        res = _route_check(L, vec)
        tallies["checked" if res in ("in", "not-in") else res] += 1
        if res == "not-in":
            failures.append(label)
        return res

    unit = run(A, (Local2DElement.one(pair.field),), "unit 1 not in A")
    a_gens = list(A.generators)
    alg = [unit] + [run(A, g, f"A-generator #{i} fails membership")
                    for i, g in enumerate(a_gens)]
    alg += [run(A, scalar_times_vector(g[0], a_gens[j]), f"A-product #{i}*#{j} leaves A")
            for i, g in enumerate(a_gens) for j in range(i, len(a_gens))]
    mod = [run(W, w, f"W-generator #{i} fails membership") for i, w in enumerate(W.generators)]
    mod += [run(W, scalar_times_vector(g[0], w), f"module product A#{i}*W#{j} leaves W")
            for i, g in enumerate(a_gens) for j, w in enumerate(W.generators)]
    return {"unit": unit, "subalgebra": _merge(alg), "module_closure": _merge(mod),
            "tallies": tallies, "failures": failures}


@pytest.mark.parametrize("twist", [0, 2])
def test_check_matches_unmemoised_reference_on_monomial_pair(twist):
    pair = forward_krichever(make_datum("p2-line", twist), W_AC)
    got = check_schur_pair(pair)
    want = unmemoised_check(pair)
    assert {k: got[k] for k in want} == want
    assert got["verdict"] == "pass"


def test_check_matches_unmemoised_reference_on_repeated_failures():
    # three copies of a non-monomial witness whose leading slice u^2 t^-1 is
    # not in level -1 of A: its own check and its square each fail more than
    # once.  It does lie in W (twist 2), where the products bad * 1 land, so a
    # verdict reused across sides would show.
    bad = mono(2, -1) + mono(-3, 0)
    obj = forward_krichever(make_datum("p2-line", 2), W_AC).to_json()
    first = len(obj["A"]["generators"])
    obj["A"]["generators"] += [[bad.to_json(component=1)]] * 3
    pair = SchurPair.from_json(obj)
    assert _route_check(pair.algebra, scalar_times_vector(bad, (bad,))) == "not-in"
    assert _route_check(pair.module, (bad,)) == "in"
    got = check_schur_pair(pair)
    want = unmemoised_check(pair)
    assert {k: got[k] for k in want} == want
    bad_ix = range(first, first + 3)
    for i in bad_ix:
        assert got["failures"].count(f"A-generator #{i} fails membership") == 1
        for j in bad_ix:
            if i <= j:
                assert got["failures"].count(f"A-product #{i}*#{j} leaves A") == 1
    assert got["verdict"] == "fail"


def test_check_matches_unmemoised_reference_on_failing_module_products():
    # two copies of the W witness u^3 t^0, which lies above level 0 of W
    # (twist 2); four A witnesses keep its product outside W, and the other
    # products land in W, so a W-side label is kept exactly per failing pair
    bad = mono(3, 0)
    obj = forward_krichever(make_datum("p2-line", 2), W_AC).to_json()
    first = len(obj["W"]["generators"])
    obj["W"]["generators"] += [[bad.to_json(component=1)]] * 2
    pair = SchurPair.from_json(obj)
    leaving = [i for i, g in enumerate(pair.algebra.generators)
               if _route_check(pair.module, scalar_times_vector(g[0], (bad,))) == "not-in"]
    assert len(leaving) == 4
    got = check_schur_pair(pair)
    want = unmemoised_check(pair)
    assert {k: got[k] for k in want} == want
    for j in (first, first + 1):
        assert got["failures"].count(f"W-generator #{j} fails membership") == 1
        for i in range(len(pair.algebra.generators)):
            label = f"module product A#{i}*W#{j} leaves W"
            assert got["failures"].count(label) == (i in leaving)
    assert sum(f.startswith("module product") for f in got["failures"]) == 8
    assert got["module_closure"] == got["verdict"] == "fail"
    assert got["subalgebra"] == "pass"


def test_router_stays_exact_under_hash_collisions():
    # hash(-1) == hash(-2) in CPython, so each pair of products below has
    # colliding Router keys: one differs in an exponent, the other in a
    # coefficient.  The first product of each pair is in L, the second is not.
    w = Window2D(-1, 2, -4, 4, 0, 0)

    def level(*rows):
        rows = [(LaurentPoly.from_dict(QQ, r),) for r in rows]
        return echelonize(rows, 1, w.u_lo, w.u_hi, True, field=QQ)

    L = LayeredSubspace(QQ, 1, w, ((-1, level()), (0, level({-1: 1}, {0: 1, 1: -1})),
                                   (1, level())))
    cases = [
        (mono(-1, 0), mono(-2, 0)),
        (mono(0, 0) + mono(1, 0, -1), mono(0, 0) + mono(1, 0, -2)),
    ]
    for x, y in cases:
        assert hash((x.terms,)) == hash((y.terms,))
        assert [_route_check(L, (x,)), _route_check(L, (y,))] == ["in", "not-in"]
        for order in ((x, y), (y, x)):
            route = Router(L)
            for _ in range(3):
                for p in order:
                    assert route((p,)) == _route_check(L, (p,))


def test_monomial_window_check_compares_no_scalars(monkeypatch):
    # every coefficient of a split pair is its field's shared unit, so a
    # memo hit on a repeated witness product matches its key's coefficients
    # by identity (a fresh Scalar per coefficient costs 17,114 __eq__ calls)
    pair = forward_krichever(make_datum("p2-line", 1), Window2D(-8, 8, -16, 16, 4, 4))
    want = check_schur_pair(pair)
    calls = []
    eq = Scalar.__eq__

    def counting_eq(a, b):
        calls.append(1)
        return eq(a, b)

    monkeypatch.setattr(Scalar, "__eq__", counting_eq)
    got = check_schur_pair(pair)
    monkeypatch.undo()
    assert len(calls) == 0
    assert got == want and got["verdict"] == "pass"


def test_merge_takes_the_most_severe_verdict():
    assert _merge(set()) == _merge({"in", "deferred", None}) == "pass"
    assert _merge({"in", "escaped"}) == _merge({"window-too-small", None}) == "inconclusive"
    assert _merge({"escaped", "not-in"}) == _merge({"window-too-small", "not-cocompact"}) == "fail"


def test_check_fredholm_part_inconclusive_then_fail(p2_pair):
    # a level-0 row u^7 puts a pivot in the top u-margin: window-too-small;
    # dropping level 1's tail on top of that is a failure, which wins
    obj = p2_pair.to_json()
    level = {e["b"]: e["space"] for e in obj["A"]["levels"]}
    level[0]["rows"].append([LaurentPoly.monomial(QQ, 7).to_json()])
    rep = check_schur_pair(SchurPair.from_json(obj))
    assert (rep["subalgebra"], rep["fredholm"], rep["verdict"]) == (
        "pass", "inconclusive", "inconclusive")
    assert rep["failures"] == []
    level[1]["full_below"] = False
    rep = check_schur_pair(SchurPair.from_json(obj))
    assert (rep["fredholm"], rep["verdict"]) == ("fail", "fail")
    assert "level 1 of A is not cocompact" in rep["failures"]


def two_pass_route(L, vec):
    """Reference for _route_check: the two-pass routing it replaced.

    The first pass drops the below-window terms a full_below level absorbs
    and notes any other below-window term; the second classifies the rest.
    """
    w = L.window
    out = []
    blocked = False
    for comp in vec:
        kept = {}
        for (a, b), c in comp.terms:
            if a < w.u_lo:
                if w.t_lo <= b < w.t_hi and L.level(b).full_below:
                    continue
                blocked = True
            kept[(a, b)] = c
        out.append(Local2DElement.from_dict(comp.field, kept))
    vec = tuple(out)
    if not any(vec):
        return "in"
    if blocked:
        return "escaped"
    support = [k for comp in vec for k, _c in comp.terms]
    if any(b < w.t_lo or b >= w.t_hi or a >= w.u_hi for (a, b) in support):
        return "escaped"
    if all(b < w.t_trusted_hi and a < w.u_trusted_hi for (a, b) in support):
        verdict = layered_membership(L, vec)
        if verdict is Verdict.IN:
            return "in"
        if verdict is Verdict.NOT_IN:
            return "not-in"
        return "escaped"
    return "deferred"


@st.composite
def layered_and_vector(draw):
    """A random layered subspace, some levels full_below, and a vector whose
    terms fall inside the window, in its margins, below, above and outside it.
    The vector also carries t^b-shifted level rows, so 'in' comes up often."""
    r = draw(st.integers(1, 2))
    t_lo, u_lo = draw(st.integers(-2, 0)), draw(st.integers(-4, -1))
    t_hi, u_hi = t_lo + draw(st.integers(2, 4)), draw(st.integers(1, 4))
    w = Window2D(t_lo, t_hi, u_lo, u_hi, draw(st.integers(0, (t_hi - t_lo - 1) // 2)),
                 draw(st.integers(0, (u_hi - u_lo - 1) // 2)))
    poly = st.dictionaries(st.integers(u_lo, u_hi - 1), st.integers(-3, 3), max_size=3)
    levels = []
    for b in range(t_lo, t_hi):
        rows = draw(st.lists(st.lists(poly, min_size=r, max_size=r), max_size=3))
        rows = [tuple(LaurentPoly.from_dict(QQ, d) for d in vec) for vec in rows]
        levels.append((b, echelonize(rows, r, u_lo, u_hi, draw(st.booleans()), field=QQ)))
    L = LayeredSubspace(QQ, r, w, tuple(levels), ())
    comps = [{} for _ in range(r)]
    for b, lvl in levels:
        for row in lvl.row_vectors():
            m = draw(st.integers(-2, 2))
            for c, p in enumerate(row):
                for e, x in p.coeffs:
                    comps[c][(e, b)] = comps[c].get((e, b), 0) + m * x
    keys = st.tuples(st.integers(u_lo - 2, u_hi + 1), st.integers(t_lo - 1, t_hi))
    for comp in comps:
        for k, x in draw(st.dictionaries(keys, st.integers(-3, 3), max_size=3)).items():
            comp[k] = comp.get(k, 0) + x
    return L, tuple(Local2DElement.from_dict(QQ, comp) for comp in comps)


@settings(max_examples=300, deadline=None)
@given(layered_and_vector())
def test_route_check_matches_two_pass_route(case):
    L, vec = case
    assert _route_check(L, vec) == two_pass_route(L, vec)
    # once all support is trusted, a reduction never reaches the top margin,
    # which is why _route_check has no inconclusive branch
    w = L.window
    trusted = tuple(Local2DElement.from_dict(QQ, {(a, b): c for (a, b), c in x.terms
                                                  if w.u_lo <= a < w.u_hi
                                                  and w.t_lo <= b < w.t_trusted_hi})
                    for x in vec)
    assert layered_membership(L, trusted) is not Verdict.INCONCLUSIVE


def lift_and_subtract(L, vec):
    """Reference for layered_membership: its loop as first written.

    Each step gathers the t^b slice into a dict, lifts it back to t^b with
    ``from_dict`` and subtracts it on dicts, rebuilding the remainder with
    ``from_dict``.
    """
    w = L.window
    rem = list(vec)
    while any(rem):
        b = ord_t_vector(rem)
        if b >= w.t_trusted_hi:
            return Verdict.INCONCLUSIVE
        slice_vec = tuple(LaurentPoly.from_dict(L.field, {a: c for (a, bb), c in x.terms
                                                          if bb == b})
                          for x in rem)
        if membership(L.level(b), slice_vec) is Verdict.NOT_IN:
            return Verdict.NOT_IN
        lift = [Local2DElement.from_dict(L.field, {(e, b): c for e, c in poly.coeffs})
                for poly in slice_vec]
        diffs = []
        for x, y in zip(rem, lift):
            d = dict(x.terms)
            for k, c in y.terms:
                d[k] = d[k] - c if k in d else -c
            diffs.append(Local2DElement.from_dict(L.field, d))
        rem = diffs
    return Verdict.IN


@settings(max_examples=300, deadline=None)
@given(layered_and_vector())
def test_layered_membership_matches_lift_and_subtract(case):
    L, vec = case
    w = L.window
    # the terms inside the window: margin terms make some verdicts inconclusive
    inside = tuple(Local2DElement.from_dict(QQ, {(a, b): c for (a, b), c in x.terms
                                                 if w.u_lo <= a < w.u_hi and w.t_lo <= b < w.t_hi})
                   for x in vec)
    verdict = layered_membership(L, inside)
    event(verdict.value)
    assert verdict is lift_and_subtract(L, inside)


def test_layered_membership_coerces_nothing(monkeypatch):
    fp = Field(2 ** 31 - 1)
    w = Window2D(-2, 4, -4, 4, 1, 1)

    def poly(d):
        return LaurentPoly.from_dict(fp, d)

    levels = tuple((b, echelonize([(poly({-2: 1, 0: 5}),), (poly({-1: 3, 1: -1}),)],
                                  1, w.u_lo, w.u_hi, True, field=fp))
                   for b in range(w.t_lo, w.t_hi))
    L = LayeredSubspace(fp, 1, w, levels, ())
    x = Local2DElement.from_dict(fp, {(-2, 0): 2, (0, 0): 10, (-1, 1): 6, (1, 1): -2})
    calls = {"from_dict": 0, "scalar": 0, "LaurentPoly": 0}
    from_dict, scalar, laurent_init = Local2DElement.from_dict, Field.scalar, LaurentPoly.__init__

    def counting_from_dict(field, d):
        calls["from_dict"] += 1
        return from_dict(field, d)

    def counting_scalar(self, value):
        calls["scalar"] += 1
        return scalar(self, value)

    def counting_laurent_init(self, field, coeffs=()):
        calls["LaurentPoly"] += 1
        laurent_init(self, field, coeffs)

    monkeypatch.setattr(Local2DElement, "from_dict", staticmethod(counting_from_dict))
    monkeypatch.setattr(Field, "scalar", counting_scalar)
    monkeypatch.setattr(LaurentPoly, "__init__", counting_laurent_init)
    assert layered_membership(L, (x,)) is Verdict.IN
    assert calls == {"from_dict": 0, "scalar": 0, "LaurentPoly": 0}
    monkeypatch.undo()
    assert lift_and_subtract(L, (x,)) is Verdict.IN
    with pytest.raises(FieldMismatchError):
        layered_membership(L, (Local2DElement.from_dict(Field(7), {(0, 0): 1}),))


# nonzero in both fields; 2^30 and 2^31 - 2 make F_(2^31-1) products wrap
NONZERO = st.sampled_from([-3, -2, -1, 1, 2, 3, 2 ** 30, 2 ** 31 - 2])


@st.composite
def non_monomial_levels_and_vector(draw):
    """Levels echelonized from random rows of two to four terms, and a vector
    summing t^b times combinations of level-b rows, plus maybe one stray term.

    Reduced rows keep entries past their pivots, which neither benchmark
    pair has, so membership subtracts whole rows here.  Returns the layered
    subspace, the vector and whether a stray term was added.
    """
    field = draw(st.sampled_from([QQ, F_MERSENNE]))
    r = draw(st.integers(1, 2))
    w = Window2D(-1, 3, -3, 3, 1, 1)
    keys = st.tuples(st.integers(w.u_lo, w.u_hi - 1), st.integers(0, r - 1))
    levels = []
    for b in range(w.t_lo, w.t_hi):
        rows = []
        for row in draw(st.lists(st.dictionaries(keys, NONZERO, min_size=2, max_size=4),
                                 max_size=3)):
            rows.append(tuple(LaurentPoly.from_dict(field, {e: x for (e, c), x in row.items()
                                                            if c == comp})
                              for comp in range(r)))
        levels.append((b, echelonize(rows, r, w.u_lo, w.u_hi, draw(st.booleans()),
                                     field=field)))
    L = LayeredSubspace(field, r, w, tuple(levels), ())
    comps = [{} for _ in range(r)]
    for b, lvl in levels:
        for row in lvl.row_vectors():
            m = draw(st.integers(-2, 2))
            for c, p in enumerate(row):
                for e, x in p.coeffs:
                    comps[c][(e, b)] = comps[c].get((e, b), 0) + m * x.value
    stray = draw(st.booleans())
    if stray:
        a, b = draw(st.integers(w.u_lo, w.u_hi - 1)), draw(st.integers(w.t_lo, w.t_hi - 1))
        comp = comps[draw(st.integers(0, r - 1))]
        comp[(a, b)] = comp.get((a, b), 0) + draw(NONZERO)
    return L, tuple(Local2DElement.from_dict(field, comp) for comp in comps), stray


@settings(max_examples=300, deadline=None)
@given(non_monomial_levels_and_vector())
def test_layered_membership_on_non_monomial_levels(case):
    L, vec, stray = case
    verdict = layered_membership(L, vec)
    event(verdict.value)
    event("rows past the pivot" if any(len(row) > 1 for _b, lvl in L.levels for row in lvl.rows)
          else "monomial rows only")
    assert verdict is slicewise_membership(L, vec)
    if not stray:
        assert verdict is not Verdict.NOT_IN


SPAN_WINDOW = Window2D(-2, 2, -5, 5, 1, 1)


def with_level_row(L, b, row):
    """L with ``row`` (a LaurentPoly) added to the rows of level b."""
    lvl = L.level(b)
    new = echelonize(lvl.row_vectors() + [(row,)], 1, lvl.u_lo, lvl.u_hi, lvl.full_below,
                     field=L.field)
    return LayeredSubspace(L.field, L.r, L.window,
                           tuple((bb, new if bb == b else x) for bb, x in L.levels), L.generators)


def test_unwitnessed_rows_make_check_inconclusive():
    # u^1 at level 0 of A: u is in A but u * u = u^2 is not, and no witness
    # product can see it, so closure goes unverified on exactly that row
    pair = forward_krichever(make_datum("p2-line", 1), SPAN_WINDOW)
    rep = check_schur_pair(pair)
    assert rep["verdict"] == "pass" and rep["unwitnessed"] == [] and dense_closure(pair)
    bad = SchurPair(with_level_row(pair.algebra, 0, LaurentPoly.monomial(QQ, 1)), pair.module)
    rep = check_schur_pair(bad)
    assert not dense_closure(bad)
    assert (rep["verdict"], rep["subalgebra"], rep["module_closure"]) == (
        "inconclusive", "inconclusive", "pass")
    assert rep["unwitnessed"] == [{"side": "A", "b": 0, "pivot": [1, 1]}]
    assert rep["failures"] == []


def test_check_calls_membership_once_per_trusted_level_row(monkeypatch):
    # products are reduced straight from their terms, so membership runs only
    # in the span rule: once for each trusted level row it examines
    w = SPAN_WINDOW
    pair = forward_krichever(make_datum("p2-line", 1), w)
    trusted = sum(1 for L in (pair.algebra, pair.module)
                  for b in range(w.t_lo + w.m_t, w.t_trusted_hi)
                  for e, _c in L.level(b).pivots if w.u_lo + w.m_u <= e < w.u_trusted_hi)
    calls = []

    def counting_membership(W, vec):
        calls.append(W)
        return membership(W, vec)

    monkeypatch.setattr(schur, "membership", counting_membership)
    rep = check_schur_pair(pair)
    assert rep["verdict"] == "pass" and rep["tallies"]["checked"] > trusted > 0
    assert len(calls) == trusted


def test_witness_free_pair_names_every_trusted_row():
    pair = forward_krichever(make_datum("p2-line", 1), W_AC)
    bare = SchurPair(*(LayeredSubspace(L.field, L.r, L.window, L.levels, ())
                       for L in (pair.algebra, pair.module)))
    rep = check_schur_pair(bare)
    assert rep["verdict"] == "inconclusive" and rep["tallies"]["checked"] == 1
    named = Counter(entry["side"] for entry in rep["unwitnessed"])
    assert named == {"A": 30, "W": 34}


def test_a_failure_in_a_square_alone_fails_the_check():
    # u^0 added to A's level 1 puts t in A, but t * t = t^2 is not in level 2:
    # the square of witness #1 is the only product that leaves A
    w = Window2D(-6, 6, -12, 12, 2, 2)
    pair = forward_krichever(make_datum("p2-line", 0), w)
    levels = with_level_row(pair.algebra, 1, LaurentPoly.monomial(QQ, 0)).levels
    A = LayeredSubspace(QQ, 1, w, levels, ((Local2DElement.one(QQ),), (mono(0, 1),)))
    W = LayeredSubspace(QQ, 1, w, pair.module.levels, ())
    rep = check_schur_pair(SchurPair(A, W))
    assert (rep["verdict"], rep["subalgebra"]) == ("fail", "fail")
    assert rep["failures"] == ["A-product #1*#1 leaves A"]


def test_a_failure_in_the_last_module_witness_alone_fails_the_check(p2_pair):
    # u^1 added to W's level 0, with u^1 t^0 as the last W witness: its
    # products with the A witnesses u^-b t^b, b != 0, leave W, and no other
    # product does
    W = with_level_row(p2_pair.module, 0, LaurentPoly.monomial(QQ, 1))
    last = len(W.generators)
    W = LayeredSubspace(QQ, 1, W.window, W.levels, W.generators + ((mono(1, 0),),))
    rep = check_schur_pair(SchurPair(p2_pair.algebra, W))
    assert (rep["verdict"], rep["subalgebra"], rep["module_closure"]) == ("fail", "pass", "fail")
    leaving = [i for i, (g,) in enumerate(p2_pair.algebra.generators)
               for (a, b), _c in g.terms if a + b == 0 and b != 0]
    assert len(leaving) == 3
    assert rep["failures"] == [f"module product A#{i}*W#{last} leaves W" for i in leaving]


@st.composite
def mutated_pair(draw):
    """A built pair with a random trusted row added to a random level, or a witness dropped.

    An added row may come with its own witness t^b * row, so that ``check``
    must decide the new products instead of stopping at the span rule.
    """
    fld = draw(st.sampled_from([QQ, Field(7)]))
    w = SPAN_WINDOW
    pair = forward_krichever(make_datum("p2-line", draw(st.integers(0, 1))), w, fld)
    sides = {"A": pair.algebra, "W": pair.module}
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from("AW"))
        L = sides[name]
        if draw(st.booleans()):
            b = draw(st.integers(w.t_lo, w.t_hi - 1))
            exps = draw(st.lists(st.integers(w.u_lo + w.m_u, w.u_trusted_hi - 1),
                                 min_size=1, max_size=3, unique=True))
            coeffs = {a: draw(st.sampled_from([-2, -1, 1, 2, 3])) for a in exps}
            L = with_level_row(L, b, LaurentPoly.from_dict(fld, coeffs))
            if draw(st.booleans()):
                witness = Local2DElement.from_dict(fld, {(a, b): c for a, c in coeffs.items()})
                L = LayeredSubspace(fld, 1, w, L.levels, L.generators + ((witness,),))
        elif L.generators:
            i = draw(st.integers(0, len(L.generators) - 1))
            L = LayeredSubspace(fld, 1, w, L.levels, L.generators[:i] + L.generators[i + 1:])
        sides[name] = L
    return SchurPair(sides["A"], sides["W"])


@settings(max_examples=200, deadline=None)
@given(mutated_pair())
def test_check_passes_only_pairs_the_dense_closure_oracle_passes(pair):
    rep = check_schur_pair(pair)
    event(f"{rep['verdict']}, unwitnessed rows: {bool(rep['unwitnessed'])}")
    if rep["verdict"] == "pass":
        assert dense_closure(pair)


def regrow(pair, datum, w):
    """The pair at the larger window w: forward levels of w, the pair's own
    witnesses in their order, then the forward witnesses of w not among them."""
    grown = forward_krichever(datum, w, pair.algebra.field)
    sides = []
    for L, F in ((pair.algebra, grown.algebra), (pair.module, grown.module)):
        extra = tuple(g for g in F.generators if g not in L.generators)
        sides.append(LayeredSubspace(L.field, L.r, w, F.levels, L.generators + extra))
    return SchurPair(*sides, meta=pair.meta)


def restrict(pair, datum, w):
    """The pair at the smaller window w: forward levels of w and the pair's
    witnesses, in their order, whose every term lies in w's interior."""
    small = forward_krichever(datum, w, pair.algebra.field)
    inner = w.interior()

    def inside(vec):
        return all(inner.u_lo <= a < inner.u_hi and inner.t_lo <= b < inner.t_hi
                   for x in vec for (a, b), _c in x.terms)

    sides = [LayeredSubspace(L.field, L.r, w, F.levels, tuple(g for g in L.generators if inside(g)))
             for L, F in ((pair.algebra, small.algebra), (pair.module, small.module))]
    return SchurPair(*sides, meta=pair.meta)


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
@pytest.mark.parametrize("kind,twist", [("p2-line", 0), ("p2-line", 1), ("nilpotent", 0),
                                        ("even-variant", 0)])
def test_verdict_survives_window_growth(kind, twist, planted):
    # ROADMAP item 9 on forward pairs: a verdict holds when the window grows,
    # and so does every failure label (the witness indices are kept)
    datum = make_datum(kind, twist)
    pair = forward_krichever(datum, W_AC)
    if planted:  # u^1 t^0 is above level 0 of A
        A = pair.algebra
        pair = SchurPair(LayeredSubspace(A.field, 1, A.window, A.levels,
                                         A.generators + ((mono(1, 0),),)), pair.module)
    small = check_schur_pair(pair)
    big = check_schur_pair(regrow(pair, datum, W_GROWN))
    assert big["verdict"] == small["verdict"]
    assert set(small["failures"]) <= set(big["failures"])
    assert (small["verdict"] == "fail") == bool(small["failures"])
    assert small["verdict"] == "fail" or not planted


@pytest.mark.parametrize("twist,planted,seed", [(0, False, 1), (1, False, 2), (0, True, 3),
                                                (2, True, 4)])
def test_verdict_survives_window_growth_on_perturbed_pairs(twist, planted, seed):
    # ROADMAP item 9 on non-monomial witnesses over F_(2^31-1)
    pair = perturbed_pair(random.Random(seed), twist, planted)
    small = check_schur_pair(pair)
    big = check_schur_pair(regrow(pair, make_datum("p2-line", twist),
                                  Window2D(-7, 7, -14, 14, 4, 4)))
    assert small["verdict"] == ("fail" if planted else "pass")
    assert big["verdict"] == small["verdict"]
    assert set(small["failures"]) <= set(big["failures"])


@pytest.mark.parametrize("kind,twist,escaped", [("p2-line", -1, 205), ("p2-line", 0, 229),
                                                ("p2-line", 1, 253), ("nilpotent", 0, 155)])
def test_escapes_resolve_at_a_larger_window(kind, twist, escaped):
    # ROADMAP item 9: at margins 0 products escape the small window, and the
    # inconclusive verdict they cause resolves once the window grows
    datum = make_datum(kind, twist)
    pair = forward_krichever(datum, Window2D(-2, 2, -4, 4, 0, 0))
    small = check_schur_pair(pair)
    assert (small["verdict"], small["tallies"]["escaped"]) == ("inconclusive", escaped)
    big = check_schur_pair(regrow(pair, datum, W_AC))
    assert (big["verdict"], big["tallies"]["escaped"]) == ("pass", 0)


@pytest.mark.parametrize("twist,seed", [(0, 1), (1, 2), (2, 5), (3, 6)])
def test_restriction_to_a_smaller_window_never_fails(twist, seed):
    # ROADMAP item 9: a pass pair restricted to a smaller admissible window
    # loses witnesses and trusted rows, which may leave rows unwitnessed,
    # but no product of the witnesses it keeps may leave the smaller pair
    datum = make_datum("p2-line", twist)
    pair = perturbed_pair(random.Random(seed), twist, False)
    assert check_schur_pair(pair)["verdict"] == "pass"
    for w in (W_AC, Window2D(-5, 5, -10, 10, 2, 2), Window2D(-4, 4, -8, 8, 1, 1)):
        rep = check_schur_pair(restrict(pair, datum, w))
        assert rep["verdict"] != "fail" and rep["failures"] == []


SEEN_SCRIPT = """
import json
from ribbonlab import schur
from ribbonlab.geometry import forward_krichever, make_datum
from ribbonlab.local2d import Window2D

routers = []


class Captured(schur.Router):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        routers.append(self)


schur.Router = Captured
schur.check_schur_pair(forward_krichever(make_datum("p2-line", 1),
                                         Window2D(-8, 8, -16, 16, 4, 4)))
print(json.dumps([[sorted(r._seen), len(r._memo)] for r in routers]))
"""


def test_router_state_does_not_depend_on_the_hash_seed():
    # no memo key holds a string, so which repeated product is stored first,
    # and with it every router's state, is the same in every process
    src = str(Path(schur.__file__).parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", SEEN_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    assert [n for _seen, n in outs[0]] == [378, 401]  # memo entries per side
