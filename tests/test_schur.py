import json
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from fixtures import pair_equal_in_window
from oracles import (brute_membership, graded_dimension, graded_slice,
                     random_windowed_rows, slicewise_membership)
from ribbonlab.errors import (ConfigError, FieldMismatchError,
                              RangeViolationError, SupportViolationError,
                              WindowMismatchError, WindowTooSmallError)
from ribbonlab.fredholm import Verdict, echelonize, membership
from ribbonlab.geometry import make_datum, forward_krichever
from ribbonlab.local2d import Local2DElement, Window2D, ord_t_vector
from ribbonlab.schur import (LayeredSubspace, Router, SchurPair, _merge, _route_check,
                             check_schur_pair, hilbert_function, layered_membership,
                             point_ideal_check, scalar_times_vector)
from ribbonlab.series import QQ, Field, LaurentPoly

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
    assert layered_membership(p2_pair.algebra, Local2DElement.zero(QQ)) is Verdict.IN


def test_layered_membership_reduction_oracle(p2_pair):
    # level-0 space is span{u^a : a <= 0}, so u t^0 cannot reduce
    assert layered_membership(p2_pair.algebra, mono(1, 0)) is Verdict.NOT_IN
    assert layered_membership(p2_pair.algebra, mono(-1, 0) + mono(-3, 1)) is Verdict.IN


def test_layered_membership_margin_exhaustion(p2_pair):
    x = mono(-5, 2) + mono(-5, 3)  # entirely at t-orders >= t_hi - m_t
    assert layered_membership(p2_pair.algebra, x) is Verdict.INCONCLUSIVE


def test_layered_membership_support_violation(p2_pair):
    with pytest.raises(SupportViolationError):
        layered_membership(p2_pair.algebra, mono(-9, 0))
    with pytest.raises(SupportViolationError):
        layered_membership(p2_pair.algebra, mono(0, -5))


def test_check_passes_on_plane_pair(p2_pair):
    rep = check_schur_pair(p2_pair)
    assert rep.verdict == "pass"
    assert rep.escaped == 0
    by_b = {row.b: row.index_a for row in rep.levels}
    for b, idx in by_b.items():
        assert idx == 1 - b  # chi of the twist -b piece on the line


def test_check_fails_with_injected_generator(p2_pair):
    obj = p2_pair.to_json()
    obj["A"]["generators"].append([mono(1, 0).to_json(component=1)])
    rep = check_schur_pair(SchurPair.from_json(obj))
    assert rep.subalgebra == "fail"
    assert rep.verdict == "fail"


def test_check_inconclusive_when_products_escape_window():
    w = Window2D(-2, 2, -4, 4, 0, 0)
    rep = check_schur_pair(forward_krichever(make_datum("p2-line", 0), w))
    assert rep.verdict == "inconclusive"
    assert rep.escaped > 0


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


def test_point_ideal_passes_on_plane_pair(p2_pair):
    rep = point_ideal_check(p2_pair.algebra, 6)
    assert rep.ok
    assert rep.dims == [n + 1 for n in range(7)]
    assert rep.jumps == [1] * 6


def test_point_ideal_gap_fails():
    w = Window2D(0, 1, -8, 8, 0, 2)
    gap_level = echelonize(
        [(LaurentPoly.from_dict(QQ, {a: 1}),) for a in list(range(-8, -1)) + [0]],
        1, -8, 8, True, field=QQ)
    L = LayeredSubspace(QQ, 1, w, ((0, gap_level),), ())
    rep = point_ideal_check(L, 4)
    assert not rep.ok
    # dimension oracle: counts of {a : -n <= a <= 0, a != -1}
    assert rep.dims == [1, 1, 2, 3, 4]
    assert rep.jumps == [0, 1, 1, 1]


def test_point_ideal_n_zero_boundary(p2_pair):
    rep = point_ideal_check(p2_pair.algebra, 0)
    assert rep.ok and rep.dims == [1] and rep.jumps == []


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


def test_layered_requires_every_level():
    w = Window2D(0, 2, -2, 2, 0, 0)
    lvl = monomial_level(0, w)
    with pytest.raises(ConfigError):
        LayeredSubspace(QQ, 1, w, ((0, lvl),), ())


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
    assert layered_membership(L, g) is Verdict.NOT_IN
    assert layered_membership(L, mono(0, 0)) is Verdict.IN


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
        verdict = layered_membership(L, x)
        if verdict is Verdict.IN:
            for b in sorted({b for (_a, b), _c in x.terms}):
                lvl = L.level(b)
                assert brute_membership(lvl.row_vectors(), (x.t_slice(b),),
                                        QQ, 1, w.u_lo, w.u_hi)


def test_pair_json_roundtrip(p2_pair):
    obj = json.loads(json.dumps(p2_pair.to_json(), sort_keys=True))
    assert pair_equal_in_window(p2_pair, SchurPair.from_json(obj))


def test_prime_field_pipeline():
    from ribbonlab.series import Field
    f7 = Field(7)
    pair = forward_krichever(make_datum("p2-line", 1), W_AC, f7)
    rep = check_schur_pair(pair)
    assert rep.verdict == "pass"
    assert {row.b: row.index_w for row in rep.levels} == {b: 2 - b for b in range(-2, 2)}
    assert [hilbert_function(pair.algebra, 1, n) for n in range(5)] == [1, 2, 3, 4, 5]
    assert point_ideal_check(pair.algebra, 5).ok


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
    got = check_schur_pair(pair).to_json()
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
    got = check_schur_pair(pair).to_json()
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
    got = check_schur_pair(pair).to_json()
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
        assert hash(("L", (x.terms,))) == hash(("L", (y.terms,)))
        assert [_route_check(L, (x,)), _route_check(L, (y,))] == ["in", "not-in"]
        for order in ((x, y), (y, x)):
            route = Router(L=L)
            for _ in range(3):
                for p in order:
                    assert route("L", (p,)) == _route_check(L, (p,))


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
    assert (rep.subalgebra, rep.fredholm, rep.verdict) == ("pass", "inconclusive", "inconclusive")
    assert rep.failures == []
    level[1]["full_below"] = False
    rep = check_schur_pair(SchurPair.from_json(obj))
    assert (rep.fredholm, rep.verdict) == ("fail", "fail")
    assert "level 1 of A is not cocompact" in rep.failures


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
    calls = {"from_dict": 0, "scalar": 0}
    from_dict, scalar = Local2DElement.from_dict, Field.scalar

    def counting_from_dict(field, d):
        calls["from_dict"] += 1
        return from_dict(field, d)

    def counting_scalar(self, value):
        calls["scalar"] += 1
        return scalar(self, value)

    monkeypatch.setattr(Local2DElement, "from_dict", staticmethod(counting_from_dict))
    monkeypatch.setattr(Field, "scalar", counting_scalar)
    assert layered_membership(L, x) is Verdict.IN
    assert calls == {"from_dict": 0, "scalar": 0}
    monkeypatch.undo()
    assert lift_and_subtract(L, (x,)) is Verdict.IN
    with pytest.raises(FieldMismatchError):
        layered_membership(L, Local2DElement.from_dict(Field(7), {(0, 0): 1}))


F_MERSENNE = Field(2 ** 31 - 1)
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
