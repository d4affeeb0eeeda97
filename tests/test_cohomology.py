import random

import pytest

from oracles import rr_h0, rr_h1
from ribbonlab import _linalg
from ribbonlab.cohomology import cech_line_bundle, picard_dimension, ribbon_cohomology
from ribbonlab.errors import (RangeViolationError, TruncationBoundError,
                              UnsupportedDatumError)
from ribbonlab.fredholm import fredholm_index
from ribbonlab.geometry import forward_krichever, make_datum
from ribbonlab.local2d import Window2D
from ribbonlab.series import QQ, Field

F31 = Field(31)


def p2_line_degrees(twist, depth):
    """W-side level degrees d_0..d_depth of the p2-line datum at ``twist``."""
    g = make_datum("p2-line", twist)
    return [g.level_bound(b, "W") for b in range(depth + 1)]


def test_cech_examples():
    assert cech_line_bundle(0, 8) == (1, 0)
    assert cech_line_bundle(-2, 8) == (0, 1)
    assert cech_line_bundle(3, 8) == (4, 0)


def test_cech_matches_riemann_roch_sweep():
    B = 8
    # -1 is stored as 1, 6 and p - 1 in the prime fields: the -1 chart's pivots take each form
    for fld in (QQ, Field(2), Field(7), Field(2 ** 31 - 1)):
        for d in range(-6, 7):
            assert cech_line_bundle(d, B, fld) == (rr_h0(d), rr_h1(d))


def test_cech_elimination_coerces_nothing(monkeypatch):
    """Unit columns at +1 and -1, shaped as ``cech_line_bundle``'s at d = 1, B = 8,
    are eliminated without ``Field.scalar``: a -1 pivot is its own inverse."""
    d, B = 1, 8
    plus, minus = QQ.one, -QQ.one
    columns = [{a: plus} for a in range(B + 1)] + [{d - a: minus} for a in range(B + 1)]
    calls = []
    scalar = Field.scalar

    def counting_scalar(self, value):
        calls.append(value)
        return scalar(self, value)

    monkeypatch.setattr(Field, "scalar", counting_scalar)
    rank = len(_linalg.echelon(columns))
    monkeypatch.undo()
    assert calls == []
    assert (len(columns) - rank, 2 * B - d + 1 - rank) == (rr_h0(d), rr_h1(d))


def test_cech_bound_too_small():
    with pytest.raises(TruncationBoundError):
        cech_line_bundle(5, 6)
    with pytest.raises(TruncationBoundError):
        cech_line_bundle(-7, 8)


def test_serre_duality_symmetry():
    rng = random.Random(515)
    for _ in range(1000):
        d = rng.randint(-10, 10)
        B = max(abs(d), abs(-2 - d)) + 2 + rng.randint(0, 2)
        fld = QQ if rng.random() < 0.3 else F31
        h0, h1 = cech_line_bundle(d, B, fld)
        dual_h0, dual_h1 = cech_line_bundle(-2 - d, B, fld)
        assert (h0, h1) == (dual_h1, dual_h0)


def test_ribbon_cohomology_depth_two():
    rep = ribbon_cohomology(p2_line_degrees(0, 2), 8)
    assert (rep["h0"], rep["h1"]) == (1, 1)
    assert rep["agreement"] and rep["transition_surjective"]
    assert [lv["d"] for lv in rep["levels"]] == [0, -1, -2]


def test_ribbon_cohomology_depth_five():
    rep = ribbon_cohomology(p2_line_degrees(0, 5), 8)
    assert (rep["h0"], rep["h1"]) == (1, 10)
    assert rep["agreement"] and rep["transition_surjective"]


def test_ribbon_cohomology_single_level_matches_line_bundle():
    rep = ribbon_cohomology([0], 8)
    assert (rep["h0"], rep["h1"]) == cech_line_bundle(0, 8) == (1, 0)


def test_ribbon_cohomology_transitions_deep_stacks():
    for depth in range(1, 9):
        rep = ribbon_cohomology(p2_line_degrees(0, depth), 12)
        assert rep["agreement"] and rep["transition_surjective"]


def test_ribbon_cohomology_bound_check():
    with pytest.raises(TruncationBoundError):
        ribbon_cohomology(p2_line_degrees(0, 7), 8)


def test_ribbon_cohomology_matches_riemann_roch_oracle():
    # level j of the twist-T stack is the line bundle of twist d = T - j
    for fld in (QQ, F31):
        for twist in range(-3, 4):
            for depth in range(9):
                ds = [twist - j for j in range(depth + 1)]
                tight = max(abs(d) for d in ds) + 2
                for B in (tight, tight + 3):
                    rep = ribbon_cohomology(p2_line_degrees(twist, depth), B, fld)
                    assert rep["levels"] == [{"d": d, "h0": rr_h0(d), "h1": rr_h1(d)} for d in ds]
                    assert (rep["h0"], rep["h1"]) == (sum(rr_h0(d) for d in ds),
                                                sum(rr_h1(d) for d in ds))


def test_cech_euler_characteristic_is_the_pair_level_index():
    # Riemann-Roch on P^1 from both sides of the link: h0 - h1 of the Cech
    # complex at a level degree equals the Fredholm index of that level of
    # the forward pair, on W and on A
    w = Window2D(-6, 6, -12, 12, 3, 3)
    bs = range(w.t_lo + w.m_t, w.t_hi - w.m_t)
    for twist in range(-2, 4):
        g = make_datum("p2-line", twist)
        pair = forward_krichever(g, w)
        for side, L in (("W", pair.module), ("A", pair.algebra)):
            rep = ribbon_cohomology([g.level_bound(b, side) for b in bs], 12)
            for b, lv in zip(bs, rep["levels"]):
                assert lv["h0"] - lv["h1"] == fredholm_index(L.level(b), w.m_u)


def test_picard_dimensions():
    g = make_datum("p2-line", 0)
    assert picard_dimension(g, 1, 8)["dim"] == 0
    assert picard_dimension(g, 3, 8)["dim"] == 3
    rep = picard_dimension(g, 5, 8)
    assert rep["dim"] == 10
    assert rep["d"] == -1
    assert rep["h0_vanishing"]


def test_picard_increments_are_per_level_cech():
    g = make_datum("p2-line", 0)
    prev = 0
    for i in range(1, 7):
        cur = picard_dimension(g, i, 10)["dim"]
        assert cur - prev == rr_h1(-i) == i - 1
        prev = cur


def test_picard_rejects_other_data():
    with pytest.raises(UnsupportedDatumError):
        picard_dimension(make_datum("nilpotent"), 2, 8)
    with pytest.raises(RangeViolationError):
        picard_dimension(make_datum("p2-line"), 0, 8)
