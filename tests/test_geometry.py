import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fixtures import contains_monomial, random_local2d
from oracles import (axiom_scan, chi, nilpotent_product, nodal_nf_mul,
                     section_monomial_allowed, values)
from ribbonlab.errors import (ConfigError, DegreeBoundError,
                              UnsupportedDatumError, WindowTooSmallError)
from ribbonlab.fredholm import Verdict, echelonize
from ribbonlab.geometry import (PROJECTIVE_KINDS, NodalCubicRing,
                                forward_krichever, level_index_table,
                                make_datum, noncoherent_chain, order_group)
from ribbonlab.local2d import Local2DElement, Window2D
from ribbonlab.schur import (LayeredSubspace, SchurPair, check_schur_pair,
                             layered_membership)
from ribbonlab.series import QQ, Field

W_AC = Window2D(-4, 4, -8, 8, 2, 2)
W_WIDE = Window2D(-4, 4, -12, 12, 2, 2)


def test_monomial_criterion_matches_pole_divisor_oracle():
    # the plane criterion a + b <= m must be rederived from the divisor data
    for m in range(0, 4):
        g = make_datum("p2-line", m)
        for a in range(-10, 10):
            for b in range(-6, 6):
                assert contains_monomial(g, a, b, "W") == section_monomial_allowed(a, b, m)
                assert contains_monomial(g, a, b, "A") == section_monomial_allowed(a, b, 0)


def test_forward_levels_match_criterion():
    pair = forward_krichever(make_datum("p2-line", 0), W_AC)
    for b in range(W_AC.t_lo, W_AC.t_hi):
        want = tuple((a, 0) for a in range(W_AC.u_lo, W_AC.u_hi)
                     if section_monomial_allowed(a, b, 0))
        assert pair.algebra.level(b).pivots == want


def test_forward_twist_two_module_levels():
    pair = forward_krichever(make_datum("p2-line", 2), W_AC)
    for b in range(W_AC.t_lo, W_AC.t_hi):
        want = tuple((a, 0) for a in range(W_AC.u_lo, W_AC.u_hi)
                     if section_monomial_allowed(a, b, 2))
        assert pair.module.level(b).pivots == want


def test_forward_level_one_slice():
    pair = forward_krichever(make_datum("p2-line", 0), W_AC)
    assert pair.algebra.level(1).pivots == tuple((a, 0) for a in range(-8, 0))


def test_forward_rejects_affine_datum():
    with pytest.raises(UnsupportedDatumError):
        forward_krichever(make_datum("nodal-cubic"), W_AC)


def test_order_group_rejects_affine_datum():
    with pytest.raises(UnsupportedDatumError, match="nodal-cubic has no section levels"):
        order_group(make_datum("nodal-cubic"), W_AC)


def test_forward_rejects_window_that_hides_levels():
    with pytest.raises(ConfigError):
        forward_krichever(make_datum("p2-line", 0), Window2D(-4, 4, -1, 3, 0, 0))


def test_forward_rejects_window_above_a_level():
    # level 0 of A is u^{<= 0}, and this u-window starts at 2
    with pytest.raises(ConfigError, match="level 0 lives entirely below the u-window"):
        forward_krichever(make_datum("p2-line", 0), Window2D(-4, 4, 2, 8, 1, 1))


def test_level_index_table_riemann_roch():
    for m in range(0, 4):
        for row in level_index_table(make_datum("p2-line", m), W_WIDE):
            b = row["b"]
            assert row["index_W"] == chi(m - b)
            assert row["index_A"] == chi(-b)


def test_level_index_examples():
    t0 = {row["b"]: row for row in level_index_table(make_datum("p2-line", 0), W_WIDE)}
    assert t0[0]["index_W"] == 1
    assert t0[2]["index_W"] == -1
    t3 = {row["b"]: row for row in level_index_table(make_datum("p2-line", 3), W_WIDE)}
    assert t3[1]["index_W"] == 3


def test_level_index_marks_margin_contact():
    # at the narrow window the deepest twisted level pokes into the u-margin
    tab = level_index_table(make_datum("p2-line", 3), W_AC)
    row = next(r for r in tab if r["b"] == -4)
    assert row["index_W"] is None and row["marker_W"] == "window-too-small"


def test_order_group_three_regimes():
    assert order_group(make_datum("p2-line", 0), W_AC)["d"] == 1
    assert order_group(make_datum("even-variant"), W_AC)["d"] == 2
    og = order_group(make_datum("nilpotent"), W_AC)
    assert og["d"] == 0 and og["window_limited"]


def test_order_group_witnesses():
    og = order_group(make_datum("p2-line", 0), W_AC)
    assert og["witness"] == [[-1, 1], [1, -1]]
    og2 = order_group(make_datum("even-variant"), W_AC)
    assert og2["witness"] == [[-2, 2], [2, -2]]


def test_order_group_stable_under_window_growth():
    for kind in ("p2-line", "even-variant"):
        small = order_group(make_datum(kind), W_AC)
        big = order_group(make_datum(kind), Window2D(-8, 8, -16, 16, 2, 2))
        assert small["d"] == big["d"] and not big["window_limited"]


def test_schur_checks_pass_on_admissible_windows():
    # margins sized past the witness radius: quarter-width margins
    cases = [(half, kind, twist)
             for half in (4, 6, 8)
             for kind, twist in (("p2-line", 0), ("p2-line", 1), ("p2-line", 3),
                                 ("nilpotent", 0))]
    cases += [(12, "p2-line", 0), (12, "nilpotent", 0)]  # width-24 windows
    for half, kind, twist in cases:
        w = Window2D(-half, half, -2 * half, 2 * half, half // 2, half // 2)
        rep = check_schur_pair(forward_krichever(make_datum(kind, twist), w))
        assert rep["verdict"] == "pass", (kind, twist, half, rep["failures"])


def test_even_variant_fails_per_level_fredholm():
    # the synthetic even variant has zero odd slices: genuinely not a Schur pair
    rep = check_schur_pair(forward_krichever(make_datum("even-variant"), W_AC))
    assert rep["fredholm"] == "fail" and rep["verdict"] == "fail"


def test_validate_ribbon_axioms_plane():
    g = make_datum("p2-line", 0)
    rep = axiom_scan(g, forward_krichever(g, W_AC).algebra)
    assert rep["verdict"] == "pass" and rep["filtered_products"]["vanished"] == 0


def test_validate_ribbon_axioms_nilpotent_relations():
    g = make_datum("nilpotent")
    rep = axiom_scan(g, forward_krichever(g, W_AC).algebra)
    assert rep["unit_at_level_zero"] and rep["filtered_products"]["pass"]
    assert rep["torsion_free_levels"]["pass"]
    assert rep["filtered_products"]["vanished"] > 0  # t_i t_j = 0 away from level zero


def corrupt_level_zero(layer):
    """The layer with the below-window tail of level 0 dropped."""
    levels = []
    for b, lvl in layer.levels:
        if b == 0:
            lvl = echelonize(lvl.row_vectors(), 1, lvl.u_lo, lvl.u_hi, False, field=QQ)
        levels.append((b, lvl))
    return LayeredSubspace(QQ, 1, layer.window, tuple(levels), layer.generators)


def test_validate_ribbon_axioms_corrupted_level():
    g = make_datum("p2-line", 0)
    corrupted = corrupt_level_zero(forward_krichever(g, W_AC).algebra)
    rep = axiom_scan(g, corrupted)
    assert not rep["torsion_free_levels"]["pass"] and 0 in rep["torsion_free_levels"]["bad_levels"]


def bench_window(h):
    return Window2D(-h, h, -2 * h, 2 * h, h // 2, h // 2)


@pytest.mark.parametrize("h", [4, 6, 8])
@pytest.mark.parametrize("kind,twist", [("p2-line", 0), ("p2-line", 2), ("nilpotent", 0),
                                        ("even-variant", 0)])
def test_validate_ribbon_axioms_matches_unrouted_scan(kind, twist, h):
    # check and the axiom scan share no engine; only their overall verdicts are compared
    g = make_datum(kind, twist)
    pair = forward_krichever(g, bench_window(h))
    got = axiom_scan(g, pair.algebra)
    # the even variant's odd levels are zero, without a below-window tail;
    # check fails it on the Fredholm marker instead
    assert got["verdict"] == ("fail" if kind == "even-variant" else "pass")
    assert check_schur_pair(pair)["verdict"] == got["verdict"]


def test_validate_ribbon_axioms_matches_unrouted_scan_on_broken_layers():
    g = make_datum("p2-line", 0)
    pair = forward_krichever(g, W_AC)
    layer = pair.algebra
    corrupted = corrupt_level_zero(layer)
    got = axiom_scan(g, corrupted)
    assert got["torsion_free_levels"] == {"pass": False, "bad_levels": [0]}
    # check's subalgebra is inconclusive here; its Fredholm marker fails
    rep = check_schur_pair(SchurPair(corrupted, pair.module))
    assert rep["verdict"] == got["verdict"] == "fail"

    injected = LayeredSubspace(QQ, 1, W_AC, layer.levels,
                               layer.generators + ((Local2DElement.monomial(QQ, 1, 0),),))
    got = axiom_scan(g, injected)
    assert got["filtered_products"] == {"pass": False, "checked": 476, "vanished": 0,
                                        "deferred": 15, "escaped": 0}
    rep = check_schur_pair(SchurPair(injected, pair.module))
    assert rep["verdict"] == got["verdict"] == "fail"


@pytest.mark.parametrize("h", [4, 6, 8])
@pytest.mark.parametrize("kind,twist", [(kind, 0) for kind in PROJECTIVE_KINDS]
                         + [("p2-line", 2)])
def test_forward_witnesses_lie_in_their_sides(kind, twist, h):
    # forward_krichever takes witnesses and levels from the same level_bound
    # and does not validate at run time; this keeps that guarantee checked
    pair = forward_krichever(make_datum(kind, twist), bench_window(h))
    for side in (pair.algebra, pair.module):
        side.validate_witnesses()
        assert all(layered_membership(side, vec) is Verdict.IN for vec in side.generators)


def test_nilpotent_datum_product_relations():
    g = make_datum("nilpotent")
    t = Local2DElement.monomial(QQ, 0, 1)
    t_inv = Local2DElement.monomial(QQ, 0, -1)
    one = Local2DElement.one(QQ)
    assert not g.product(t, t_inv)
    assert g.product(one, t) == t
    mixed = one + t
    assert g.product(mixed, mixed) == one + t + t  # t*t dies, cross terms survive


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from([QQ, Field(7), Field(2**31 - 1)]))
def test_datum_products_match_term_pair_oracle(seed, field):
    rng = random.Random(seed)
    x, y = (random_local2d(rng, field, lo=-2, hi=2, max_terms=6) for _ in range(2))
    assume(len(x.terms) > 1 and len(y.terms) > 1)
    assert values(make_datum("nilpotent").product(x, y).terms) == nilpotent_product(x, y)
    assert make_datum("p2-line").product(x, y) == x * y


def test_nodal_ring_confluence_on_basis():
    ring = NodalCubicRing(6)
    for m1 in ring.basis(3):
        for m2 in ring.basis(3):
            for m3 in ring.basis(3):
                left = nodal_nf_mul(ring, nodal_nf_mul(ring, {m1: 1}, {m2: 1}), {m3: 1})
                right = nodal_nf_mul(ring, {m1: 1}, nodal_nf_mul(ring, {m2: 1}, {m3: 1}))
                assert left == right


def test_nodal_ideal_dims():
    # oracle: normal forms of positive degree span J_Q, degree >= 2 span J_Q^2
    for D in (2, 3, 4, 6, 8):
        ring = NodalCubicRing(D)
        assert ring.point_ideal_dim() == 2 * D
        assert ring.point_ideal_sq_dim() == 2 * D - 2
        assert ring.point_ideal_sq_dim() < ring.point_ideal_dim()


def test_noncoherent_chain_step_is_ideal_gap():
    ring = NodalCubicRing(6)
    dims = noncoherent_chain(ring, 2, -4, 1)["dims"]
    assert dims[1] - dims[0] == ring.point_ideal_dim() - ring.point_ideal_sq_dim()
    assert dims[1] - dims[0] > 0


def test_noncoherent_chain_strictly_increasing_triple():
    dims = noncoherent_chain(NodalCubicRing(6), 3, -4, 1)["dims"]
    assert len(dims) == 3
    assert dims[0] < dims[1] < dims[2]
    steps = {b - a for a, b in zip(dims, dims[1:])}
    assert len(steps) == 1  # constant difference at fixed degree bound


def test_noncoherent_chain_degree_too_small():
    with pytest.raises(DegreeBoundError):
        noncoherent_chain(NodalCubicRing(1), 2, -4, 1)
    with pytest.raises(DegreeBoundError):
        noncoherent_chain(NodalCubicRing(2), 2, -4, 1)


def test_nodal_cubic_refuses_a_bound_or_chain_below_one():
    with pytest.raises(DegreeBoundError, match="degree bound must be at least 1"):
        NodalCubicRing(0)
    with pytest.raises(DegreeBoundError, match="k_max must be positive"):
        noncoherent_chain(NodalCubicRing(6), 0, -4, 1)


def test_noncoherent_chain_window_too_small():
    with pytest.raises(WindowTooSmallError):
        noncoherent_chain(NodalCubicRing(6), 4, -4, 1)


def test_datum_validation():
    with pytest.raises(ConfigError):
        make_datum("p3-plane")
    with pytest.raises(ConfigError):
        make_datum("nilpotent", twist=2)
    assert make_datum("even-variant").synthetic
    assert not make_datum("p2-line").synthetic
    assert make_datum("p2-line").selfint == 1
    assert make_datum("nilpotent").selfint == 0


def test_meta_labels_synthetic_in_outputs():
    pair = forward_krichever(make_datum("even-variant"), W_AC)
    assert pair.meta["synthetic"] is True
