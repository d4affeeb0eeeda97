"""The oracles and the label verifier stand apart from the library's arithmetic.

The oracles of ``oracles.py`` must return with every ``Scalar`` operator and
``Field.scalar`` disabled, and ``fail_labels.confirm`` must confirm exactly
the membership labels ``check`` reports, from the pair file alone.
"""

import json
import random
from fractions import Fraction

from fail_labels import GENERATOR, PRODUCT, confirm
from fixtures import t_slice
from oracles import (axiom_scan, brute_index, brute_membership, dense_closure, dense_rank,
                     dense_rref, graded_dimension, local2d_reference, nilpotent_product,
                     nodal_nf_mul, random_windowed_rows, row_scan_reduce, slicewise_membership,
                     t_slice_reference, values)
from perturbed import F_MERSENNE, perturbed_pair
from ribbonlab import _linalg
from ribbonlab.fredholm import Verdict, echelonize, fredholm_index, membership
from ribbonlab.geometry import NodalCubicRing, make_datum
from ribbonlab.local2d import Local2DElement, Window2D
from ribbonlab.schur import (LayeredSubspace, Router, SchurPair, check_schur_pair,
                             hilbert_function, layered_membership, scalar_times_vector)
from ribbonlab.series import QQ, Field, Scalar

TRACED = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__",
          "inverse")


def guard_inputs(fld):
    """A random layered subspace with two witnesses, one of its levels and a vector, over
    ``fld``, the sparse rows of that level and the vector, and the library's answers."""
    rng = random.Random(5)  # the vector lies in the level over F_(2^31 - 1) only
    w = Window2D(-2, 3, -4, 4, 1, 1)
    levels = tuple((b, echelonize(random_windowed_rows(rng, fld, 1, w.u_lo, w.u_trusted_hi, 3),
                                  1, w.u_lo, w.u_hi, True, field=fld))
                   for b in range(w.t_lo, w.t_hi))
    x = Local2DElement.from_dict(fld, {(0, 0): 1, (-1, 1): 3, (1, 1): -2})
    y = Local2DElement.from_dict(fld, {(0, 1): 5, (2, 0): Fraction(1, 2), (-3, 2): 2 ** 30})
    L = LayeredSubspace(fld, 1, w, levels, ((x,), (y,)))
    W = L.level(0)
    v = random_windowed_rows(rng, fld, 1, w.u_lo, w.u_hi, 1)[0]
    rows = [dict(row) for row in W.rows] + [{(e, 0): c for e, c in v[0].coeffs}]
    want = {"rref": [values(row.items()) for row in _linalg.echelon(rows)],
            "remainder": values(_linalg.reduce_vector(rows[-1], W.pivot_rows).items()),
            "+": values((x + y).terms), "-": values((x - y).terms), "*": values((x * y).terms),
            "nilpotent": values(make_datum("nilpotent").product(x, y).terms),
            "slice": values(t_slice(x, 1).coeffs), "layered": layered_membership(L, (x,)),
            "membership": membership(W, v) is Verdict.IN, "index": fredholm_index(W),
            "hilbert": hilbert_function(L, 2, 1)}
    return L, W, v, rows, want


def test_no_oracle_does_scalar_arithmetic(monkeypatch):
    cases = [(fld, *guard_inputs(fld)) for fld in (QQ, Field(13), F_MERSENNE)]

    def refuse(*_args):
        raise AssertionError("an oracle reached the library's scalar arithmetic")

    for name in TRACED:
        monkeypatch.setattr(Scalar, name, refuse)
    monkeypatch.setattr(Field, "scalar", refuse)
    for fld, L, W, v, rows, want in cases:
        p, (x,), (y,) = fld.p, *L.generators
        assert dense_rank([[1, 2, 0], [2, 4, 0], [0, 0, 3]], p) == 2
        assert dense_rref(rows, p) == want["rref"]
        assert row_scan_reduce(rows[-1], rows[:-1], p) == want["remainder"]
        for op in "+-*":
            assert local2d_reference(x, y, op) == want[op]
        assert nilpotent_product(x, y) == want["nilpotent"]
        assert t_slice_reference(x, 1) == want["slice"]
        assert nodal_nf_mul(NodalCubicRing(4, fld), {(1, 1): 2, (0, 0): 1}, {(0, 1): 3}) == {
            (4, 0): 6, (3, 0): 6, (0, 1): 3}
        assert slicewise_membership(L, (x,)) is want["layered"]
        dense_closure(SchurPair(L, L))
        for kind in ("p2-line", "nilpotent"):
            axiom_scan(make_datum(kind), L)
        assert brute_membership(W.row_vectors(), v, fld, 1, W.u_lo, W.u_hi) is want["membership"]
        assert brute_index(W.row_vectors(), fld, 1, W.u_lo, W.u_hi) == want["index"]
        assert graded_dimension(L, 2, 1) == want["hilbert"]


def membership_labels(failures):
    return [f for f in failures if GENERATOR.fullmatch(f) or PRODUCT.fullmatch(f)]


def test_every_membership_label_of_planted_pairs_is_confirmed_on_plain_values():
    rng = random.Random(7)
    for i in range(8):
        pair = perturbed_pair(rng, i % 4, True)
        rep = check_schur_pair(pair)
        labels = membership_labels(rep["failures"])
        assert rep["verdict"] == "fail" and labels
        obj = json.loads(json.dumps(pair.to_json()))
        assert [label for label in labels if not confirm(obj, label)] == []


def test_labels_of_products_routed_in_or_deferred_are_not_confirmed():
    # a deferred product of this clean pair leaves a remainder, if any, in the margins only
    pair = perturbed_pair(random.Random(7), 1, False)
    A, W = pair.algebra, pair.module
    rng = random.Random(8)
    labels = [f"A-generator #{i} fails membership" for i in range(len(A.generators))]
    labels += [f"W-generator #{j} fails membership" for j in range(len(W.generators))]
    routers = {"A": Router(A), "W": Router(W)}
    for _ in range(60):
        i = rng.randrange(len(A.generators))
        side = rng.choice("AW")
        L = A if side == "A" else W
        j = rng.randrange(len(L.generators))
        if routers[side](scalar_times_vector(A.generators[i][0], L.generators[j])) in (
                "in", "deferred"):
            labels.append(f"A-product #{i}*#{j} leaves A" if side == "A"
                          else f"module product A#{i}*W#{j} leaves W")
    assert membership_labels(check_schur_pair(pair)["failures"]) == []
    assert len(labels) > len(A.generators) + len(W.generators) + 20
    obj = json.loads(json.dumps(pair.to_json()))
    assert [label for label in labels if confirm(obj, label)] == []


def test_confirm_needs_a_remainder_key_below_both_top_margins():
    # W_GROWN is [-6, 6) x [-12, 12) with margins 3, and A's level b holds u^a for a <= -b
    obj = json.loads(json.dumps(perturbed_pair(random.Random(7), 0, False).to_json()))
    label = "A-generator #0 fails membership"
    for (a, b), want in [((1, 0), True), ((0, 0), False), ((10, 0), False), ((1, 4), False),
                         ((-13, 0), False)]:
        obj["A"]["generators"][0] = [{"terms": [[a, b, "1"]], "component": 1}]
        assert confirm(obj, label) is want, (a, b)
