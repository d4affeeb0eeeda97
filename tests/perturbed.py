"""Seeded perturbed Schur pairs over F_(2^31 - 1), shared by the Schur tests
and the golden digests.

This module imports only ribbonlab, neither pytest nor hypothesis, so
``tests/test_golden.py`` runs as a plain script without them.
"""

from ribbonlab.geometry import forward_krichever, make_datum
from ribbonlab.local2d import Local2DElement, Window2D
from ribbonlab.schur import LayeredSubspace, SchurPair
from ribbonlab.series import Field

F_MERSENNE = Field(2 ** 31 - 1)
W_GROWN = Window2D(-6, 6, -12, 12, 3, 3)


def perturbed_witnesses(rng, L, limit, planted):
    """L's monomial witnesses u^a t^b, each with one or two extra terms c u^a' t^b'
    of its own side (a' + b' <= limit) with b < b' <= b + 2 inside the interior;
    witnesses on the top interior level have no room and stay monomial.  With
    ``planted`` one witness also gets a trusted term with a' + b' > limit."""
    inner, p = L.window.interior(), L.field.p
    out = []
    for (x,) in L.generators:
        ((a, b), c), = x.terms
        terms = {(a, b): c}
        top = min(b + 2, inner.t_hi - 1)
        for _ in range(rng.randint(1, 2) if top > b else 0):
            b2 = rng.randint(b + 1, top)
            a2 = rng.randint(inner.u_lo, min(inner.u_hi - 1, limit - b2))
            terms.setdefault((a2, b2), rng.randint(1, p - 1))
        out.append(terms)
    if planted:
        i = rng.choice([i for i, t in enumerate(out) if min(b for _a, b in t) + 1 < inner.t_hi])
        b2 = min(b for _a, b in out[i]) + 1
        out[i][rng.randint(max(inner.u_lo, limit - b2 + 1), inner.u_hi - 1), b2] = 1
    return tuple((Local2DElement.from_dict(L.field, t),) for t in out)


def perturbed_pair(rng, twist, planted):
    """The forward p2-line pair of ``twist`` over F_MERSENNE at W_GROWN with
    perturbed witnesses, drawn from rng in this order: A's extra terms with
    a' + b' <= 0 (and one planted term if asked), then W's with
    a' + b' <= ``twist``."""
    base = forward_krichever(make_datum("p2-line", twist), W_GROWN, F_MERSENNE)
    A, M = base.algebra, base.module
    return SchurPair(
        LayeredSubspace(A.field, 1, A.window, A.levels, perturbed_witnesses(rng, A, 0, planted)),
        LayeredSubspace(M.field, 1, M.window, M.levels, perturbed_witnesses(rng, M, twist, False)))
