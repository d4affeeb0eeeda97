"""Independent brute-force oracles the tests check the library against.

Everything here recomputes results by a different route than the package:
ranks and reduced echelon forms of matrices over an explicitly enumerated
component-major coordinate basis, a row-by-row sparse reduction, closed-form
Riemann-Roch counts, the pole-divisor computation on the plane, and a
ribbon-axiom scan of an algebra side that decides products slice by slice.
Nothing imports the package's sparse echelon engine or its Schur check.

The oracles read library objects only through their data: ``.terms``,
``.coeffs``, ``.rows``, ``.value`` and ``.field.p``, and a layered
subspace's ``window``, ``level()``, ``row_vectors()`` and ``full_below``.
They compute on plain values, ints and Fractions over Q and residues in
[0, p) over F_p, and every rank and reduced echelon form is sympy's exact
``DomainMatrix`` over QQ or GF(p), each matrix built once.  No oracle does
``Scalar`` arithmetic, so a fault there cannot hide in the oracle too.
Results come back as plain values: dicts {key: value}, bools and ints.
Only the input builders (``random_windowed_rows``, ``direct_sum``,
``graded_slice``) make library values.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from ribbonlab.errors import RangeViolationError, WindowMismatchError
from ribbonlab.fredholm import Verdict, WindowedSubspace
from ribbonlab.series import Field, LaurentPoly


def values(pairs) -> dict:
    """{key: value} of (key, Scalar) pairs: ``.terms``, ``.coeffs``, a stored row, ``items()``."""
    return {k: c.value for k, c in pairs}


def _reduced(d: dict, p) -> dict:
    """d with its values reduced mod p (over F_p) and zeros dropped."""
    out = {}
    for k, v in d.items():
        v = v if p is None else v % p
        if v:
            out[k] = v
    return out


def _matrix(rows, p) -> DomainMatrix:
    """Dense rows of plain values, reduced mod p over F_p, as one matrix over QQ or GF(p).

    It is held in sympy's sparse format, zeros left out: on a shared 2-core
    VM tier-1 took 32 s so, and 50 s on ``DomainMatrix.from_list``'s dense one.
    """
    K = QQ if p is None else GF(p)
    nonzero = {i: {j: K(v) for j, v in enumerate(row) if v}
               for i, row in enumerate(rows) if any(row)}
    return DomainMatrix(nonzero, (len(rows), len(rows[0]) if rows else 0), K)


def dense_rank(matrix, p) -> int:
    """Row rank of dense rows of plain values over Q (p None) or F_p."""
    return _matrix(matrix, p).rank()


def dense_rref(rows, p) -> list:
    """Reduced row echelon basis of sparse rows {key: Scalar}, as plain dict rows.

    Reference for ``_linalg.echelon``: the rows become one dense matrix over
    their sorted keys, and the nonzero rows of its rref are read back keyed,
    sorted by pivot.  The reduced form is unique, so the library's basis
    must equal it key for key.
    """
    keys = sorted({k for row in rows for k, c in row.items() if c.value})
    rref, pivots = _matrix([[row[k].value if k in row else 0 for k in keys] for row in rows],
                           p).rref()
    sdm = rref.to_sdm()
    return [{keys[j]: Fraction(int(x.numerator), int(x.denominator)) if p is None
             else int(x) % p for j, x in sdm[i].items()} for i in range(len(pivots))]


def row_scan_reduce(v: dict, basis: list, p) -> dict:
    """Remainder of a sparse row v against an echelon basis, row by row, as a plain dict.

    Reference for ``_linalg.reduce_vector``: scan the basis in pivot order,
    find each row's pivot with ``min``, and clear the current remainder's
    coefficient there.  Valid for any echelon basis sorted by pivot, reduced
    or not, whose pivot coefficients are 1.
    """
    v = _reduced(values(v.items()), p)
    for row in basis:
        c = v.get(min(row))
        if c:
            for k, x in row.items():
                v[k] = v.get(k, 0) - c * x.value
            v = _reduced(v, p)
    return v


def local2d_reference(x, y, op: str) -> dict:
    """x + y, x - y or x * y as a plain dict {(a, b): value}, zeros dropped.

    Reference for ``Local2DElement``'s arithmetic: the coefficient values are
    combined as Python numbers and reduced mod p over F_p.
    """
    d: dict = {}
    if op == "*":
        for (a1, b1), c1 in x.terms:
            for (a2, b2), c2 in y.terms:
                k = (a1 + a2, b1 + b2)
                d[k] = d.get(k, 0) + c1.value * c2.value
    else:
        sign = -1 if op == "-" else 1
        d = values(x.terms)
        for k, c in y.terms:
            d[k] = d.get(k, 0) + sign * c.value
    return _reduced(d, x.field.p)


def nilpotent_product(x, y) -> dict:
    """x * y under the nilpotent rule t_i t_j = 0 for i, j != 0, one term pair at a time.

    Reference for ``GeometricDatum.product`` on the nilpotent datum, which
    builds the product from ring products of t^0 parts instead.
    """
    d: dict = {}
    for (a1, b1), c1 in x.terms:
        for (a2, b2), c2 in y.terms:
            if b1 != 0 and b2 != 0:
                continue  # t_i t_j = 0 for i, j != 0
            k = (a1 + a2, b1 + b2)
            d[k] = d.get(k, 0) + c1.value * c2.value
    return _reduced(d, x.field.p)


def nodal_nf_mul(ring, f: dict, g: dict) -> dict:
    """Normal form of f * g in a ``NodalCubicRing``, term pair by term pair.

    f and g map basis monomials (a, eps) to nonzero plain values; each
    term-pair product comes from ``ring.mono_mul`` and coefficients that
    cancel are dropped, so the result is again a normal form.
    """
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            for m, c in ring.mono_mul(m1, m2).items():
                out[m] = out.get(m, 0) + c1 * c2 * c.value
    return _reduced(out, ring.field.p)


def t_slice_reference(x, b: int) -> dict:
    """The t^b coefficient of x as a plain dict {a: value}."""
    return {a: c.value for (a, bb), c in x.terms if bb == b}


def _in_level(L, b: int, vec: dict) -> bool:
    """Whether the plain vector {(e, c): value} lies in level b of L, by dense rank."""
    w = L.window
    return _in_span([values(row) for row in L.level(b).rows], vec, L.field.p, L.r,
                    w.u_lo, w.u_hi)


def slicewise_membership(L, vec) -> Verdict:
    """Membership in a layered subspace, one t^b slice at a time, by dense rank.

    Reference for ``schur.layered_membership``.  L is the direct sum of
    t^b * level_b, so vec lies in L iff each t^b slice of vec lies in
    level_b.  The slices are taken in increasing b.  The first nonzero slice
    at or above the trusted t-top makes the verdict Inconclusive; before
    that, the first slice outside its level makes it NotIn.
    """
    for b in sorted({b for x in vec for (_a, b), _c in x.terms}):
        if b >= L.window.t_trusted_hi:
            return Verdict.INCONCLUSIVE
        if not _in_level(L, b, {(a, c): v for c, x in enumerate(vec)
                                for a, v in t_slice_reference(x, b).items()}):
            return Verdict.NOT_IN
    return Verdict.IN


def dense_closure(pair) -> bool:
    """Whether products of L's trusted basis rows stay in L, by dense rank.

    Reference for the closure ``check`` certifies from witness products when
    the witnesses span the trusted rows.  A trusted basis row is t^b * row for
    a stored row of a t-interior level b whose pivot exponent lies in
    [u_lo + m_u, u_hi - m_u).  Every product of two A rows, and of an A row
    with a W row, is formed term by term on plain values, and each of its
    t^c slices is tested against level c by dense rank.  A product with a
    term in a top margin band, outside the t-window, at or above u_hi, or
    below u_lo at a level without a full tail is skipped, because ``check``
    defers or escapes it; terms below u_lo at a full_below level are dropped.
    """
    w, p = pair.window, pair.field.p
    seen = {}

    def trusted(L):
        return [{(e, b, c): x.value for (e, c), x in row}
                for b in range(w.t_lo + w.m_t, w.t_trusted_hi) for row in L.level(b).rows
                if w.u_lo + w.m_u <= row[0][0][0] < w.u_trusted_hi]

    def stays_in(side, L, prod) -> bool:
        slices = {}
        for (a, b, c), v in _reduced(prod, p).items():
            if not w.t_lo <= b < w.t_trusted_hi or a >= w.u_trusted_hi:
                return True
            if a < w.u_lo:
                if not L.level(b).full_below:
                    return True
                continue
            slices.setdefault(b, {})[a, c] = v
        for b, vec in slices.items():
            key = (side, b, tuple(sorted(vec.items())))
            if key not in seen:
                seen[key] = _in_level(L, b, vec)
            if not seen[key]:
                return False
        return True

    a_rows = trusted(pair.algebra)
    for side, L in (("A", pair.algebra), ("W", pair.module)):
        rows = trusted(L)
        for i, x in enumerate(a_rows):
            for y in rows[i:] if side == "A" else rows:
                prod: dict = {}
                for (a1, b1, _c), v1 in x.items():
                    for (a2, b2, c), v2 in y.items():
                        k = (a1 + a2, b1 + b2, c)
                        prod[k] = prod.get(k, 0) + v1 * v2
                if not stays_in(side, L, prod):
                    return False
    return True


def axiom_scan(g, layer) -> dict:
    """Windowed ribbon axioms of an algebra side: unit, graded products, torsion-free levels.

    Products of witness pairs are formed term by term, by ``nilpotent_product``
    on the nilpotent datum and ``local2d_reference`` otherwise.  A zero
    product is counted as vanished, and one whose t-order falls below the sum
    of its factors' is not-in.  Every other product, and the unit
    {(0, 0): 1}, is classified as ``check`` routes it: escaped at a term
    outside the t-window, at or above u_hi, or below u_lo at a level without
    a full tail; terms below u_lo at a full level are dropped; zero is in; a
    term in a top margin band defers it.  The rest is in iff each t^b slice
    lies in level b, by dense rank memoised per slice.  A level is
    torsion-free when it has a full tail and no pivot at or above
    u_trusted_hi.  As in the report this reproduces, "checked" counts only
    the products found in.
    """
    w = layer.window
    seen = {}

    def route(x: dict) -> str:
        slices, in_margin = {}, False
        for (a, b), c in x.items():
            if not w.t_lo <= b < w.t_hi or a >= w.u_hi:
                return "escaped"
            if a < w.u_lo:
                if not layer.level(b).full_below:
                    return "escaped"
                continue
            in_margin = in_margin or b >= w.t_trusted_hi or a >= w.u_trusted_hi
            slices.setdefault(b, {})[a, 0] = c
        if slices and in_margin:
            return "deferred"
        for b, vec in slices.items():
            key = (b, tuple(sorted(vec.items())))
            if key not in seen:
                seen[key] = _in_level(layer, b, vec)
            if not seen[key]:
                return "not-in"
        return "in"

    unit = route({(0, 0): 1}) == "in"
    counts = Counter()
    gens = [vec[0] for vec in layer.generators]
    orders = [min(b for (_a, b), _c in x.terms) for x in gens]
    for i, x in enumerate(gens):
        for j in range(i, len(gens)):
            y = gens[j]
            prod = (nilpotent_product(x, y) if g.kind == "nilpotent"
                    else local2d_reference(x, y, "*"))
            if not prod:
                counts["vanished"] += 1
            elif min(b for _a, b in prod) < orders[i] + orders[j]:
                counts["not-in"] += 1
            else:
                counts[route(prod)] += 1
    bad = [b for b in range(w.t_lo, w.t_hi) if not layer.level(b).full_below
           or any(min(k for k, _x in row)[0] >= w.u_trusted_hi for row in layer.level(b).rows)]
    products_pass = counts["not-in"] == 0
    return {
        "unit_at_level_zero": unit,
        "filtered_products": {"pass": products_pass, "checked": counts["in"],
                              "vanished": counts["vanished"], "deferred": counts["deferred"],
                              "escaped": counts["escaped"]},
        "torsion_free_levels": {"pass": not bad, "bad_levels": bad},
        "verdict": "pass" if unit and products_pass and not bad else "fail",
    }


def vectors_to_dense(vectors, r: int, u_lo: int, u_hi: int):
    """Plain vectors {(e, c): value} as dense rows over the component-major basis (c, e).

    The enumeration is deliberately different from the package's (e, c)
    order.  Returns the rows and the basis.
    """
    basis = [(c, e) for c in range(r) for e in range(u_lo, u_hi)]
    index = {(e, c): i for i, (c, e) in enumerate(basis)}
    out = []
    for vec in vectors:
        row = [0] * len(basis)
        for k, v in vec.items():
            row[index[k]] = v
        out.append(row)
    return out, basis


def _plain_vector(vec) -> dict:
    """A vector of Laurent polynomials as a plain dict {(e, c): value}."""
    return {(e, c): x.value for c, poly in enumerate(vec) for e, x in poly.coeffs}


def _in_span(rows, v, p, r: int, u_lo: int, u_hi: int) -> bool:
    dense, _ = vectors_to_dense(list(rows) + [v], r, u_lo, u_hi)
    return dense_rank(dense[:-1], p) == dense_rank(dense, p)


def brute_membership(rows, v, field: Field, r: int, u_lo: int, u_hi: int) -> bool:
    """Whether the vector v of Laurent polynomials lies in the span of ``rows``, by dense rank."""
    return _in_span([_plain_vector(vec) for vec in rows], _plain_vector(v), field.p, r,
                    u_lo, u_hi)


def brute_index(rows, field: Field, r: int, u_lo: int, u_hi: int) -> int:
    """Fredholm index by dimension counting on the window coordinate space.

    dim(V ∩ F+) comes from dim V + dim F+ - dim(V + F+); the cokernel side
    from the rank of V projected to the negative coordinates.
    """
    p = field.p
    dense, basis = vectors_to_dense([_plain_vector(vec) for vec in rows], r, u_lo, u_hi)
    plus_idx = [i for i, (_c, e) in enumerate(basis) if e >= 0]
    minus_idx = [i for i, (_c, e) in enumerate(basis) if e < 0]
    units = [[int(j == i) for j in range(len(basis))] for i in plus_idx]
    dim_cap_plus = dense_rank(dense, p) + len(plus_idx) - dense_rank(dense + units, p)
    dim_proj_minus = dense_rank([[row[i] for i in minus_idx] for row in dense], p)
    return dim_cap_plus - (len(minus_idx) - dim_proj_minus)


def direct_sum(W1: WindowedSubspace, W2: WindowedSubspace) -> WindowedSubspace:
    """Block-diagonal sum; ranks add, windows must agree.

    W2's components are numbered after W1's.  The two blocks' rows then have
    disjoint supports, so their union is already in reduced echelon form and
    only needs sorting by pivot; no elimination runs.
    """
    if (W1.u_lo, W1.u_hi) != (W2.u_lo, W2.u_hi):
        raise WindowMismatchError("direct sum needs identical u-windows")
    if W1.field != W2.field:
        raise WindowMismatchError("direct sum needs a common field")
    shifted = tuple(tuple(((e, c + W1.r), x) for (e, c), x in row) for row in W2.rows)
    rows = tuple(sorted(W1.rows + shifted, key=lambda row: row[0][0]))
    return WindowedSubspace(W1.field, W1.r + W2.r, W1.u_lo, W1.u_hi,
                            W1.full_below and W2.full_below, rows)


def graded_slice(L, i: int, j: int) -> WindowedSubspace:
    """Stacked model of (L ∩ O(i)^r)/(L ∩ O(j)^r): block b of the sum is levels[b]."""
    w = L.window
    if not (w.t_lo <= i < j <= w.t_hi):
        raise RangeViolationError(f"need t_lo <= i < j <= t_hi, got ({i}, {j})")
    out = L.level(i)
    for b in range(i + 1, j):
        out = direct_sum(out, L.level(b))
    return out


def graded_dimension(L, j: int, n: int) -> int:
    """Reference for ``schur.hilbert_function``: dim(S ∩ U_n) by dense rank.

    S is ``graded_slice(L, 0, j)`` and U_n the span of the unit vectors at
    exponents >= -n in every block, so dim(S ∩ U_n) = dim S + dim U_n -
    dim(S + U_n).  No pivot is read.
    """
    S = graded_slice(L, 0, j)
    dense, basis = vectors_to_dense([values(row) for row in S.rows], S.r, S.u_lo, S.u_hi)
    units = [[int(key == unit) for key in basis] for unit in basis if unit[1] >= -n]
    p = S.field.p
    return dense_rank(dense, p) + len(units) - dense_rank(dense + units, p)


def rr_h0(d: int) -> int:
    return max(0, d + 1)


def rr_h1(d: int) -> int:
    return max(0, -d - 1)


def chi(d: int) -> int:
    return d + 1


def section_monomial_allowed(a: int, b: int, twist: int) -> bool:
    """Pole-divisor oracle on the plane for the monomial u^a t^b.

    With u = X1/X0 and t = X2/X0 the t^b-coefficient of the monomial is the
    degree (twist - b) homogeneous function X1^a X0^(twist - b - a).  Away
    from the marked point only the X1 = 0 locus may appear in the denominator,
    so the section is regular exactly when the X0 exponent is nonnegative.
    """
    exponent_x0 = twist - b - a
    return exponent_x0 >= 0


def p2line_hilbert(twist_zero_level: int, j: int, n: int) -> int:
    """Closed-form graded dimension for the plane/line algebra, by slot counting."""
    return sum(max(0, n - b + 1) for b in range(j))


def random_windowed_rows(rng, field: Field, r: int, u_lo: int, u_hi: int, n_rows: int):
    rows = []
    for _ in range(n_rows):
        vec = []
        for _c in range(r):
            d = {}
            for _ in range(rng.randint(0, 3)):
                e = rng.randint(u_lo, u_hi - 1)
                if field.p is None:
                    d[e] = rng.randint(-5, 5)
                else:
                    d[e] = rng.randint(0, field.p - 1)
            vec.append(LaurentPoly.from_dict(field, d))
        rows.append(tuple(vec))
    return rows
