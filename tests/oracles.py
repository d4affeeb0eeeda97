"""Independent brute-force oracles the tests check the library against.

Everything here recomputes results by a different route than the package:
dense list-based Gaussian elimination over an explicitly enumerated
component-major coordinate basis, sparse two-pass elimination, closed-form
Riemann-Roch counts, and the pole-divisor computation on the plane.  Nothing
imports the package's sparse echelon engine.
"""

from __future__ import annotations

from ribbonlab.errors import RangeViolationError, WindowMismatchError
from ribbonlab.fredholm import Verdict, WindowedSubspace
from ribbonlab.local2d import Local2DElement
from ribbonlab.series import Field, LaurentPoly


def dense_rank(matrix) -> int:
    """Row rank by in-place fraction-free-ish elimination on dense lists."""
    rows = [list(r) for r in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / pv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def row_scan_reduce(v: dict, basis: list) -> dict:
    """Remainder of a sparse row v against an echelon basis, row by row.

    Reference for ``_linalg.reduce_vector``: scan the basis in pivot order,
    find each row's pivot with ``min``, and clear the current remainder's
    coefficient there.  Valid for any echelon basis sorted by pivot, reduced
    or not.
    """
    v = {k: c for k, c in v.items() if c}
    for row in basis:
        c = v.get(min(row))
        if c:
            v = _minus_multiple(v, c, row)
    return v


def _minus_multiple(row: dict, c, other: dict) -> dict:
    """row - c * other on sparse dicts, dropping keys that cancel."""
    out = dict(row)
    for k, x in other.items():
        w = out[k] - c * x if k in out else -(c * x)
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def two_pass_echelon(rows) -> list:
    """Reduced row echelon basis by a forward pass and back-substitution.

    Reference for ``_linalg.echelon``, which keeps its basis reduced as rows
    arrive.  Forward pass: clear each row's least key against the pivot rows
    found so far until it is zero or opens a new pivot, scaled to 1 there.
    Then, deepest pivot first, clear every later pivot key from each row.
    Returns the rows sorted by pivot key.
    """
    pivots: dict = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            k = min(row)
            if k in pivots:
                row = _minus_multiple(row, row[k], pivots[k])
            else:
                inv = row[k].inverse()
                pivots[k] = {k2: v * inv for k2, v in row.items()}
                break
    keys = sorted(pivots)
    for i in range(len(keys) - 1, -1, -1):
        r = pivots[keys[i]]
        for k2 in keys[i + 1:]:
            c = r.get(k2)
            if c:
                r = _minus_multiple(r, c, pivots[k2])
        pivots[keys[i]] = r
    return [pivots[k] for k in keys]


def local2d_reference(x: Local2DElement, y: Local2DElement, op: str) -> Local2DElement:
    """x + y, x - y or x * y on plain dicts of int/Fraction values.

    Reference for ``Local2DElement``'s arithmetic: the coefficient values are
    combined as Python numbers, never as Scalars, and ``from_dict`` then
    reduces, drops zeros and sorts.  Both inputs must share a field.
    """
    d: dict = {}
    if op == "*":
        for (a1, b1), c1 in x.terms:
            for (a2, b2), c2 in y.terms:
                k = (a1 + a2, b1 + b2)
                d[k] = d.get(k, 0) + c1.value * c2.value
    else:
        sign = -1 if op == "-" else 1
        for k, c in x.terms:
            d[k] = c.value
        for k, c in y.terms:
            d[k] = d.get(k, 0) + sign * c.value
    return Local2DElement.from_dict(x.field, d)


def nilpotent_product(x: Local2DElement, y: Local2DElement) -> Local2DElement:
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
            prod = c1 * c2
            d[k] = d[k] + prod if k in d else prod
    return Local2DElement.from_dict(x.field, d)


def t_slice_reference(x: Local2DElement, b: int) -> LaurentPoly:
    """The t^b coefficient of x, gathered into a dict and rebuilt by ``from_dict``."""
    return LaurentPoly.from_dict(x.field, {a: c.value for (a, bb), c in x.terms if bb == b})


def slicewise_membership(L, vec) -> Verdict:
    """Membership in a layered subspace, one t^b slice at a time, by dense rank.

    Reference for ``schur.layered_membership``.  L is the direct sum of
    t^b * level_b, so vec lies in L iff each t^b slice of vec lies in
    level_b.  The slices are taken in increasing b and tested with
    ``brute_membership``.  The first nonzero slice at or above the trusted
    t-top makes the verdict Inconclusive; before that, the first slice
    outside its level makes it NotIn.
    """
    w = L.window
    for b in sorted({b for x in vec for (_a, b), _c in x.terms}):
        if b >= w.t_trusted_hi:
            return Verdict.INCONCLUSIVE
        slice_vec = tuple(t_slice_reference(x, b) for x in vec)
        if not brute_membership(L.level(b).row_vectors(), slice_vec, L.field, L.r,
                                w.u_lo, w.u_hi):
            return Verdict.NOT_IN
    return Verdict.IN


def _dense_basis(r: int, u_lo: int, u_hi: int):
    # component-major enumeration, deliberately different from the package's
    return [(c, e) for c in range(r) for e in range(u_lo, u_hi)]


def vectors_to_dense(vectors, field: Field, r: int, u_lo: int, u_hi: int):
    basis = _dense_basis(r, u_lo, u_hi)
    index = {key: i for i, key in enumerate(basis)}
    out = []
    for vec in vectors:
        row = [field.zero] * len(basis)
        for c, poly in enumerate(vec):
            for e, coeff in poly.coeffs:
                row[index[(c, e)]] = coeff
        out.append(row)
    return out, basis


def brute_membership(rows, v, field: Field, r: int, u_lo: int, u_hi: int) -> bool:
    dense, _ = vectors_to_dense(list(rows) + [v], field, r, u_lo, u_hi)
    return dense_rank(dense[:-1]) == dense_rank(dense)


def brute_index(rows, field: Field, r: int, u_lo: int, u_hi: int) -> int:
    """Fredholm index by dimension counting on the window coordinate space.

    dim(V ∩ F+) comes from dim V + dim F+ - dim(V + F+); the cokernel side
    from the rank of V projected to the negative coordinates.
    """
    dense, basis = vectors_to_dense(rows, field, r, u_lo, u_hi)
    dim_v = dense_rank(dense)
    plus_idx = [i for i, (_c, e) in enumerate(basis) if e >= 0]
    minus_idx = [i for i, (_c, e) in enumerate(basis) if e < 0]
    unit_rows = []
    for i in plus_idx:
        row = [field.zero] * len(basis)
        row[i] = field.one
        unit_rows.append(row)
    dim_sum = dense_rank(dense + unit_rows)
    dim_cap_plus = dim_v + len(plus_idx) - dim_sum
    proj = [[row[i] for i in minus_idx] for row in dense] if minus_idx else []
    dim_proj_minus = dense_rank(proj) if minus_idx else 0
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
    dense, basis = vectors_to_dense(S.row_vectors(), S.field, S.r, S.u_lo, S.u_hi)
    units = [[S.field.one if key == unit else S.field.zero for key in basis]
             for unit in basis if unit[1] >= -n]
    return dense_rank(dense) + len(units) - dense_rank(dense + units)


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
