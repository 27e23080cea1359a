"""Exact linear algebra over the rationals and Gaussian rationals.

Matrices are lists of rows of ints, Fractions or GaussianRationals.
Elimination works on sparse rows, dicts from column to nonzero entry, so
zero cells cost nothing.  Polynomial ranks build those rows straight from
the polynomials' integer numerators, slice kernels from the numerators of
one tagged image of the whole slice.

Rank is certified cheaply. Nonempty rows whose first columns are pairwise
distinct are independent, so their count is the rank with no elimination
at all; polynomials whose lexicographically least exponents differ are
such rows. Reduction mod the 61-bit prime ``P`` (with
sqrt(-1) sent to ``SQRT_MINUS_ONE``, a square root of -1 mod P) is a ring
homomorphism, so the rank mod P never exceeds the exact rank. When the rank
mod P is full, min(rows, nonzero columns), it is therefore the exact rank.
Otherwise (a rank deficient mod P, a denominator divisible by P, or an entry
of another type) the rank comes from exact sparse elimination over Q or
Q(i). Nullspaces and slice kernels are always exact: sparse elimination and
back-substitution to the reduced row echelon form, which is unique for a
fixed column order, so kernel bases are canonical.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import GaussianRational, Polynomial, _int_form, _shifted_sum, _sum_forms, coeff_inverse

__all__ = [
    "bidegree_monomials",
    "kernel_on_slice",
    "matrix_rank",
    "monomials_of_degree",
    "monomials_up_to_degree",
    "nullspace",
    "polys_in_span",
    "polys_rank",
    "polys_to_matrix",
]

P = 2305843009213693921
"""A 61-bit prime with P = 1 (mod 4), so -1 is a square mod P."""

SQRT_MINUS_ONE = 583529827753931384
"""S with S * S = -1 (mod P): the image of sqrt(-1) in Z/P."""


def _row_reduce(rows, p=None, reduced=False):
    """Sparse Gaussian elimination; returns {pivot column: pivot row}.

    Each row is a dict {column: nonzero entry}; columns are any mutually
    comparable keys. With a prime ``p`` the entries are residues in
    [0, p) and the arithmetic is mod p; otherwise it is the entries' own
    exact field arithmetic. Every pivot row starts at its pivot column with
    a 1 and holds no earlier pivot column (row echelon form). With
    ``reduced`` every pivot column is also cleared from the other pivot
    rows (reduced row echelon form). The input rows are left unchanged.
    """
    pivots = {}
    for row in rows:
        row = _remainder(row, pivots, p)
        if row:
            c = min(row)
            if p:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
            else:
                inv = coeff_inverse(row[c])
                pivots[c] = {k: v * inv for k, v in row.items()}
    if reduced:
        # last pivot first, so each pivot row is already clear of the later
        # pivot columns when it is subtracted from the rows above it
        order = sorted(pivots)
        for i in reversed(range(len(order))):
            c, prow = order[i], pivots[order[i]]
            for earlier in order[:i]:
                row = pivots[earlier]
                if c in row:
                    _eliminate(row, prow, row[c], p)
    return pivots


def _remainder(row, pivots, p=None):
    """A copy of row reduced by the pivot rows of a ``_row_reduce`` result
    until its first column has no pivot; it is empty when row lies in their span."""
    row = dict(row)
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            break
        _eliminate(row, prow, row[c], p)
    return row


def _eliminate(row, prow, factor, p):
    """row -= factor * prow in place, dropping the entries that cancel."""
    # a key missing from row gets -factor * v, which is nonzero in a field,
    # so an entry that cancels was present and can be deleted
    if p:
        for k, v in prow.items():
            x = (row.get(k, 0) - factor * v) % p
            if x:
                row[k] = x
            else:
                del row[k]
    else:
        for k, v in prow.items():
            x = row.get(k, 0) - factor * v
            if x:
                row[k] = x
            else:
                del row[k]


def _residue(value, inverses):
    """The image of an exact entry in Z/P, or None when it has none here."""
    if isinstance(value, int):
        return value % P
    if isinstance(value, Fraction):
        den = value.denominator
        if den == 1:
            return value.numerator % P
        inv = inverses.get(den)
        if inv is None:
            if not den % P:
                return None
            inv = inverses[den] = pow(den, -1, P)
        return value.numerator * inv % P
    if isinstance(value, GaussianRational):
        re, im = _residue(value.re, inverses), _residue(value.im, inverses)
        return None if re is None or im is None else (re + SQRT_MINUS_ONE * im) % P
    return None


def _residues(rows):
    """The sparse rows mod P, or None when an entry has no image in Z/P."""
    inverses = {}
    out = []
    for row in rows:
        res = {}
        for k, v in row.items():
            x = _residue(v, inverses)
            if x is None:
                return None
            if x:
                res[k] = x
        out.append(res)
    return out


def _rank(rows) -> int:
    """Exact rank of sparse rows.

    When the nonempty rows have pairwise distinct first columns they are
    independent: the row with the smallest first column is the only one
    with an entry there, so any vanishing combination gives it weight 0,
    and so on down.  Else the rank is certified mod P when full, and exact
    otherwise.
    """
    nonempty = [row for row in rows if row]
    if len({min(row) for row in nonempty}) == len(nonempty):
        return len(nonempty)
    full = min(len(rows), len(set().union(*rows)))
    residues = _residues(rows)
    if residues is not None and len(_row_reduce(residues, P)) == full:
        return full
    return len(_row_reduce(rows))


def _sparse(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def matrix_rank(rows) -> int:
    """Exact rank of a matrix given as a list of rows."""
    return _rank(_sparse(rows))


def _kernel_vectors(pivots, ncols):
    """Sparse kernel basis {column: entry}, one per free column, from an RREF."""
    kernel = {fc: {fc: Fraction(1)} for fc in range(ncols) if fc not in pivots}
    for pc, prow in pivots.items():
        for fc, v in prow.items():
            if fc != pc:
                kernel[fc][pc] = -v
    return kernel


def nullspace(rows, ncols: int):
    """Basis of {v : A v = 0} for A given as a list of rows of width ncols.

    The basis is read off the reduced row echelon form: one vector per free
    column, with a 1 there and zeros at the other free columns.
    """
    basis = []
    for vec in _kernel_vectors(_row_reduce(_sparse(rows), reduced=True), ncols).values():
        v = [Fraction(0)] * ncols
        for c, x in vec.items():
            v[c] = x
        basis.append(v)
    return basis


def _aligned(polys):
    """The polynomials' term dicts over one shared variable order, and that order."""
    vars_ = tuple(dict.fromkeys(v for p in polys for v in p.vars))
    terms = [p.with_variables(vars_).terms for p in polys]
    return terms, vars_


def _numerator_rows(polys):
    """Each polynomial's numerators over one shared variable order as a
    sparse row: its coefficients times its denominator, which leaves the
    dimension of the span unchanged."""
    vars_ = tuple(dict.fromkeys(v for p in polys for v in p.vars))
    forms = [_int_form(p, vars_) for p in polys]
    return [
        {**f.re, **{e: GaussianRational(f.re.get(e, 0), b) for e, b in f.im.items()}} if f.im else f.re
        for f in forms
    ]


def polys_to_matrix(polys):
    """Dense coefficient matrix of the polynomials over the union of their supports.

    Returns (rows, monomial_keys, variables); row i lists the coefficients of
    polys[i] on each monomial key, keys sorted in canonical graded-lex order.
    """
    terms, vars_ = _aligned(polys)
    keys = sorted(set().union(*terms), key=lambda e: (-sum(e), tuple(-x for x in e)))
    rows = [[t.get(k, Fraction(0)) for k in keys] for t in terms]
    return rows, keys, vars_


def polys_rank(polys) -> int:
    """Exact dimension of the span of the polynomials."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return 0
    return _rank(_numerator_rows(polys))


def polys_in_span(basis, candidates) -> bool:
    """True when every candidate lies in the exact span of the basis."""
    base = [p for p in basis if not p.is_zero()]
    cands = [p for p in candidates if not p.is_zero()]
    if not cands:
        return True
    if not base:
        return False
    r = polys_rank(base)
    return polys_rank(base + cands) == r


def monomials_of_degree(vars, degree: int):
    """All monomials of exact total degree `degree` as Polynomials."""
    from .combinatorics import tuples_with_sum

    vars = tuple(vars)
    return [Polynomial(vars, {exp: Fraction(1)}) for exp in tuples_with_sum(len(vars), degree)]


def monomials_up_to_degree(vars, degree: int):
    from .combinatorics import tuples_with_sum_at_most

    vars = tuple(vars)
    return [
        Polynomial(vars, {exp: Fraction(1)})
        for exp in tuples_with_sum_at_most(len(vars), degree)
    ]


def bidegree_monomials(x_vars, y_vars, deg_x: int, deg_y: int):
    """Monomials homogeneous of degree deg_x in x_vars and deg_y in y_vars."""
    from .combinatorics import tuples_with_sum

    x_vars, y_vars = tuple(x_vars), tuple(y_vars)
    vars_ = x_vars + y_vars
    out = []
    for ex in tuples_with_sum(len(x_vars), deg_x):
        for ey in tuples_with_sum(len(y_vars), deg_y):
            out.append(Polynomial(vars_, {ex + ey: Fraction(1)}))
    return out


def kernel_on_slice(op, slice_monomials):
    """Exact kernel of a linear operator restricted to the span of a slice.

    Returns a list of Polynomials spanning {p in span(slice) : op(p) = 0}:
    the canonical basis read off the reduced row echelon form, with columns
    in slice order, over the slice's variables.  The slice is mapped as one
    tagged batch: its j-th entry carries j in one extra trailing
    exponent position, which op does not read, so one
    ``operators.form_map`` over the slice's variables, op's and the tag
    gives every image at once.  Each term of the batch image is the entry
    at (its exponent without the tag, its tag) of the image numerators,
    which span the same kernel as the images.
    """
    from .operators import _chain_order, form_map  # operators imports this module

    if not slice_monomials:
        return []
    vs, _ = _chain_order(slice_monomials, [op])
    tag = "tag"
    while tag in vs:
        tag += "'"
    order = vs + (tag,)
    batch = _shifted_sum([(_int_form(p, order), j, 1) for j, p in enumerate(slice_monomials)], len(vs))
    image = form_map(op, order)(batch)
    # rows index the support of the images, columns the slice polynomials
    rows = {}
    for exp, a in image.re.items():
        rows.setdefault(exp[:-1], {})[exp[-1]] = a
    for exp, b in image.im.items():
        row = rows.setdefault(exp[:-1], {})
        row[exp[-1]] = GaussianRational(row.get(exp[-1], 0), b)
    pivots = _row_reduce(list(rows.values()), reduced=True)
    vars_ = tuple(dict.fromkeys(v for p in slice_monomials for v in p.vars))
    laurent = frozenset().union(*(p.laurent for p in slice_monomials))
    forms = [_int_form(p, vars_) for p in slice_monomials]
    return [
        _sum_forms(forms[j].scaled(v) for j, v in vec.items()).to_poly(vars_, laurent)
        for vec in _kernel_vectors(pivots, len(slice_monomials)).values()
    ]
