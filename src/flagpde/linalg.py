"""Exact linear algebra over the rationals and Gaussian rationals, on integers.

Matrices are lists of rows of ints, Fractions or GaussianRationals.
Elimination works on sparse rows, dicts from column to nonzero entry, so
zero cells cost nothing.  Polynomial ranks build those rows straight from
the polynomials' integer numerators, slice kernels from the numerators of
one tagged image of the whole slice.

Exact elimination runs on integers only.  Each row is scaled once, on
entry, by the lcm of its denominators; when any entry is Gaussian, every
entry becomes a pair (re, im) of ints, an element of Z[i].  A pivot row
leading with L at column c clears that column from a row whose entry there
is a by the fraction-free step row <- L*row - a*prow, with L and a first
divided by gcd(L, a), and the result is divided by its content, the gcd of
all its integer parts.  These exact integer divisions are the only
divisions of the elimination.  Stored pivot rows are primitive and lead
with a positive integer (a Z[i] row is first multiplied by the conjugate
of its lead).  A kernel vector is read off as integers over the lcm of the
pivot leads it touches.

A rank needs no elimination when the nonempty rows have pairwise
distinct first columns: such rows are independent, so their count is the
rank; polynomials whose lexicographically least exponents differ are such
rows.  Otherwise the rank is the pivot count of the integer elimination.
Nullspaces and slice kernels run the same elimination through to the
reduced row echelon form, which is unique up to the scale of each row for
a fixed column order, so kernel bases are canonical.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .combinatorics import tuples_with_sum, tuples_with_sum_at_most
from .operators import _chain_order, form_map
from .poly import (GaussianRational, Polynomial, _int_form, _nonzero, _parts, _reduced, _tag_variable, _tagged,
                   _untagged)

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

def _row_reduce(rows, reduced=False):
    """Sparse fraction-free elimination; returns {pivot column: pivot row}.

    Each row is a dict {column: nonzero entry}; columns are any mutually
    comparable keys.  The rows are first scaled to integers
    (``_integer_rows``) and eliminated without fractions: every pivot row is
    primitive, with int entries (or (re, im) int pairs over Z[i]), and leads
    with a positive integer.  No pivot row holds an earlier pivot column
    (row echelon form).  With ``reduced`` every pivot column is also cleared
    from the other pivot rows (reduced row echelon form, up to the scale of
    each row).  The input rows are left unchanged.
    """
    pivots = {}
    for row in _integer_rows(rows):
        row = _remainder(row, pivots)
        if row:
            c = min(row)
            pivots[c] = _primitive(row, c)
    if reduced:
        # last pivot first, so each pivot row is already clear of the later
        # pivot columns when it is subtracted from the rows above it
        order = sorted(pivots)
        for i in reversed(range(len(order))):
            c, prow = order[i], pivots[order[i]]
            for earlier in order[:i]:
                if c in pivots[earlier]:
                    pivots[earlier] = _eliminate(pivots[earlier], prow, c)
    return pivots


def _remainder(row, pivots):
    """row reduced by the pivot rows of a ``_row_reduce`` result until its
    first column has no pivot; it is empty when row lies in their span.

    The row must be over the pivots' ring, ints or (re, im) int pairs; each
    step is the fraction-free ``_eliminate``, so the result is a nonzero
    integer multiple of row minus a combination of the pivot rows, divided
    by its content.  The input row is left unchanged.
    """
    row = dict(row)
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            break
        row = _eliminate(row, prow, c)
    return row


def _eliminate(row, prow, c):
    """row with its column c cleared by prow, which leads at c; row may be
    changed in place.

    prow leads with a positive integer L, and with a = row[c] the step is
    L*row - a*prow over Z or Z[i], first with gcd(L, a) divided out of both
    factors, then divided by the content of the result.
    """
    # a key missing from row gets -a * v, which is nonzero in an integral
    # domain, so an entry that cancels was present and can be deleted
    a = row[c]
    if type(a) is tuple:
        ar, ai = a
        lead = prow[c][0]
        g = gcd(lead, ar, ai)
        lead, ar, ai = lead // g, ar // g, ai // g
        if lead != 1:
            row = {k: (x * lead, y * lead) for k, (x, y) in row.items()}
        get = row.get
        for k, (vr, vi) in prow.items():
            x, y = get(k, (0, 0))
            x -= ar * vr - ai * vi
            y -= ar * vi + ai * vr
            if x or y:
                row[k] = (x, y)
            else:
                del row[k]
        g = gcd(*itertools.chain.from_iterable(row.values()))
        return row if g < 2 else {k: (x // g, y // g) for k, (x, y) in row.items()}
    lead = prow[c]
    g = gcd(lead, a)
    lead, a = lead // g, a // g
    if lead != 1:
        row = {k: x * lead for k, x in row.items()}
    get = row.get
    for k, v in prow.items():
        x = get(k, 0) - a * v
        if x:
            row[k] = x
        else:
            del row[k]
    g = gcd(*row.values())
    return row if g < 2 else {k: x // g for k, x in row.items()}


def _primitive(row, c):
    """The nonzero integer row over its content, with a positive integer
    lead at its first column c; a Z[i] row is first multiplied by the
    conjugate of its lead."""
    lead = row[c]
    if type(lead) is tuple:
        lr, li = lead
        if li:
            row = {k: (x * lr + y * li, y * lr - x * li) for k, (x, y) in row.items()}
            lr = row[c][0]
        g = gcd(*itertools.chain.from_iterable(row.values()))
        g = -g if lr < 0 else g
        return row if g == 1 else {k: (x // g, y // g) for k, (x, y) in row.items()}
    g = gcd(*row.values())
    g = -g if lead < 0 else g
    return row if g == 1 else {k: x // g for k, x in row.items()}


def _integer_rows(rows):
    """The rows scaled to integers, each by the lcm of its denominators.

    When any entry is Gaussian, a GaussianRational or an (re, im) pair of
    ints, every entry becomes an (re, im) pair of ints; rows of ints alone,
    or of int pairs alone, are kept."""
    rows = list(rows)
    types = set()
    for row in rows:
        types.update(map(type, row.values()))
    if types <= {int} or types == {tuple}:
        return rows
    if GaussianRational in types or tuple in types:
        out = []
        for row in rows:
            parts = {k: v if type(v) is tuple else _parts(v) for k, v in row.items()}
            d = lcm(*(x.denominator for pair in parts.values() for x in pair))
            out.append({
                k: (x.numerator * (d // x.denominator), y.numerator * (d // y.denominator))
                for k, (x, y) in parts.items() if x or y
            })
        return out
    out = []
    for row in rows:
        d = lcm(*(x.denominator for x in row.values()))
        out.append({k: x.numerator * (d // x.denominator) for k, x in row.items() if x})
    return out


def _rank(rows) -> int:
    """Exact rank of sparse rows.

    When the nonempty rows have pairwise distinct first columns they are
    independent: the row with the smallest first column is the only one
    with an entry there, so any vanishing combination gives it weight 0,
    and so on down.  Else the rank is the pivot count of the integer
    elimination.
    """
    rows = [row for row in rows if row]
    if len({min(row) for row in rows}) == len(rows):
        return len(rows)
    return len(_row_reduce(rows))


def _sparse(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def matrix_rank(rows) -> int:
    """Exact rank of a matrix given as a list of rows."""
    return _rank(_sparse(rows))


def _integer_kernel(pivots, ncols):
    """The kernel basis of a reduced ``_row_reduce`` result without p, as
    {free column: (den, vector)}, one entry per free column.

    The vector is sparse, {column: int or (re, im) int pair}, over the
    positive integer den, the lcm of the leads of the pivot rows with an
    entry at the free column: den at the free column, zero at the other
    free columns, and -row[fc] * (den // lead) at the pivot column of each
    such row.
    """
    # a Z[i] lead is the pair (L, 0)
    leads = {pc: prow[pc][0] if type(prow[pc]) is tuple else prow[pc] for pc, prow in pivots.items()}
    touching = {fc: {} for fc in range(ncols) if fc not in pivots}
    for pc, prow in pivots.items():
        for fc, v in prow.items():
            if fc != pc:
                touching[fc][pc] = v
    kernel = {}
    for fc, entries in touching.items():
        den = lcm(*map(leads.__getitem__, entries))
        vec = {fc: den}
        for pc, v in entries.items():
            k = den // leads[pc]
            vec[pc] = (-v[0] * k, -v[1] * k) if type(v) is tuple else -v * k
        kernel[fc] = den, vec
    return kernel


def _kernel_vectors(pivots, ncols):
    """Sparse kernel basis {column: entry}, one per free column, from a
    reduced ``_row_reduce`` result: ``_integer_kernel`` over its
    denominators, exact rationals with 1 at the free column."""
    kernel = {}
    for fc, (den, vec) in _integer_kernel(pivots, ncols).items():
        kernel[fc] = {
            c: GaussianRational(Fraction(v[0], den), Fraction(v[1], den))
            if type(v) is tuple else Fraction(v, den)
            for c, v in vec.items()
        }
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
    dimension of the span unchanged.  The entries are ints, or (re, im)
    int pairs in every row when any polynomial is Gaussian."""
    vars_ = tuple(dict.fromkeys(v for p in polys for v in p.vars))
    forms = [_int_form(p, vars_) for p in polys]
    if any(f.im for f in forms):
        return [{e: (f.re.get(e, 0), f.im.get(e, 0)) for e in {**f.re, **f.im}} for f in forms]
    return [f.re for f in forms]


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
    vars = tuple(vars)
    return [Polynomial(vars, {exp: Fraction(1)}) for exp in tuples_with_sum(len(vars), degree)]


def monomials_up_to_degree(vars, degree: int):
    vars = tuple(vars)
    return [
        Polynomial(vars, {exp: Fraction(1)})
        for exp in tuples_with_sum_at_most(len(vars), degree)
    ]


def bidegree_monomials(x_vars, y_vars, deg_x: int, deg_y: int):
    """Monomials homogeneous of degree deg_x in x_vars and deg_y in y_vars."""
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
    in slice order, over the slice's variables.  The slice numerators are
    brought to one denominator once.  The slice is mapped as one tagged
    batch (``poly._tagged``): its j-th entry carries j in one extra
    trailing exponent position, which op does not read, so one
    ``operators.form_map`` over the slice's variables, op's and the tag
    gives every image at once.  Each term of the batch image is the entry
    at (its exponent without the tag, its tag) of the image numerators
    (``poly._untagged``), which span the same kernel as the images; a
    slice longer than a tag field holds raises ExponentRangeError.  Each
    kernel polynomial is one pass over the slice numerators
    (``_combinations``).
    """
    if not slice_monomials:
        return []
    vs, _ = _chain_order(slice_monomials, [op])
    # the slice's variables lead vs; op's own variables follow
    vars_ = tuple(dict.fromkeys(v for p in slice_monomials for v in p.vars))
    forms = [_int_form(p, vars_) for p in slice_monomials]
    # op's own variables pad the keys between the slice's and the tag
    batch = _tagged(forms, len(vs) - len(vars_))
    # rows index the support of the images, columns the slice polynomials;
    # a Gaussian image gives (re, im) entries
    rows = _untagged(form_map(op, vs + (_tag_variable(vs),))(batch))
    pivots = _row_reduce(list(rows.values()), reduced=True)
    laurent = frozenset().union(*(p.laurent for p in slice_monomials))
    kernel = _integer_kernel(pivots, len(slice_monomials)).values()
    d = lcm(*(f.den for f in forms))
    return [form.to_poly(vars_, laurent) for form in _combinations(forms, d, kernel, len(vars_))]


def _combinations(forms, d, kernel, n):
    """The forms over n variables sum_j vec[j] N_j (d / den_j) / (den d)
    for the (den, vec) of ``_integer_kernel``, vec sparse with int or
    (re, im) int pair entries, N_j = re_j + i im_j the numerators of
    forms[j] over den_j and d their lcm: each one pass over the numerators
    it touches, reduced once."""
    out = []
    for den, vec in kernel:
        re, im = {}, {}
        for j, v in vec.items():
            f, k = forms[j], d // forms[j].den
            v, vi = (v[0] * k, v[1] * k) if type(v) is tuple else (v * k, 0)
            if vi:
                # (v + i vi)(a + i b) = v a - vi b + i (v b + vi a)
                for e, b in f.im.items():
                    re[e] = re.get(e, 0) - vi * b
                for e, a in f.re.items():
                    im[e] = im.get(e, 0) + vi * a
            for e, a in f.re.items():
                re[e] = re.get(e, 0) + v * a
            for e, b in f.im.items():
                im[e] = im.get(e, 0) + v * b
        out.append(_reduced(_nonzero(re), _nonzero(im), den * d, n))
    return out
