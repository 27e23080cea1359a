"""Sparse certified rank and exact nullspaces against a dense Gauss-Jordan oracle."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flagpde as fp
from flagpde import lie
from flagpde.linalg import (
    _aligned,
    _integer_rows,
    _kernel_vectors,
    _numerator_rows,
    _remainder,
    _row_reduce,
    bidegree_monomials,
    kernel_on_slice,
    matrix_rank,
    monomials_of_degree,
    nullspace,
    polys_rank,
    polys_to_matrix,
)
from flagpde.combinatorics import tuples_with_sum
from flagpde.poly import EXP_MAX, IMAG, ExponentRangeError, GaussianRational

from oracles import (
    dense_nullspace,
    dense_rank,
    dense_rref,
    kernel_on_slice_per_monomial,
    tuples_with_sum_recursive,
)
from strategies import gaussian_coefficients, polynomials

# a 61-bit prime P = 1 (mod 4) and a square root of -1 mod P: entries and
# denominators divisible by P, and rows that lose rank mod P, are exact-rank
# edge cases for any elimination that works modulo a prime of this size
P = 2305843009213693921
SQRT_MINUS_ONE = 583529827753931384

SMALL = st.integers(-3, 3)
FRACTIONS = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=5))
GAUSSIANS = st.one_of(st.just(Fraction(0)), st.builds(GaussianRational, SMALL, SMALL))


@st.composite
def matrices(draw, entries):
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a combination of two rows, so that deficient ranks are common
        a, b = draw(entries), draw(entries)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows, ncols


def _agrees_with_oracle(rows, ncols):
    assert matrix_rank(rows) == dense_rank(rows, ncols)
    assert nullspace(rows, ncols) == dense_nullspace(rows, ncols)


@settings(max_examples=150, deadline=None)
@given(matrices(FRACTIONS))
def test_rank_and_nullspace_match_oracle_over_q(case):
    _agrees_with_oracle(*case)


@settings(max_examples=150, deadline=None)
@given(matrices(GAUSSIANS))
def test_rank_and_nullspace_match_oracle_over_gaussian_rationals(case):
    _agrees_with_oracle(*case)


# -- the integer elimination on large entries and denominators ----------------------

HUGE = st.one_of(SMALL, st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)))
# large denominators: the pairwise coprime primes P, 2^61 - 1, 2^89 - 1 and
# 2^127 - 1, and the multiples 3P and P^2 of P
LARGE_DENOMINATORS = st.sampled_from((1, P, 3 * P, P * P, 2**61 - 1, 2**89 - 1, 2**127 - 1))
LARGE_FRACTIONS = st.one_of(st.just(0), st.builds(Fraction, HUGE, LARGE_DENOMINATORS))
LARGE_GAUSSIANS = st.one_of(st.just(0), st.builds(GaussianRational, LARGE_FRACTIONS, LARGE_FRACTIONS))


def _is_integer_entry(v):
    return type(v) is int or (type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v))


def _exact(v):
    return GaussianRational(*v) if type(v) is tuple else Fraction(v)


def _integer_elimination_matches_oracle(rows, ncols):
    """The integer RREF holds only ints or int pairs, its rows are primitive
    with positive integer leads, each row over its lead is the dense RREF's
    row, and every input row reduces to zero against it."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    pivots = _row_reduce(sparse, reduced=True)
    rref, pivot_columns = dense_rref(rows, ncols)
    assert sorted(pivots) == pivot_columns
    for c, want in zip(pivot_columns, rref):
        prow = pivots[c]
        assert all(_is_integer_entry(v) for v in prow.values())
        lead = _exact(prow[c])
        assert (lead.im == 0 and lead.re > 0) if isinstance(lead, GaussianRational) else lead > 0
        parts = [x for v in prow.values() for x in (v if type(v) is tuple else (v,))]
        assert math.gcd(*parts) == 1
        assert [_exact(prow.get(j, 0)) / lead for j in range(ncols)] == want
    assert all(not _remainder(row, pivots) for row in _integer_rows(sparse))
    _agrees_with_oracle(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(matrices(HUGE))
def test_integer_elimination_on_entries_beyond_64_bits(case):
    _integer_elimination_matches_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(matrices(LARGE_FRACTIONS))
@example(([[Fraction(1, P), Fraction(1, 2**61 - 1)], [Fraction(1, 3 * P), Fraction(1, 3 * (2**61 - 1))]], 2))
def test_integer_elimination_on_large_coprime_denominators(case):
    _integer_elimination_matches_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(matrices(st.one_of(GAUSSIANS, LARGE_GAUSSIANS)))
@example(([[1, IMAG], [IMAG, -1]], 2))
@example(([[GaussianRational(2, 3), IMAG, 1], [0, GaussianRational(0, 5), Fraction(1, P)]], 3))
def test_integer_elimination_on_gaussian_entries(case):
    _integer_elimination_matches_oracle(*case)


@settings(max_examples=60, deadline=None)
@given(st.lists(polynomials(vars=("x", "y", "z"), max_terms=4, max_exp=2), max_size=6))
def test_polys_rank_matches_oracle(polys):
    nonzero = [p for p in polys if not p.is_zero()]
    rows, keys, _ = polys_to_matrix(nonzero) if nonzero else ([], [], ())
    assert polys_rank(polys) == dense_rank(rows, len(keys))


@st.composite
def rows_with_drawn_leads(draw):
    """Dense rows, each with a drawn first nonzero column, pairwise distinct
    or free to collide, and zero rows put in among them."""
    entries = draw(st.sampled_from((FRACTIONS, GAUSSIANS)))
    ncols, distinct = draw(st.integers(1, 5)), draw(st.booleans())
    leads = draw(st.lists(st.integers(0, ncols - 1), max_size=ncols if distinct else 6, unique=distinct))
    rows = [
        [0] * c + [draw(entries.filter(bool))] + [draw(entries) for _ in range(ncols - c - 1)]
        for c in leads
    ]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows, ncols, distinct


@settings(max_examples=150, deadline=None)
@given(rows_with_drawn_leads())
def test_rank_certificate_of_distinct_first_columns(case):
    """Rows with pairwise distinct first columns get their count as the rank
    without any elimination; colliding ones still match the dense oracle."""
    rows, ncols, distinct = case
    want = dense_rank(rows, ncols)
    if distinct:
        assert want == sum(1 for row in rows if any(row))
        with mock.patch("flagpde.linalg._row_reduce", side_effect=AssertionError("eliminated")):
            assert matrix_rank(rows) == want
    assert matrix_rank(rows) == want


def test_entry_divisible_by_p_falls_back():
    assert matrix_rank([[P]]) == 1
    assert matrix_rank([[Fraction(P, 3)]]) == 1
    assert nullspace([[P, 1]], 2) == [[Fraction(-1, P), Fraction(1)]]


def test_rank_collapsing_mod_p_falls_back():
    rows = [[1, SQRT_MINUS_ONE], [SQRT_MINUS_ONE, -1]]
    assert dense_rank(rows, 2) == 2
    assert matrix_rank(rows) == 2
    assert nullspace(rows, 2) == []


def test_gaussian_rows_use_the_image_of_i():
    assert matrix_rank([[1, IMAG], [IMAG, -1]]) == 1
    assert matrix_rank([[1, IMAG], [1, -IMAG]]) == 2
    assert nullspace([[1, IMAG], [IMAG, -1]], 2) == [[-IMAG, Fraction(1)]]


def test_denominator_divisible_by_p_falls_back():
    rows = [[Fraction(1, P), Fraction(1)], [Fraction(1), Fraction(P)]]
    assert matrix_rank(rows) == dense_rank(rows, 2) == 1
    rows = [[Fraction(1, P), Fraction(2)], [Fraction(1), Fraction(P)]]
    assert matrix_rank(rows) == dense_rank(rows, 2) == 2


def test_g2_bracket_rows():
    # rows of rational parts and sqrt(2) parts, as g2_bracket_report builds them
    mats = lie.g2_matrices()
    names = sorted(mats)
    columns = [(i, j, s) for i in range(1, 8) for j in range(1, 8) for s in (0, 1)]

    def dense(m):
        row = lie._as_row(m)
        return [row.get(c, 0) for c in columns]

    basis = [dense(mats[n]) for n in names]
    width = len(columns)
    assert matrix_rank(basis) == dense_rank(basis, width) == 14
    for a, b in itertools.islice(itertools.combinations(names, 2), 6):
        rows = basis + [dense(lie.mat_bracket(mats[a], mats[b]))]
        assert matrix_rank(rows) == dense_rank(rows, width) == 14
    assert matrix_rank(basis + [[Fraction(1)] * width]) == 15


def _adjacent_mixes(polys):
    return [a + 3 * b for a, b in zip(polys, polys[1:])]


@pytest.mark.parametrize("family", [
    pytest.param(lambda: fp.harmonic_basis(4, 5), id="harmonic n=4 cap 5"),
    pytest.param(lambda: fp.dissipative_wave_basis(3, 4), id="dissipative n=3 cap 4"),
])
def test_polys_rank_of_families_with_colliding_leading_monomials(family):
    """Adjacent mixes a + 3b of a family's elements are independent, but their
    least exponents collide, so the rank comes from the elimination; with
    the elements themselves added the span stays the family's."""
    sols = family().solutions()
    mixes = _adjacent_mixes(sols)
    assert len({min(row) for row in _numerator_rows(mixes)}) < len(mixes)
    for polys, want in ((mixes, len(mixes)), (sols + mixes, len(sols))):
        rows, keys, _ = polys_to_matrix(polys)
        assert polys_rank(polys) == dense_rank(rows, len(keys)) == want


@pytest.mark.parametrize("length", range(7))
def test_tuples_with_sum_matches_the_recursive_enumeration(length):
    """Stars and bars lists the tuples in the recursive generator's order,
    which the family indices and the slice columns follow."""
    for total in range(-1, 11):
        assert list(tuples_with_sum(length, total)) == list(tuples_with_sum_recursive(length, total))


def test_empty_and_zero_rows():
    assert matrix_rank([]) == 0
    assert matrix_rank([[], []]) == 0
    assert matrix_rank([[0, 0], [Fraction(0), GaussianRational()]]) == 0
    assert matrix_rank([[0, 0], [0, 3]]) == 1
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert nullspace([[0, 0, 0]], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert polys_rank([]) == 0
    assert polys_rank([fp.Polynomial.zero(("x",))]) == 0
    assert polys_rank([fp.variable("x"), fp.Polynomial.zero(("y",)), 2 * fp.variable("x")]) == 1


def _terms(polys):
    return [{e: str(c) for e, c in p.terms.items()} for p in polys]


def _kernel_by_products_and_sums(op, slice_monomials):
    """kernel_on_slice with the images taken by op itself and each kernel
    vector assembled one Polynomial product and one sum per entry."""
    images, _ = _aligned([op(m) for m in slice_monomials])
    rows = {}
    for j, terms in enumerate(images):
        for key, c in terms.items():
            rows.setdefault(key, {})[j] = c
    out = []
    for vec in _kernel_vectors(_row_reduce(list(rows.values()), reduced=True), len(slice_monomials)).values():
        p = fp.Polynomial.zero()
        for j in sorted(vec):
            p = p + slice_monomials[j] * vec[j]
        out.append(p)
    return out


@pytest.mark.parametrize("op, slice_", [
    (lie.sl_laplacian(3), bidegree_monomials(("x1", "x2", "x3"), ("y1", "y2", "y3"), 3, 3)),
    (fp.Sum(fp.Derivative(f"x{i}", 2) for i in range(1, 5)), monomials_of_degree(("x1", "x2", "x3", "x4"), 6)),
    (fp.Sum(fp.Derivative(f"x{i}", 2) for i in range(1, 4)),
     [(Fraction(j % 5 + 1, j % 3 + 2) + Fraction(1, j + 2) * IMAG) * m
      for j, m in enumerate(monomials_of_degree(("x1", "x2", "x3"), 4))]),
], ids=["sl3 bidegree (3, 3)", "laplacian n=4 degree 6", "laplacian n=3 degree 4, mixed denominators"])
def test_kernel_on_slice_matches_the_assembly_by_products_and_sums(op, slice_):
    got = kernel_on_slice(op, slice_)
    want = _kernel_by_products_and_sums(op, slice_)
    assert len(got) == len(want) > 0
    assert [(p.vars, p.terms) for p in got] == [(p.vars, p.terms) for p in want]


def test_kernel_on_slice_refuses_more_entries_than_a_tag_field_holds():
    slice_ = [fp.Polynomial(("x", "y"), {(j % 128, j // 128): 1}) for j in range(EXP_MAX + 2)]
    with pytest.raises(ExponentRangeError, match="at most 16384 entries, got 16385"):
        kernel_on_slice(fp.Derivative("x"), slice_)


def test_kernel_on_slice_with_gaussian_entries_on_a_gaussian_slice():
    """d^2/dx^2 + i d^2/dy^2 on (1 + j i) times the j-th cubic: the kernel
    vectors have Gaussian entries, and the slice polynomials imaginary parts."""
    op = fp.Sum((fp.Derivative("x", 2), fp.Compose(fp.Scale(IMAG), fp.Derivative("y", 2))))
    slice_ = [(1 + j * IMAG) * m for j, m in enumerate(monomials_of_degree(("x", "y"), 3))]
    got = kernel_on_slice(op, slice_)
    assert len(got) == 2 and all(op(p).is_zero() for p in got)
    assert any(isinstance(c, GaussianRational) for p in got for c in p.terms.values())
    want = _kernel_by_products_and_sums(op, slice_)
    assert [(p.vars, p.terms) for p in got] == [(p.vars, p.terms) for p in want]


def test_polys_rank_of_harmonic_solutions_and_their_combinations():
    s = fp.harmonic_basis(3, 4).solutions()
    m = [a + 3 * b for a, b in zip(s, s[1:])]
    assert polys_rank(m) == len(m) == 24 and polys_rank(s + m) == len(s) == 25


def test_kernel_on_slice_of_the_laplacian_and_the_cauchy_riemann_operator():
    xs = ("x1", "x2", "x3")
    assert len(kernel_on_slice(fp.Sum(fp.Derivative(v, 2) for v in xs), monomials_of_degree(xs, 9))) == 19
    cauchy_riemann = fp.Sum((fp.Derivative("x", 1), fp.Compose(fp.Scale(fp.IMAG), fp.Derivative("y", 1))))
    assert len(kernel_on_slice(cauchy_riemann, monomials_of_degree(("x", "y"), 5))) == 1


def test_kernel_on_slice_canonical_basis_is_pinned():
    op = fp.Sum((
        fp.Compose(fp.Scale(Fraction(2)), fp.Derivative("x1", 2)),
        fp.Compose(fp.Scale(Fraction(3)), fp.Derivative("x2", 2)),
        fp.Derivative("x3", 1),
    ))
    assert _terms(kernel_on_slice(op, monomials_of_degree(("x1", "x2", "x3"), 3))) == [
        {(0, 3, 0): "-2/9", (2, 1, 0): "1"},
        {(1, 2, 0): "-2", (3, 0, 0): "1"},
    ]
    lap = fp.Sum(fp.Derivative(v, 2) for v in ("x1", "x2", "x3"))
    assert _terms(kernel_on_slice(lap, monomials_of_degree(("x1", "x2", "x3"), 2))) == [
        {(0, 1, 1): "1"},
        {(0, 2, 0): "1", (0, 0, 2): "-1"},
        {(1, 0, 1): "1"},
        {(1, 1, 0): "1"},
        {(2, 0, 0): "1", (0, 0, 2): "-1"},
    ]
    cauchy_riemann = fp.Sum((fp.Derivative("x1", 1), fp.Compose(fp.Scale(IMAG), fp.Derivative("x2", 1))))
    assert _terms(kernel_on_slice(cauchy_riemann, monomials_of_degree(("x1", "x2"), 3))) == [
        {(3, 0): "1", (2, 1): "3i", (1, 2): "-3", (0, 3): "-1i"},
    ]


# -- the tagged slice kernel against one image per slice polynomial ---------------------

_SLICE_VARS = st.sampled_from((("x", "y"), ("y", "x"), ("x", "y", "z")))


@st.composite
def kernel_slices(draw):
    """Graded and bidegree monomial slices, and lists of polynomials with
    several terms, Gaussian coefficients or the Laurent variable x, over
    drawn variable orders."""
    kind = draw(st.sampled_from(("graded", "bidegree", "polys")))
    if kind == "graded":
        return monomials_of_degree(draw(_SLICE_VARS), draw(st.integers(0, 4)))
    if kind == "bidegree":
        return bidegree_monomials(("x", "y"), ("z",), draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    laurent = draw(st.sampled_from(((), ("x",))))
    coeffs = draw(st.sampled_from((None, gaussian_coefficients())))
    entry = _SLICE_VARS.flatmap(lambda vs: polynomials(vs, max_terms=3, max_exp=3, laurent=laurent,
                                                       coeffs=coeffs))
    return draw(st.lists(entry, min_size=1, max_size=6))


@st.composite
def slice_operators(draw):
    """Sums of products of coefficients and derivatives of order 0-2 over
    x, y, z and w (w is in no slice), some with Gaussian coefficients, some
    with an integration in y or w, which has no normal form."""
    derivative = st.builds(fp.Derivative, st.sampled_from("xyzw"), st.integers(0, 2))
    coefficient = polynomials(("x", "y", "w"), max_terms=2, max_exp=1,
                              coeffs=draw(st.sampled_from((None, gaussian_coefficients()))))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        c, d = draw(coefficient), draw(derivative)
        parts.append(draw(st.sampled_from((fp.Compose(fp.MultiplyBy(c), d), fp.Compose(d, fp.MultiplyBy(c))))))
    if draw(st.booleans()):
        parts.append(fp.Integrate(draw(st.sampled_from("yw"))))
    return fp.Sum(parts)


def _kernel_fields(polys):
    return [(p.vars, p.laurent, p.terms) for p in polys]


_CAUCHY_RIEMANN = fp.Sum((fp.Derivative("x", 1), fp.Compose(fp.Scale(IMAG), fp.Derivative("y", 1))))


@settings(max_examples=120, deadline=None)
@given(kernel_slices(), slice_operators())
@example(monomials_of_degree(("x", "y"), 3), _CAUCHY_RIEMANN)
@example(monomials_of_degree(("x", "y"), 2), fp.Sum((fp.Derivative("x", 1), fp.Integrate("y"))))
@example(monomials_of_degree(("x", "y"), 2), fp.Compose(fp.MultiplyBy(fp.variable("w")), fp.Derivative("w", 1)))
@example([fp.Polynomial(("x", "y"), {(-2, 1): 1, (1, 0): 3}, ("x",)), fp.variable("x") * fp.variable("y")],
         fp.Compose(fp.MultiplyBy(fp.variable("x") ** 2), fp.Derivative("x", 1)))
def test_tagged_kernel_matches_the_per_monomial_oracle(slice_, op):
    assert _kernel_fields(kernel_on_slice(op, slice_)) == _kernel_fields(
        kernel_on_slice_per_monomial(op, slice_)
    )


def _certify_slices():
    """The operators and slices of the certify kernels, at both turns."""
    xv = lambda n: tuple(f"x{i}" for i in range(1, n + 1))
    laplacian = lambda vs: fp.Sum(fp.Derivative(v, 2) for v in vs)
    wave = fp.Sum((fp.Derivative("t", 2), fp.Compose(fp.Scale(Fraction(-1)), fp.Derivative("x", 2)),
                   fp.Compose(fp.Scale(Fraction(-1)), fp.Derivative("y", 2))))
    yv = ("y1", "y2", "y3")
    return (
        [pytest.param(laplacian(xv(3)), monomials_of_degree(xv(3), d), id=f"laplacian n=3 degree {d}")
         for d in (9, 10)]
        + [pytest.param(laplacian(xv(4)), monomials_of_degree(xv(4), d), id=f"laplacian n=4 degree {d}")
           for d in (5, 6)]
        + [pytest.param(wave, monomials_of_degree(("t", "x", "y"), d), id=f"wave degree {d}") for d in (9, 10)]
        + [pytest.param(lie.sl_laplacian(3), bidegree_monomials(xv(3), yv, a, b), id=f"contraction ({a}, {b})")
           for a, b in ((2, 2), (2, 3), (3, 2), (3, 3))]
    )


@pytest.mark.parametrize("op, slice_", _certify_slices())
def test_certify_kernels_match_the_per_monomial_oracle(op, slice_):
    got = kernel_on_slice(op, slice_)
    assert got
    assert _kernel_fields(got) == _kernel_fields(kernel_on_slice_per_monomial(op, slice_))
