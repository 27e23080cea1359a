import ast
import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flagpde
from flagpde import (
    BasisElement,
    BasisFamily,
    Compose,
    Derivative,
    FlagEquationSpec,
    GaussianRational,
    Integrate,
    MultiplyBy,
    NestedRightInverse,
    Polynomial,
    Scale,
    SeriesConfig,
    Sum,
    VerificationError,
    anisymmetric_basis,
    constant,
    constant_coefficient_basis,
    dissipative_wave_basis,
    flag_basis,
    g2_module_basis,
    harmonic_basis,
    harmonic_module_basis,
    power_perturbation_solve,
    riemannian_to_tx,
    riemannian_wave_solution,
    sl_module_basis,
    solve_by_series,
    twisted_flag_solve,
    variable,
)
from flagpde import bases
from flagpde.bases import ChainError, harmonic_element
from flagpde.combinatorics import tuples_with_sum_at_most
from flagpde.linalg import kernel_on_slice, monomials_of_degree, polys_in_span
from flagpde.operators import (
    FormApplicator,
    KernelPreconditionError,
    NotAFlagSystemError,
    OperatorHypothesisError,
    _chain_order,
    differential_form,
    form_map,
    forms_commute,
    operator_variables,
    operators_agree_on_sample,
)
from flagpde.poly import EXP_MAX, IMAG, ExponentRangeError, _int_form

from oracles import (
    agree_on_monomials,
    assert_family_spans_kernel,
    assert_reduced,
    constant_element_by_fractions,
    flag_basis_per_prefix,
    flag_basis_unshared,
    harmonic_element_by_fractions,
    power_perturbation_by_tuples,
    sigma_word_value,
    typed_terms,
)
from strategies import coefficients, gaussian_coefficients, polynomials

x1, x2, x3 = variable("x1"), variable("x2"), variable("x3")


def _element(family, **index):
    for e in family.elements:
        if all(e.index.get(k) == v for k, v in index.items()):
            return e.solution
    raise AssertionError(f"no element with index {index}")


# -- constant coefficients -------------------------------------------------------

def test_constant_basis_order22_examples():
    fam = constant_coefficient_basis((2, 2), 3)
    assert _element(fam, ell=(1, 2)) == x1 * x2**2 - x1**3 / Fraction(3)
    assert _element(fam, ell=(0, 0)) == constant(1).with_variables(("x1", "x2"))


def test_constant_basis_first_order():
    fam = constant_coefficient_basis((1, 1), 2)
    assert _element(fam, ell=(0, 1)) == x2 - x1


def test_constant_basis_completeness_small():
    fam = constant_coefficient_basis((2, 2), 5)
    assert_family_spans_kernel(fam, ("x1", "x2"), 5)


@pytest.mark.parametrize("orders, cap", [((2, 2), 5), ((3, 2, 2), 4), ((1, 3, 2, 2), 4)])
def test_constant_elements_match_fraction_products(orders, cap):
    """Integer numerators over one denominator give each coefficient the
    value and the exact type of the Fraction product formula."""
    fam = constant_coefficient_basis(orders, cap)
    for e in fam.elements:
        want = constant_element_by_fractions(orders, e.index["ell"], e.solution.vars)
        assert typed_terms(e.solution) == typed_terms(want)


@given(st.lists(st.integers(1, 3), min_size=2, max_size=4), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_constant_element_tables_match_fraction_products(orders, cap):
    """The per-variable integer tables give each coefficient the value and
    the exact type of the Fraction product formula."""
    fam = constant_coefficient_basis(orders, cap)
    for e in fam.elements:
        want = constant_element_by_fractions(orders, e.index["ell"], e.solution.vars)
        assert typed_terms(e.solution) == typed_terms(want)


def test_constant_basis_mixed_orders_completeness():
    fam = constant_coefficient_basis((3, 2), 6)
    assert_family_spans_kernel(fam, ("x1", "x2"), 4)


# -- harmonic polynomials -----------------------------------------------------------

def test_harmonic_examples():
    fam = harmonic_basis(2, 3)
    assert _element(fam, eps=0, ell=(2,)) == x2**2 - x1**2
    fam3 = harmonic_basis(3, 2)
    assert _element(fam3, eps=1, ell=(0, 0)) == x1.with_variables(("x1", "x2", "x3"))


def test_harmonic_degree4_dimension_matches_kernel():
    fam = harmonic_basis(3, 4)
    deg4 = [e.solution for e in fam.elements if e.solution.total_degree() == 4]
    lap = Sum(Derivative(f"x{i}", 2) for i in range(1, 4))
    kernel = kernel_on_slice(lap, monomials_of_degree(("x1", "x2", "x3"), 4))
    assert len(deg4) == len(kernel) == 9
    assert polys_in_span(kernel, deg4) and polys_in_span(deg4, kernel)


def test_harmonic_agrees_with_constant_orders_two():
    fam_h = harmonic_basis(3, 4)
    fam_c = constant_coefficient_basis((2, 2, 2), 4)
    h = [e.solution for e in fam_h.elements]
    c = [e.solution for e in fam_c.elements if e.solution.total_degree() <= 5]
    assert polys_in_span(c, h)
    sols_h = [e.solution for e in fam_h.elements]
    c_small = [e.solution for e in fam_c.elements if e.solution.total_degree() <= 4]
    assert polys_in_span(sols_h, c_small)


@pytest.mark.parametrize("n, cap", [(2, 6), (3, 5), (4, 4)])
def test_harmonic_elements_match_fraction_products(n, cap):
    fam = harmonic_basis(n, cap)
    for e in fam.elements:
        want = harmonic_element_by_fractions(n, e.index["eps"], e.index["ell"])
        assert typed_terms(e.solution) == typed_terms(want)


@given(st.integers(0, 1), st.lists(st.integers(0, 14), min_size=1, max_size=4))
@example(1, [14, 13, 12, 11])
def test_harmonic_element_closed_form_matches_multinomials(eps, ells):
    """The closed-form coefficients equal the multinomial formula, type for type."""
    n = len(ells) + 1
    want = harmonic_element_by_fractions(n, eps, ells)
    assert typed_terms(harmonic_element(n, eps, ells)) == typed_terms(want)


@given(st.integers(2, 4), st.integers(0, 6))
@settings(max_examples=15, deadline=None)
def test_harmonic_basis_elements_are_reduced(n, cap):
    for e in harmonic_basis(n, cap).elements:
        assert_reduced(e.solution.form)


def test_harmonic_completeness():
    fam = harmonic_basis(3, 5)
    assert_family_spans_kernel(fam, ("x1", "x2", "x3"), 5)


# -- general flag equations -----------------------------------------------------------

def test_flag_basis_tricomi_examples():
    spec = FlagEquationSpec((2, 2), (x1,))
    fam = flag_basis(spec, 3)
    assert _element(fam, ell=(0, 1)) == x2
    assert _element(fam, ell=(0, 2)) == x2**2 - x1**3 / Fraction(3)


def test_flag_basis_completeness_tricomi():
    spec = FlagEquationSpec((2, 2), (x1,))
    fam = flag_basis(spec, 6)
    assert_family_spans_kernel(fam, ("x1", "x2"), 5)


def test_flag_basis_three_variable_closed_form():
    spec = FlagEquationSpec((2, 2, 2), (x1, x2))
    fam = flag_basis(spec, 4)
    produced = _element(fam, ell=(0, 2, 2))
    frozen = (
        x2**2 * x3**2
        - x1**3 * x3**2 / Fraction(3)
        - x1**2 * x2**3
        + x1**5 * x2 / Fraction(3)
    )
    assert produced == frozen
    independent = sigma_word_value((2, 2, 2), (1, 1), (0, 2, 2))
    assert produced == independent


def test_flag_basis_word_oracle_more_indices():
    spec = FlagEquationSpec((2, 2, 2), (x1, x2))
    fam = flag_basis(spec, 4)
    for ell in [(0, 2, 2), (1, 1, 2), (0, 0, 3), (1, 2, 1), (0, 4, 0)]:
        assert _element(fam, ell=ell) == sigma_word_value((2, 2, 2), (1, 1), ell)


@st.composite
def triangular_specs(draw, kinds=("int", "gaussian", "laurent")):
    """A flag equation of 1-4 blocks of orders 1-3 whose
    coefficients are small polynomials in the earlier variables, possibly
    zero: with integer or Gaussian-rational coefficients, or with rational
    ones and negative powers of the earlier variables."""
    n = draw(st.integers(1, 4))
    vs = ("x1", "x2", "x3", "x4")[:n]
    orders = tuple(draw(st.integers(1, 3)) for _ in vs)
    kind = draw(st.sampled_from(kinds))
    coeffs = {"int": st.sampled_from((-3, -2, -1, 1, 2, 3)), "gaussian": gaussian_coefficients(),
              "laurent": coefficients()}[kind]
    fs = tuple(draw(polynomials(vs[:k], max_terms=2, max_exp=1, laurent=vs[:k] if kind == "laurent" else (),
                                coeffs=coeffs)) for k in range(1, n))
    return FlagEquationSpec(orders, fs, vs)


def _built(elements):
    """Each element's index, variables, denominator and numerators."""
    return [(e.index, e.solution.vars, e.solution.form.den, e.solution.form.re, e.solution.form.im)
            for e in elements]


def _annihilated_elements(spec, cap):
    """The elements of flag_basis(spec, cap), whose family must pass
    ``BasisFamily.verify_annihilation``."""
    family = flag_basis(spec, cap)
    assert family.verify_annihilation()
    return family.elements


def _built_or_refused(build, spec, cap):
    """``_built`` of build(spec, cap), or the type and text of the ValueError it raised."""
    try:
        return _built(build(spec, cap))
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("batch", [None, 2], ids=["one chunk", "chunks of 2"])
@given(triangular_specs(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_flag_basis_matches_the_per_prefix_build(batch, spec, cap):
    """The level batches give every element the form, denominator and index
    order of the per-prefix build, and refuse the specs it refuses; chunks
    of 2 split every level of more than two prefixes.  Every family the
    chain law proved is annihilated, checked element by element.  The
    builds meet the faults of a spec in different orders, so a spec with
    negative powers of two variables, which can fail at either, must only
    be refused by both."""
    with pytest.MonkeyPatch.context() as patch:
        if batch:
            patch.setattr(bases, "_BATCH", batch)
        got = _built_or_refused(_annihilated_elements, spec, cap)
    want = _built_or_refused(flag_basis_per_prefix, spec, cap)
    negative = {v for c in spec.coefficients for exp in c.terms for v, e in zip(c.vars, exp) if e < 0}
    if len(negative) > 1 and isinstance(want, tuple):
        assert isinstance(got, tuple)
    else:
        assert got == want


@pytest.mark.parametrize("batch, count", [(bases._BATCH, 12), (3, 34), (2, 46)])
def test_flag_basis_maps_each_level_of_a_chunk_once(monkeypatch, batch, count):
    """One stage-inverse application per (stage, level, chunk): at level i
    of a stage, the prefixes whose cap room allows seed power (i+1) m of
    the next block, cut into chunks of at most ``_BATCH``."""
    spec, cap = FlagEquationSpec((2, 1, 2, 1), (x1 + 1, x2 - x1, x3)), 5
    calls = []
    apply = NestedRightInverse._apply_stage
    monkeypatch.setattr(NestedRightInverse, "_apply_stage",
                        lambda self, stage, q, vs: calls.append(stage) or apply(self, stage, q, vs))
    monkeypatch.setattr(bases, "_BATCH", batch)
    flag_basis(spec, cap)
    want = []
    for stage in range(1, len(spec.orders)):
        needs = [(cap - sum(rest)) // spec.orders[stage]
                 for _ in range(spec.orders[0]) for rest in tuples_with_sum_at_most(stage - 1, cap)]
        for i in range(max(needs)):
            want += [stage] * math.ceil(sum(need > i for need in needs) / batch)
    assert calls == want
    assert len(calls) == count


# the level batches and the per-prefix build, each giving a list of elements
FLAG_BUILDS = [pytest.param(lambda spec, cap: flag_basis(spec, cap).elements, id="levels"),
               pytest.param(flag_basis_per_prefix, id="per prefix")]


@pytest.mark.parametrize("build", FLAG_BUILDS)
def test_flag_basis_refuses_a_negative_power_of_a_block_variable(build):
    """The derivatives of x2^-1 never vanish, so stage 2 refuses it."""
    spec = FlagEquationSpec((1, 1, 1), (x1, Polynomial(("x1", "x2"), {(0, -1): 1}, ("x2",))))
    with pytest.raises(ValueError, match="nested right inverse: negative exponent in block variable x2"):
        build(spec, 2)


@pytest.mark.parametrize("build", FLAG_BUILDS)
def test_flag_basis_refuses_a_product_beyond_the_exponent_range(build):
    spec = FlagEquationSpec((2, 1), (x1**EXP_MAX,))
    with pytest.raises(ExponentRangeError):
        build(spec, 1)


def test_flag_basis_reads_back_a_family_with_an_order_above_the_bias():
    """A block of order 20000, above the 2^14 bias of a key field, kills
    every polynomial in x2 up to the cap, and the family's own
    annihilation check reads that order."""
    family = flag_basis(FlagEquationSpec((1, 20000), (x1,)), 2)
    assert [str(e.solution) for e in family.elements] == ["1", "x2", "x2^2"]
    assert family.verify_annihilation()


def test_flag_basis_names_its_tag_apart_from_the_spec_variables():
    """A coefficient over (tag, x) is put over the build's variables and
    the tag by its names, so a tag named like a spec variable would read
    that variable's exponent."""
    t, x = variable("tag"), variable("x")
    spec = FlagEquationSpec((2, 1, 2), (x + 1, t * x - 2), ("x", "tag", "y"))
    assert spec.coefficients[1].vars == ("tag", "x")
    assert _built(flag_basis(spec, 4).elements) == _built(flag_basis_per_prefix(spec, 4))


@given(triangular_specs(kinds=("int", "gaussian")), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_flag_basis_matches_the_flat_series(spec, cap):
    """The nested inverse and the flat series sum_i (-T1inv T2)^i of
    T1 = d^(m1)/dx1^(m1) and T2 = sum_k f_k d^(m_k)/dx_k^(m_k) give the
    same elements."""
    vs = spec.variables
    t2 = Sum(Compose(MultiplyBy(f), Derivative(v, m))
             for f, v, m in zip(spec.coefficients, vs[1:], spec.orders[1:]))
    cfg = SeriesConfig(Derivative(vs[0], spec.orders[0]), Integrate(vs[0], spec.orders[0]), t2)
    for e in flag_basis(spec, cap).elements:
        seed = math.prod((variable(v) ** l for v, l in zip(vs[1:], e.index["ell"][1:])), start=constant(1))
        assert solve_by_series(cfg, variable(vs[0]) ** e.index["ell"][0], seed) == e.solution


@given(st.lists(st.integers(1, 3), min_size=2, max_size=4).map(tuple), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_flag_basis_zero_coefficient_power_matches_constant(orders, cap):
    """Unit coefficients (power zero) degenerate to the constant-coefficient
    family: the nested inverse and the series lemma give the same elements,
    index for index, in the same variable and term order."""
    fam = flag_basis(FlagEquationSpec(orders, (constant(1),) * (len(orders) - 1)), cap)
    ref = constant_coefficient_basis(orders, cap)
    assert _built(fam.elements) == _built(ref.elements)
    assert [e.solution.to_json_terms() for e in fam.elements] == [e.solution.to_json_terms() for e in ref.elements]


@pytest.mark.parametrize("spec, cap", [
    (FlagEquationSpec((3, 2, 2), (x1**2 - 2, 0)), 4),
    (FlagEquationSpec((3, 1, 2, 1), (0, x1 * x2 + 1, x3 - x1)), 3),
    (FlagEquationSpec((3, 2, 1), (x1 + 1, Fraction(1, 2) * x1 * x2)), 4),
    (FlagEquationSpec((2, 2, 1), (IMAG * x1 - Fraction(2, 3), x2 + IMAG)), 4),
    (FlagEquationSpec((2, 1, 2, 1), (Fraction(-3, 2) * x1 + 1, x2 - x1, Fraction(1, 3) * x3)), 3),
])
def test_flag_basis_matches_unshared_build(spec, cap):
    """Shared prefixes and carried powers give each element exactly the
    polynomial, variable order and term order of a build from scratch."""
    fam = flag_basis(spec, cap)
    want = flag_basis_unshared(spec, cap)
    assert [e.index["ell"] for e in fam.elements] == [ell for ell, _ in want]
    for e, (_, sol) in zip(fam.elements, want):
        assert e.solution.vars == sol.vars
        assert e.solution.to_json_terms() == sol.to_json_terms()


@st.composite
def flag_specs(draw):
    """A flag equation of 2-3 blocks of orders 1-3 whose coefficients are
    small rational or Gaussian-rational polynomials, possibly zero."""
    n = draw(st.integers(2, 3))
    vs = ("x1", "x2", "x3")[:n]
    orders = tuple(draw(st.integers(1, 3)) for _ in vs)
    coeffs = draw(st.sampled_from((coefficients(), gaussian_coefficients())))
    fs = tuple(draw(polynomials(vars=vs[:k], max_terms=2, max_exp=2, coeffs=coeffs)) for k in range(1, n))
    return FlagEquationSpec(orders, fs, vs)


@given(flag_specs(), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_flag_basis_elements_are_reduced(spec, cap):
    for e in flag_basis(spec, cap).elements:
        assert_reduced(e.solution.form)


def test_flag_basis_higher_coefficient_powers():
    spec = FlagEquationSpec((2, 2, 2), (x1**2, x2**3))
    fam = flag_basis(spec, 3)
    assert len(fam) > 0  # generation asserts annihilation internally


def test_flag_spec_rejects_a_block_of_order_zero():
    """D^0 never kills a seed, so flag_basis would never return."""
    with pytest.raises(ValueError, match="positive"):
        FlagEquationSpec((2, 0), (x1,))
    with pytest.raises(ValueError, match="positive"):
        FlagEquationSpec((0, 2), (x1,))


def test_flag_spec_takes_its_variables_as_any_sequence():
    listed = FlagEquationSpec((2, 2), (x1,), ["x1", "x2"])
    family = flag_basis(listed, 3)
    assert listed.variables == ("x1", "x2")
    want = flag_basis(FlagEquationSpec((2, 2), (x1,), ("x1", "x2")), 3)
    assert [e.index for e in family.elements] == [e.index for e in want.elements]
    assert [e.solution for e in family.elements] == [e.solution for e in want.elements]


def test_flag_spec_rejects_a_repeated_variable_when_built():
    with pytest.raises(NotAFlagSystemError, match="repeated"):
        FlagEquationSpec((1, 1), (0,), ("x", "x"))
    assert issubclass(NotAFlagSystemError, ValueError)


def test_flag_spec_rejects_a_coefficient_of_a_later_variable_by_its_block():
    with pytest.raises(NotAFlagSystemError, match=r"x3 block depends on \['x3'\]"):
        FlagEquationSpec((2, 2, 2), (x1, x2 * x3))
    with pytest.raises(NotAFlagSystemError, match=r"x2 block depends on \['x2'\]"):
        FlagEquationSpec((1, 1), (x2,))


def test_flag_shape_is_checked_once_per_spec(monkeypatch):
    """The spec builds one nested inverse, and flag_basis runs every stage
    on it without building another."""
    built = []
    init = NestedRightInverse.__init__

    def counted(self, entries):
        built.append(self)
        init(self, entries)

    monkeypatch.setattr(NestedRightInverse, "__init__", counted)
    spec = FlagEquationSpec((2, 1, 2, 1), (x1 + 1, x2 - x1, x3))
    assert len(built) == 1
    flag_basis(spec, 3)
    assert len(built) == 1
    # the inverse was built from these coefficients, so they cannot change
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.coefficients = (x1, x2, x3)


# -- curved background wave --------------------------------------------------------------

def test_riemannian_decoupled():
    z0 = variable("z0")
    u = riemannian_wave_solution(
        {}, 2, z0**2, Polynomial.zero(("z1",)), constant(1).with_variables(("x2",)),
        Polynomial.zero(("x2",)),
    )
    assert u == z0**2


def test_riemannian_flat_metric():
    g = {(2, 2): constant(1).with_variables(("z1",))}
    u = riemannian_wave_solution(
        g, 2, constant(1).with_variables(("z0",)), Polynomial.zero(("z1",)),
        variable("x2") ** 2, Polynomial.zero(("x2",)),
    )
    assert u == variable("x2") ** 2 - variable("z0") * variable("z1")
    back = riemannian_to_tx(u)
    t, xx = variable("t"), variable("x1")
    assert back == variable("x2") ** 2 - xx**2 + t**2


def test_riemannian_linear_metric():
    g = {(2, 2): variable("z1")}
    u = riemannian_wave_solution(
        g, 2, constant(1).with_variables(("z0",)), Polynomial.zero(("z1",)),
        variable("x2") ** 2, Polynomial.zero(("x2",)),
    )
    assert u == variable("x2") ** 2 - variable("z0") * variable("z1") ** 2 / Fraction(2)


def test_riemannian_rejects_bad_coefficient():
    g = {(2, 2): variable("z0")}
    with pytest.raises(ValueError, match="flag-compatible"):
        riemannian_wave_solution(
            g, 2, constant(1).with_variables(("z0",)), Polynomial.zero(("z1",)),
            variable("x2") ** 2, Polynomial.zero(("x2",)),
        )


# -- commuting power perturbations ----------------------------------------------------------

def test_power_perturbation_wave():
    t, xx = variable("t"), variable("x")
    u = power_perturbation_solve(
        Derivative("t"), Integrate("t"), [Sum(()), Derivative("x", 2)], 2, t, xx**2
    )
    assert u == t * xx**2 + t**3 / Fraction(3)


def test_power_perturbation_trivial_when_perturbations_kill_seed():
    t, xx = variable("t"), variable("x")
    u = power_perturbation_solve(
        Derivative("t"), Integrate("t"), [Derivative("x", 3)], 1, constant(1).with_variables(("t",)), xx
    )
    assert u == xx.with_variables(("t", "x"))


def test_power_perturbation_m1_matches_series_engine():
    from flagpde import SeriesConfig, solve_by_series
    from flagpde.operators import Compose, Scale

    xx = variable("x")
    cfg = SeriesConfig(
        Derivative("t", 2), Integrate("t", 2),
        Compose(Scale(Fraction(-1)), Derivative("x", 2)),
    )
    for seed in (xx**2, xx**4 - xx, xx**3 + 2 * xx**2):
        u1 = power_perturbation_solve(
            Derivative("t", 2), Integrate("t", 2), [Derivative("x", 2)], 1,
            constant(1).with_variables(("t",)), seed,
        )
        u2 = solve_by_series(cfg, constant(1).with_variables(("t",)), seed)
        assert u1 == u2


def test_power_perturbation_rejects_noncommuting():
    t, xx = variable("t"), variable("x")
    from flagpde.operators import Compose, MultiplyBy

    bad = Compose(MultiplyBy(t), Derivative("t"))
    with pytest.raises(OperatorHypothesisError, match="commute"):
        power_perturbation_solve(Derivative("t"), Integrate("t"), [bad], 1, constant(1).with_variables(("t",)), xx)


def test_power_perturbation_rejects_an_output_outside_the_kernel():
    """T0inv is trusted, not proved: twice the integral makes the series
    wrong, and the residual check of the summed form sees it."""
    t, xx = variable("t"), variable("x")
    with pytest.raises(VerificationError, match="not annihilated exactly"):
        power_perturbation_solve(
            Derivative("t"), Compose(Scale(2), Integrate("t")), [Sum(()), Derivative("x", 2)], 2, t, xx**2
        )


def test_power_perturbation_rejects_a_seed_outside_the_kernel():
    t, xx = variable("t"), variable("x")
    with pytest.raises(KernelPreconditionError, match="kernel precondition"):
        power_perturbation_solve(Derivative("t"), Integrate("t"), [Derivative("x", 3)], 1, t, xx)


@pytest.mark.parametrize("power", [2, 4])
def test_power_perturbation_proves_commutation_in_every_degree(power):
    """[d/dt, t d^4/dx^4] = d^4/dx^4 vanishes on every polynomial of degree
    below 4, so a sample of low degree misses it; the normal forms see it
    whatever g is."""
    t, xx = variable("t"), variable("x")
    from flagpde.operators import Compose, MultiplyBy

    bad = Compose(MultiplyBy(t), Derivative("x", 4))
    with pytest.raises(OperatorHypothesisError, match="T0 does not commute with T1"):
        power_perturbation_solve(
            Derivative("t"), Integrate("t"), [bad], 1, constant(1).with_variables(("t",)), xx**power
        )


def test_power_perturbation_rejects_noncommuting_perturbations():
    """d/dx and x d/dy each commute with d/dt but not with each other."""
    xx = variable("x")
    from flagpde.operators import Compose, MultiplyBy

    perturbations = [Derivative("x"), Compose(MultiplyBy(xx), Derivative("y"))]
    with pytest.raises(OperatorHypothesisError, match="T1 and T2 do not commute"):
        power_perturbation_solve(
            Derivative("t"), Integrate("t"), perturbations, 2, constant(1).with_variables(("t",)), xx
        )



def test_power_perturbation_samples_an_operator_without_a_normal_form():
    """The integral in T1 has no normal form, so that pair is sampled:
    d/dt after (integral dt) d/dx keeps g_x, the other order drops g_x at t = 0."""
    xx = variable("x")
    bad = Compose(Integrate("t"), Derivative("x"))
    with pytest.raises(OperatorHypothesisError, match="T0 does not commute with T1"):
        power_perturbation_solve(Derivative("t"), Integrate("t"), [bad], 1, constant(1).with_variables(("t",)), xx)


def test_power_perturbation_refuses_a_series_that_never_dies():
    """Multiplication by x commutes with d/dt, and G_w = x^(w+1) never
    vanishes, so the series runs into its bound and is refused."""
    xx = variable("x")
    with pytest.raises(VerificationError, match="did not terminate"):
        power_perturbation_solve(
            Derivative("t"), Integrate("t"), [MultiplyBy(xx)], 1, constant(1).with_variables(("t",)), xx
        )


def test_power_perturbation_builds_each_normal_form_once(monkeypatch):
    """The series applies the normal forms built for the commutation proof;
    form_map builds only the residual's."""
    calls = []

    def counting(op, vs):
        calls.append(op)
        return form_map(op, vs)

    monkeypatch.setattr(flagpde.bases, "form_map", counting)
    t, xx, yy = variable("t"), variable("x"), variable("y")
    u = power_perturbation_solve(
        Derivative("t"), Integrate("t"), [Derivative("x", 2), Derivative("y", 2), Derivative("x")], 3, t, xx**3 * yy**2
    )
    assert not u.is_zero()
    assert len(calls) == 1


def test_power_perturbation_with_no_perturbation_is_zero():
    """T0^0 is the identity, so the precondition forces h = 0 and the sum is zero."""
    xx = variable("x")
    u = power_perturbation_solve(Derivative("t"), Integrate("t"), [], 0, Polynomial.zero(("t",)), xx)
    assert u.is_zero()


_small_rationals = st.fractions(-3, 3, max_denominator=4)
_xy_orders = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)


@st.composite
def _xy_perturbations(draw):
    """0-3 terms c d^a/dx^a d^b/dy^b, a + b >= 1, so each is nilpotent."""
    terms = draw(st.lists(st.tuples(_small_rationals, _xy_orders), max_size=3))
    return Sum(tuple(Compose(Scale(c), Derivative("x", a), Derivative("y", b)) for c, (a, b) in terms))


@st.composite
def _xy_seeds(draw):
    """A sum of three monomials in x and y of degree at most 5."""
    g = Polynomial.zero(("x", "y"))
    for _ in range(3):
        a = draw(st.integers(0, 5))
        b = draw(st.integers(0, 5 - a))
        g = g + Polynomial(("x", "y"), {(a, b): draw(_small_rationals)})
    return g


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(_xy_perturbations(), min_size=m, max_size=m), st.integers(0, m - 1), _xy_seeds())))
@settings(max_examples=40, deadline=None)
def test_power_perturbation_matches_the_tuple_series(case):
    """The sum by weight equals the multinomial sum over index tuples, byte for byte."""
    m, perturbations, j, g = case
    h = variable("t") ** j
    u = power_perturbation_solve(Derivative("t"), Integrate("t"), perturbations, m, h, g)
    expected = power_perturbation_by_tuples(Derivative("t"), Integrate("t"), perturbations, m, h, g)
    assert u == expected
    assert u.to_json_terms() == expected.to_json_terms()


# -- twisted two-block equations ----------------------------------------------------------------

def test_twisted_single_term():
    xx = variable("x")
    u = twisted_flag_solve(
        Derivative("x", 2), constant(1).with_variables(("x",)), Derivative("y"),
        xx, [], constant(1).with_variables(("y",)),
    )
    assert u == xx


def test_twisted_first_order():
    xx, yy = variable("x"), variable("y")
    u = twisted_flag_solve(
        Derivative("x"), constant(1).with_variables(("x",)), Derivative("y"),
        constant(1).with_variables(("x",)), [xx], yy,
    )
    assert u == xx + yy
    assert (u.diff("x") - u.diff("y")).is_zero()


def test_twisted_tricomi_shape():
    xx, yy = variable("x"), variable("y")
    u = twisted_flag_solve(
        Derivative("x", 2), xx, Derivative("y", 2),
        constant(1).with_variables(("x",)), [xx**3 / Fraction(6)], yy**2,
    )
    assert u == yy**2 + xx**3 / Fraction(3)
    assert (u.diff("x", 2) - xx * u.diff("y", 2)).is_zero()


def test_twisted_rejects_bad_chain():
    xx, yy = variable("x"), variable("y")
    with pytest.raises(ChainError):
        twisted_flag_solve(
            Derivative("x", 2), xx, Derivative("y", 2),
            constant(1).with_variables(("x",)), [xx**2], yy**2,
        )


# -- family-level properties ---------------------------------------------------------------------

def test_families_are_independent():
    for fam in (
        constant_coefficient_basis((2, 2), 4),
        harmonic_basis(3, 4),
        flag_basis(FlagEquationSpec((2, 2), (x1,)), 4),
    ):
        fam.verify_independence()


def test_family_json_shape():
    fam = harmonic_basis(2, 2)
    data = fam.to_json()
    assert data["verified"] is True
    assert all("indexMeta" in e and "solution" in e for e in data["elements"])


# -- the integer annihilation pass -------------------------------------------------------------

EXACT = st.one_of(coefficients(), gaussian_coefficients())


@st.composite
def laurent_polynomials(draw, max_terms=4, max_exp=2):
    """Polynomials over a drawn variable order; x is Laurent where it occurs."""
    vs = draw(st.sampled_from(((), ("x",), ("y",), ("x", "y"), ("y", "x"), ("x", "y", "z"))))
    laurent = ("x",) if "x" in vs else ()
    return draw(polynomials(vs, max_terms=max_terms, max_exp=max_exp, laurent=laurent, coeffs=EXACT))


@st.composite
def differential_operators(draw, max_order=3):
    """Sums of one to three products of coefficients and derivatives of order
    0-max_order, including Compose(Derivative, MultiplyBy), which needs the
    Leibniz rule."""
    derivative = st.builds(Derivative, st.sampled_from("xyzw"), st.integers(0, max_order))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        c, d = draw(laurent_polynomials(max_terms=3)), draw(derivative)
        shape = draw(st.integers(0, 3))
        if shape == 0:
            parts.append(Compose(MultiplyBy(c), d))
        elif shape == 1:
            parts.append(Compose(d, MultiplyBy(c)))
        elif shape == 2:
            parts.append(Compose(Scale(draw(EXACT)), d))
        else:
            inner = Sum((draw(derivative), Compose(Scale(draw(EXACT)), MultiplyBy(c))))
            parts.append(Compose(draw(derivative), MultiplyBy(c), inner))
    return Sum(parts)


@given(differential_operators(), laurent_polynomials(), laurent_polynomials(),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=150, deadline=None)
def test_integer_annihilation_matches_operator_application(op, p, q, exps):
    """form_map over the order of verify_annihilation gives the tree fold's
    image, as an integer form, and a zero image exactly where it does."""
    vs, _ = _chain_order([p, q], [op])
    apply = form_map(op, vs)
    assert isinstance(apply.__self__, FormApplicator)
    assert apply(_int_form(p, vs)) == _int_form(op(p), vs)
    assert apply(_int_form(q, vs)) == _int_form(op(q), vs)
    # an operator that kills the monomial m = x^a y^b: op - op(m) * d^(a,b) / (a! b!)
    a, b = exps
    m = Polynomial(("x", "y"), {exps: 1})
    to_one = Compose(Scale(Fraction(1, math.factorial(a) * math.factorial(b))),
                     Derivative("x", a), Derivative("y", b))
    killer = Sum((op, Compose(MultiplyBy(-op(m)), to_one)))
    assert killer(m).is_zero()
    vs, _ = _chain_order([m, m + p], [killer])
    apply = form_map(killer, vs)
    assert not apply(_int_form(m, vs))
    assert apply(_int_form(m + p, vs)) == _int_form(killer(m + p), vs)


def test_flag_spec_takes_a_gaussian_constant_coefficient():
    spec = FlagEquationSpec((1, 1), (GaussianRational(1, 1),))
    fam = flag_basis(spec, 3)
    assert fam.verify_annihilation()
    assert _element(fam, ell=(0, 1)) == x2 - (1 + IMAG) * x1


def _total_order(op):
    """An upper bound on the total derivative order of op, read off its tree."""
    if isinstance(op, Derivative):
        return op.order
    if isinstance(op, Sum):
        return max(map(_total_order, op.ops), default=0)
    if isinstance(op, Compose):
        return sum(map(_total_order, op.ops))
    return 0


def _derivative_vars(*ops):
    """The variables differentiated somewhere in ops, sorted."""
    found = set()
    for op in ops:
        if isinstance(op, Derivative) and op.order:
            found.add(op.var)
        elif isinstance(op, (Sum, Compose)):
            found.update(_derivative_vars(*op.ops))
    return tuple(sorted(found))


def _normal_form_as_operator(op):
    """sum_alpha MultiplyBy(c_alpha) d^alpha read back from op's normal form."""
    vs = tuple(sorted(operator_variables(op)))
    return Sum(
        Compose(MultiplyBy(c.to_poly(vs, frozenset({"x"} & set(vs)))),
                *(Derivative(vs[i], m) for i, m in alpha))
        for alpha, c in differential_form(op, vs).items()
    )


@st.composite
def operator_pairs(draw, max_order=3):
    """Two operators: unrelated, equal up to the order of their terms, the
    first and its normal form read back as an operator, or one a polynomial
    in the other."""
    a = draw(differential_operators(max_order))
    b = draw(st.one_of(
        differential_operators(max_order),
        st.just(Sum(reversed(a.ops))),
        st.just(_normal_form_as_operator(a)),
        st.just(Sum((Compose(Scale(2), a), Scale(3)))),
    ))
    return a, b


# A nonzero normal form of order k is nonzero on x^alpha for a minimal alpha
# with c_alpha != 0, a monomial of degree <= k in the differentiated
# variables.  So comparing both sides on every monomial of degree <= k is an
# exact oracle for the normal-form comparisons, written without them.

_LEIBNIZ = Compose(Derivative("x", 2), MultiplyBy(variable("x") ** 2 + variable("y")))


@given(operator_pairs())
@example((_LEIBNIZ, _normal_form_as_operator(_LEIBNIZ)))
@settings(max_examples=60, deadline=None)
def test_normal_form_agreement_matches_the_monomial_oracle(pair):
    a, b = pair
    vs = _derivative_vars(a, b)
    k = max(_total_order(a), _total_order(b))
    assert operators_agree_on_sample(a, b, vs) == agree_on_monomials(a, b, vs, k)


@given(operator_pairs(max_order=1))
# x d/dx and x^2 d^2/dx^2 = (x d/dx)^2 - x d/dx commute
@example((Compose(MultiplyBy(variable("x")), Derivative("x")),
          Compose(MultiplyBy(variable("x") ** 2), Derivative("x", 2))))
@settings(max_examples=60, deadline=None)
def test_forms_commute_matches_the_monomial_oracle(pair):
    a, b = pair
    order = tuple(sorted(operator_variables(a) | operator_variables(b)))
    vs = _derivative_vars(a, b)
    k = _total_order(a) + _total_order(b)
    assert forms_commute(differential_form(a, order), differential_form(b, order)) == (
        agree_on_monomials(Compose(a, b), Compose(b, a), vs, k)
    )


def test_operators_outside_the_differential_class_use_application():
    op = Sum((Derivative("x"), Integrate("y")))
    assert differential_form(op, ("x", "y")) is None
    fam = BasisFamily([BasisElement({}, Polynomial.zero(("x",)))], op)
    assert fam.verify_annihilation()
    fam = BasisFamily([BasisElement({}, variable("y"))], op)
    with pytest.raises(VerificationError):
        fam.verify_annihilation()


@pytest.mark.parametrize("spec, cap, delta", [
    # clearing each operator term's denominator on its own rejects this valid family
    (FlagEquationSpec((3, 2, 1), (x1 + 1, x1 * x2 / 2)), 3, Fraction(1, 3)),
    (FlagEquationSpec((2, 2, 2), (x1**2 - 2, x2 + x1)), 3, 1),
    (FlagEquationSpec((2, 1, 2), (IMAG * x1 + 1, x1 * x2 - Fraction(1, 2))), 2, IMAG),
])
def test_flag_element_with_one_coefficient_changed_fails(spec, cap, delta):
    fam = flag_basis(spec, cap)
    op = fam.annihilator
    rejected = 0
    for e in fam.elements:
        u = e.solution
        for exp, c in u.terms.items():
            changed = BasisFamily([BasisElement(e.index, Polynomial(u.vars, {**u.terms, exp: c + delta}))], op)
            if op(Polynomial(u.vars, {exp: 1})).is_zero():
                # the monomial alone solves the equation, so the changed element still does
                assert changed.verify_annihilation()
            else:
                with pytest.raises(VerificationError):
                    changed.verify_annihilation()
                rejected += 1
    assert rejected > len(fam)


# blocks c d^beta of L: c in 1..2, beta over one or two variables, orders 1..3
blocks_of_l = st.lists(st.tuples(st.integers(1, 2), st.lists(st.integers(1, 3), min_size=1, max_size=2)),
                       min_size=1, max_size=3)


@given(blocks_of_l, st.data())
@settings(max_examples=60, deadline=None)
def test_laplacian_terms_are_the_iterated_laplacian(spec, data):
    """R! times the closed-form terms of one R is L^R(x^l), taken by
    iterating L = sum_j c_j d^(beta_j) over separate one- and two-variable
    blocks.  The profile s^R marks each R's terms."""
    from flagpde.bases import _SeriesLemma

    width = sum(len(orders) for _, orders in spec)
    ells = tuple(data.draw(st.lists(st.integers(0, 5), min_size=width, max_size=width)))
    xs = tuple(f"x{i}" for i in range(1, width + 1))
    blocks, parts, i = [], [], 0
    for c, orders in spec:
        blocks.append((c, tuple(orders), xs[i:i + len(orders)]))
        parts.append(Compose(Scale(c), *(Derivative(xs[i + j], o) for j, o in enumerate(orders))))
        i += len(orders)
    vs = ("s",) + xs
    lemma = _SeriesLemma(("s",), Derivative("s"), Polynomial.const(1), blocks, vs)
    s = variable("s")
    marker = lemma.profile(s**r * Fraction(1, math.factorial(r)) for r in range(sum(ells) + 1))
    terms = lemma.element(marker, ells).terms
    power = Polynomial(xs, {ells: 1})
    for big_r in range(sum(ells) + 2):
        want = {e[1:]: c * math.factorial(big_r) for e, c in terms.items() if e[0] == big_r}
        assert power == Polynomial(xs, want)
        power = Sum(parts)(power)


# -- the series lemma ----------------------------------------------------------------

def _lemma_families():
    """One small family per builder that the series lemma proves."""
    return {
        "constant": lambda: constant_coefficient_basis((2, 3, 1), 3),
        "harmonic": lambda: harmonic_basis(3, 4),
        "harmonic module": lambda: harmonic_module_basis(3, 4),
        "sl": lambda: sl_module_basis(3, 2, 2),
        "g2": lambda: g2_module_basis(3),
        "dissipative": lambda: dissipative_wave_basis(2, 4),
        "anisymmetric generic": lambda: anisymmetric_basis(2, Fraction(1, 2), -1, 4),
        "anisymmetric negative even": lambda: anisymmetric_basis(2, -2, 1, 4),
        "anisymmetric negative odd": lambda: anisymmetric_basis(2, -3, 1, 4),
    }


LEMMA_FAMILIES = sorted(_lemma_families())


def _wrong_table_entry(monkeypatch):
    """Each filled table's last entry gets numerator n + 1."""
    from flagpde.bases import _BlockTable

    fill = _BlockTable.__missing__

    def wrong(self, l):
        entries = fill(self, l)
        r, n, e = entries[-1]
        entries[-1] = (r, n + 1, e)
        return entries

    monkeypatch.setattr(_BlockTable, "__missing__", wrong)


def _wrong_table_offset(monkeypatch):
    """Each filled table's last entry gets the key offset of one more in
    its block's first variable."""
    from flagpde.bases import _BlockTable

    fill = _BlockTable.__missing__

    def wrong(self, l):
        entries = fill(self, l)
        r, n, e = entries[-1]
        entries[-1] = (r, n, e + self.units[0])
        return entries

    monkeypatch.setattr(_BlockTable, "__missing__", wrong)


def _wrong_profile_entry(monkeypatch):
    """Every profile's P_1 is doubled before the profile is folded."""
    from flagpde import bases

    fold = bases._profile

    def wrong(entries):
        entries = list(entries)
        if len(entries) > 1:
            pairs, den = entries[1]
            entries[1] = ([(j, 2 * c) for j, c in pairs], den)
        return fold(entries)

    monkeypatch.setattr(bases, "_profile", wrong)


def _wrong_annihilator(monkeypatch):
    """Each builder hands its check the annihilator A + 1 in place of A."""
    from flagpde import bases, dissipative, lie

    check = bases._checked

    def wrong(elements, annihilator, truncation, *lemmas):
        return check(elements, Sum((annihilator, Scale(1))), truncation, *lemmas)

    for module in (bases, dissipative, lie):
        monkeypatch.setattr(module, "_checked", wrong)


@pytest.mark.parametrize("sabotage, message", [
    (_wrong_table_entry, "table"),
    (_wrong_table_offset, "table"),
    (_wrong_profile_entry, "profile"),
    (_wrong_annihilator, "annihilator is not K"),
])
@pytest.mark.parametrize("name", LEMMA_FAMILIES)
def test_series_lemma_rejects_a_sabotaged_family(monkeypatch, name, sabotage, message):
    build = _lemma_families()[name]
    sabotage(monkeypatch)
    with pytest.raises(VerificationError, match=f"series lemma: .*{message}"):
        build()


def test_a_wrong_table_entry_exits_three_through_the_cli(monkeypatch):
    from flagpde.cli import main

    assert main(["basis", "harmonic", "--n", "3", "--cap", "3"]) == 0
    _wrong_table_entry(monkeypatch)
    assert main(["basis", "harmonic", "--n", "3", "--cap", "3"]) == 3


_SERIES_LAYOUT_NAMES = {"_closed_form_series", "_BlockTable", "_profile"}


def test_series_layout_is_private_to_bases():
    """Every module but bases builds its series through ``_SeriesLemma``:
    none imports or names the block tables, the profile fold or the series
    fold."""
    found = []
    for path in sorted(Path(flagpde.__file__).parent.glob("*.py")):
        if path.name == "bases.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [(path.name, node.lineno, name) for name in names if name in _SERIES_LAYOUT_NAMES]
    assert not found


def test_no_family_is_checked_element_by_element(monkeypatch):
    calls = []
    check = BasisFamily.verify_annihilation
    monkeypatch.setattr(BasisFamily, "verify_annihilation", lambda self: calls.append(len(self)) or check(self))
    for build in _lemma_families().values():
        build()
    flag_basis(FlagEquationSpec((2, 1), (x1,)), 3)
    assert calls == []


# a spec of four blocks whose three stages all map level batches at cap 4
CHAIN_SPEC = FlagEquationSpec((2, 1, 2, 1), (x1 + 1, x2 - x1, x3))


def _chain_law(spec):
    return bases._ChainLaw(spec._inverse, spec.variables + ("tag",))


@pytest.mark.parametrize("stage", [1, 3], ids=["first stage", "last stage"])
@pytest.mark.parametrize("term, message", [
    (lambda spec, stage: x1 ** spec.orders[0], r"breaks A_s R_s\(f P\) = f P"),
    (lambda spec, stage: variable(spec.variables[stage]), "has one of"),
], ids=["off the law", "in the block variable"])
def test_chain_law_rejects_a_term_added_to_a_stage_image(monkeypatch, stage, term, message):
    """x1^m1 breaks A_s R_s(f P) = f P at every stage; x_(s+1), which A_s
    kills, would break the telescoping of d_(s+1)^m."""
    added = term(CHAIN_SPEC, stage)
    apply = NestedRightInverse._apply_stage

    def wrong(self, s, q, vs):
        image = apply(self, s, q, vs)
        return image + _int_form(added, vs) if s == stage else image

    monkeypatch.setattr(NestedRightInverse, "_apply_stage", wrong)
    with pytest.raises(VerificationError, match=f"chain law: power 1 of stage {stage} {message}"):
        flag_basis(CHAIN_SPEC, 4)


def test_chain_law_rejects_a_seed_that_the_first_block_does_not_kill():
    law, vs = _chain_law(CHAIN_SPEC), CHAIN_SPEC.variables
    law.seeds([_int_form(x1**l1, vs) for l1 in range(CHAIN_SPEC.orders[0])])
    with pytest.raises(VerificationError, match="chain law: power 0 of stage 1 breaks"):
        law.seeds([_int_form(x1 ** CHAIN_SPEC.orders[0], vs)])


def test_chain_law_rejects_an_annihilator_with_a_coefficient_changed():
    law = _chain_law(CHAIN_SPEC)
    law.prove(CHAIN_SPEC.operator())
    changed = FlagEquationSpec(CHAIN_SPEC.orders, (x1 + 1, x2 - x1, x3 + 1))
    with pytest.raises(VerificationError, match="chain law: the annihilator is not the last stage's law"):
        law.prove(changed.operator())


def _unbuilt(monkeypatch, *modules):
    """Make the index enumerators and the series lemma of the modules raise
    if called, so that a refusal that comes too late fails at once rather
    than running on."""
    def built(*args):
        raise AssertionError(f"built from {args} before the input was refused")

    for module in modules:
        for name in ("tuples_with_sum", "tuples_with_sum_at_most", "_SeriesLemma"):
            monkeypatch.setattr(module, name, built, raising=False)


# every family with the seed x_j^cap (or x_j^k, x1^l1, y_j^l2) one past EXP_MAX
OUT_OF_RANGE = EXP_MAX + 1
FAMILIES_WITH_A_SEED_BEYOND_THE_RANGE = {
    "constant": lambda: constant_coefficient_basis((2, 2), OUT_OF_RANGE),
    "harmonic": lambda: harmonic_basis(2, OUT_OF_RANGE),
    "dissipative": lambda: dissipative_wave_basis(1, OUT_OF_RANGE),
    "anisymmetric": lambda: anisymmetric_basis(1, -3, 1, OUT_OF_RANGE),
    "flag": lambda: flag_basis(FlagEquationSpec((2, 1), (x1,)), OUT_OF_RANGE),
    "harmonic module": lambda: harmonic_module_basis(2, OUT_OF_RANGE),
    "sl l1": lambda: sl_module_basis(2, OUT_OF_RANGE, 0),
    "sl l2": lambda: sl_module_basis(2, 0, OUT_OF_RANGE),
    "g2": lambda: g2_module_basis(OUT_OF_RANGE),
}


@pytest.mark.parametrize("name", sorted(FAMILIES_WITH_A_SEED_BEYOND_THE_RANGE))
def test_a_seed_beyond_the_exponent_range_is_refused_before_any_element(monkeypatch, name):
    from flagpde import bases, combinatorics, dissipative, lie

    _unbuilt(monkeypatch, bases, combinatorics, dissipative, lie)
    with pytest.raises(ExponentRangeError, match=rf"seed exponent {OUT_OF_RANGE} is outside \[0, {EXP_MAX}\]"):
        FAMILIES_WITH_A_SEED_BEYOND_THE_RANGE[name]()


def test_a_one_variable_flag_family_reads_no_cap(monkeypatch):
    """Its elements are x1^l1, l1 < m1, for any cap: no variable is listed
    past the empty tuple."""
    from flagpde import combinatorics

    listed = combinatorics.tuples_with_sum

    def checked(length, total):
        if length == 0 and total > 0:
            raise AssertionError("sums listed past the empty tuple")
        return listed(length, total)

    monkeypatch.setattr(combinatorics, "tuples_with_sum", checked)
    assert list(combinatorics.tuples_with_sum_at_most(0, 10**20)) == [()]
    fam = flag_basis(FlagEquationSpec((2,), ()), 10**20)
    assert [e.index for e in fam.elements] == [{"ell": (0,)}, {"ell": (1,)}]
    assert fam.truncation["cap"] == 10**20


@pytest.mark.parametrize("ells, bad", [((-1, 0), -1), ((0, OUT_OF_RANGE), OUT_OF_RANGE)])
def test_harmonic_element_checks_its_exponents_before_it_builds(monkeypatch, ells, bad):
    from flagpde import bases

    def unbuilt(orders):
        raise AssertionError("the lemma was built before the exponents were checked")

    monkeypatch.setattr(bases, "_constant_lemma", unbuilt)
    with pytest.raises(ExponentRangeError, match=rf"seed exponent {bad} is outside \[0, {EXP_MAX}\]"):
        harmonic_element(3, 0, ells)


def test_harmonic_element_refuses_an_x1_degree_beyond_the_range_at_once():
    """In-range exponents whose element needs x1^32767 raised only after
    minutes of profile building; the degree is checked before it."""
    script = """
import time
from flagpde.bases import harmonic_element
from flagpde.poly import ExponentRangeError
start = time.perf_counter()
try:
    harmonic_element(3, 1, (16383, 16383))
except ExponentRangeError as err:
    print(time.perf_counter() - start, err)
"""
    src = str(Path(flagpde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    seconds, message = proc.stdout.strip().split(" ", 1)
    assert message == f"x1 degree 32767 is outside [0, {EXP_MAX}]"
    assert float(seconds) < 0.5


# lambda generic or a negative integer: the lemma proves every regime
lemma_lambdas = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool),
    st.sampled_from([-1, -2, -3, -4, -5, -6]),
)
lemma_shapes = st.one_of(
    st.tuples(st.just("constant"), st.lists(st.integers(1, 3), min_size=2, max_size=4), st.integers(0, 4)),
    st.tuples(st.just("harmonic"), st.integers(2, 4), st.integers(0, 6)),
    st.tuples(st.just("harmonic module"), st.integers(2, 4), st.integers(0, 6)),
    st.tuples(st.just("sl"), st.integers(2, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("g2"), st.integers(0, 4)),
    st.tuples(st.just("dissipative"), st.integers(1, 3), st.integers(0, 6)),
    st.tuples(st.just("anisymmetric"), st.integers(1, 3), lemma_lambdas, st.sampled_from([1, -1]),
              st.integers(0, 6)),
)


@given(lemma_shapes)
@settings(max_examples=80, deadline=None)
def test_lemma_families_pass_the_end_to_end_check(shape):
    """The lemma trusts the fold of the block tables into L^R/R!; every
    family it proves is annihilated element by element as well."""
    build = {
        "constant": constant_coefficient_basis,
        "harmonic": harmonic_basis,
        "harmonic module": harmonic_module_basis,
        "sl": sl_module_basis,
        "g2": g2_module_basis,
        "dissipative": dissipative_wave_basis,
        "anisymmetric": anisymmetric_basis,
    }[shape[0]]
    family = build(*shape[1:])
    assert family.verify_annihilation()
