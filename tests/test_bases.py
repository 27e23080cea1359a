import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagpde import (
    BasisElement,
    BasisFamily,
    Compose,
    Derivative,
    FlagEquationSpec,
    Integrate,
    MultiplyBy,
    Polynomial,
    Scale,
    Sum,
    VerificationError,
    constant,
    constant_coefficient_basis,
    flag_basis,
    harmonic_basis,
    power_perturbation_solve,
    riemannian_to_tx,
    riemannian_wave_solution,
    twisted_flag_solve,
    variable,
)
from flagpde.bases import ChainError
from flagpde.linalg import kernel_on_slice, monomials_of_degree, polys_in_span
from flagpde.operators import FormApplicator, OperatorHypothesisError, form_applicator
from flagpde.poly import IMAG

from oracles import (
    assert_family_spans_kernel,
    constant_element_by_fractions,
    flag_basis_unshared,
    harmonic_element_by_fractions,
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


def test_flag_basis_zero_coefficient_power_matches_constant():
    # power zero on a coefficient degenerates to the constant-coefficient family
    spec = FlagEquationSpec((2, 2), (constant(1),))
    fam = flag_basis(spec, 4)
    ref = constant_coefficient_basis((2, 2), 4)
    for e, r in zip(fam.elements, ref.elements):
        assert e.solution == r.solution


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
def differential_operators(draw):
    """Sums of one to three products of coefficients and derivatives of order 0-3,
    including Compose(Derivative, MultiplyBy), which needs the Leibniz rule."""
    derivative = st.builds(Derivative, st.sampled_from("xyzw"), st.integers(0, 3))
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
    app = form_applicator(op, [p, q])
    assert isinstance(app, FormApplicator)
    assert app(p) == op(p)
    assert app(q) == op(q)
    # an operator that kills the monomial m = x^a y^b: op - op(m) * d^(a,b) / (a! b!)
    a, b = exps
    m = Polynomial(("x", "y"), {exps: 1})
    to_one = Compose(Scale(Fraction(1, math.factorial(a) * math.factorial(b))),
                     Derivative("x", a), Derivative("y", b))
    killer = Sum((op, Compose(MultiplyBy(-op(m)), to_one)))
    assert killer(m).is_zero()
    app = form_applicator(killer, [m, m + p])
    assert app(m).is_zero()
    assert app(m + p) == killer(m + p)


def test_operators_outside_the_differential_class_use_application():
    op = Sum((Derivative("x"), Integrate("y")))
    assert form_applicator(op, [x1]) is op
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
