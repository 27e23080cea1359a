from fractions import Fraction

import pytest

from flagpde import (
    Derivative,
    FlagEquationSpec,
    Integrate,
    Polynomial,
    Sum,
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
from flagpde.operators import OperatorHypothesisError

from oracles import assert_family_spans_kernel, flag_basis_unshared, sigma_word_value

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
