import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagpde import (
    Compose,
    DampedIntegration,
    Derivative,
    GaussianRational,
    MultiplyBy,
    Polynomial,
    Scale,
    Sum,
    anisymmetric_basis,
    classify_lambda,
    constant,
    dissipation_polynomial,
    dissipative_wave_basis,
    epd_transform,
    klein_gordon_solutions,
    variable,
)
from flagpde.linalg import kernel_on_slice

from oracles import (
    anisymmetric_elements_by_iteration,
    assert_family_spans_kernel,
    assert_reduced,
    dissipation_polynomial_by_fractions,
    dissipative_element_formula,
    typed_terms,
    zeta_closed_form,
)

t = variable("t")


def _damped(a):
    return lambda p: a * p.diff("t") + p.diff("t", 2)


def test_dissipation_polynomial_low_orders():
    a = Fraction(3, 2)
    assert dissipation_polynomial(a, 0) == constant(1).with_variables(("t",))
    assert dissipation_polynomial(a, 1) == t / a
    assert dissipation_polynomial(a, 2) == t**2 / (2 * a**2) - t / a**3


@pytest.mark.parametrize("a", [Fraction(1), Fraction(-2, 3), 5, GaussianRational(0, 2), GaussianRational(1, -1)])
def test_dissipation_polynomial_matches_fraction_products(a):
    """One power list a^(-k) gives each coefficient the value and the exact
    type of the per-term products."""
    for i in range(12):
        want = dissipation_polynomial_by_fractions(Fraction(a) if isinstance(a, int) else a, i)
        assert typed_terms(dissipation_polynomial(a, i)) == typed_terms(want)


def test_dissipation_polynomial_rejects_zero_frequency():
    with pytest.raises(ValueError, match="degenerate dissipation"):
        dissipation_polynomial(Fraction(0), 1)


def test_descent_recursion_up_to_ten():
    rng = random.Random(7)
    samples = [Fraction(1), Fraction(1, 2)]
    for _ in range(3):
        samples.append(GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 4))))
    for a in samples:
        d = _damped(a)
        prev = dissipation_polynomial(a, 0)
        for i in range(1, 11):
            cur = dissipation_polynomial(a, i)
            assert d(cur) == prev, f"descent fails at i={i}, a={a}"
            prev = cur


def test_closed_form_matches_iterated_right_inverse():
    for a in (Fraction(2), GaussianRational(0, 1)):
        inv = DampedIntegration(a, "t")
        p = constant(1).with_variables(("t",))
        for i in range(8):
            assert p == dissipation_polynomial(a, i)
            p = inv(p)


def test_descent_has_unique_solution_in_t_multiples():
    # the damped derivative is injective on polynomials with no constant term
    a = Fraction(5, 3)
    d_op = Sum((Compose(Scale(a), Derivative("t")), Derivative("t", 2)))
    slice_ = [t**j for j in range(1, 9)]
    assert kernel_on_slice(d_op, slice_) == []


# -- damped wave families ------------------------------------------------------------

def test_dissipative_wave_examples():
    fam = dissipative_wave_basis(1, 3)
    by_index = {e.index["ell"]: e.solution for e in fam.elements}
    assert by_index[(0,)] == constant(1).with_variables(("t", "x1"))
    x = variable("x1")
    assert by_index[(2,)] == x**2 + 2 * t


def test_dissipative_wave_no_even_reduction():
    fam = dissipative_wave_basis(2, 2)
    by_index = {e.index["ell"]: e.solution for e in fam.elements}
    assert by_index[(1, 1)] == variable("x1") * variable("x2")


def test_dissipative_matches_multinomial_formula():
    for n, cap in ((1, 4), (2, 3)):
        fam = dissipative_wave_basis(n, cap)
        for e in fam.elements:
            expected = dissipative_element_formula(
                n, e.index["ell"], lambda i: dissipation_polynomial(Fraction(1), i)
            )
            assert e.solution == expected


def test_dissipative_completeness_one_space_dim():
    fam = dissipative_wave_basis(1, 4)
    assert_family_spans_kernel(fam, ("t", "x1"), 4)


# -- anisymmetric families ------------------------------------------------------------

def test_lambda_classification():
    assert classify_lambda(Fraction(1)) == "generic"
    assert classify_lambda(Fraction(-3, 2)) == "generic"
    assert classify_lambda(Fraction(-2)) == "negative_even"
    assert classify_lambda(Fraction(-3)) == "negative_odd"
    assert classify_lambda(Fraction(-1)) == "negative_odd"


def test_anisymmetric_generic_example():
    fam = anisymmetric_basis(1, Fraction(1), 1, 3)
    by_index = {e.index["ell"]: e.solution for e in fam.elements}
    x = variable("x1")
    u = by_index[(2,)]
    assert u == x**2 + t**2 / Fraction(2)
    # direct substitution into t u_tt + u_t - t u_xx
    assert (t * u.diff("t", 2) + u.diff("t") - t * u.diff("x1", 2)).is_zero()
    assert by_index[(0,)] == constant(1).with_variables(("t", "x1"))


def test_anisymmetric_negative_even_psi_branch():
    fam = anisymmetric_basis(1, Fraction(-2), 1, 2)
    psi0 = next(
        e.solution for e in fam.elements
        if e.index["branch"] == "psi" and e.index["ell"] == (0,)
    )
    assert psi0 == t**3
    assert (t * psi0.diff("t", 2) - 2 * psi0.diff("t")).is_zero()


def test_anisymmetric_negative_odd_contains_capped_seeds():
    fam = anisymmetric_basis(1, Fraction(-3), 1, 4)
    phi = {e.index["ell"]: e.solution for e in fam.elements if e.index["branch"] == "phi"}
    x = variable("x1")
    # seeds up to x^3 admit time-free corrections; x^2/2 pairs with -t^2/4
    assert phi[(2,)] == x**2 / Fraction(2) - t**2 / Fraction(4)
    assert (3,) in phi and (4,) not in phi


@pytest.mark.parametrize("lam,eps", [
    (Fraction(1), 1), (Fraction(2), -1), (Fraction(-2), 1), (Fraction(-3), -1), (Fraction(-5), 1),
])
def test_anisymmetric_families_annihilated(lam, eps):
    fam = anisymmetric_basis(2, lam, eps, 3)
    fam.verify_annihilation()
    fam.verify_independence()


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(-2), Fraction(-3)])
def test_anisymmetric_completeness(lam):
    fam = anisymmetric_basis(1, lam, 1, 6)
    assert_family_spans_kernel(fam, ("t", "x1"), 4)


# -- EPD reduction ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("lam, eps", [
    (Fraction(5, 2), 1), (Fraction(-7, 3), -1), (1, -1),
    (-2, 1), (-4, -1),
    (-1, -1), (-3, 1), (-5, -1),
])
def test_anisymmetric_closed_form_matches_iterated_laplacians(n, lam, eps):
    """Generic, negative even and negative odd lambda: the multinomial closed
    form gives each element exactly the polynomial of the iterated build."""
    cap = 4 if n == 3 else 6
    fam = anisymmetric_basis(n, lam, eps, cap)
    want = anisymmetric_elements_by_iteration(n, lam, eps, cap)
    assert [e.index for e in fam.elements] == [index for index, _ in want]
    for e, (_, sol) in zip(fam.elements, want):
        assert e.solution.vars == sol.vars
        assert e.solution == sol


LAMBDAS = (Fraction(1, 2), Fraction(-5, 3), 2, -1, -2, -3, -4, -5)


@given(st.integers(1, 3), st.integers(0, 6))
@settings(max_examples=15, deadline=None)
def test_dissipative_elements_are_reduced(n, cap):
    for e in dissipative_wave_basis(n, cap).elements:
        assert_reduced(e.solution.form)


@given(st.integers(1, 3), st.sampled_from(LAMBDAS), st.sampled_from((1, -1)), st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_anisymmetric_elements_are_reduced(n, lam, eps, cap):
    for e in anisymmetric_basis(n, lam, eps, cap).elements:
        assert_reduced(e.solution.form)


def test_epd_power_branches_on_constants():
    v = constant(1).with_variables(("t", "x1"))
    u = epd_transform(v, 1, "t^(m+1)")
    assert u == t**2
    u = epd_transform(v, 1, "t^(-m)")
    assert u == Polynomial(("t",), {(-1,): Fraction(1)}, ("t",)).with_variables(("t", "x1"), ("t",))


def test_epd_rejects_non_solutions():
    with pytest.raises(ValueError, match="reduced-equation"):
        epd_transform(t**3, 1, "t^(m+1)")


def test_epd_pipeline_from_anisymmetric_family():
    # reduced equation for the growing branch with m = 1 has weight 2(m+1) = 4
    fam = anisymmetric_basis(1, Fraction(4), 1, 3)
    for e in fam.elements:
        u = epd_transform(e.solution, 1, "t^(m+1)")
        x_vars = ("x1",)
        lap = u.diff("x1", 2)
        residual = t**2 * u.diff("t", 2) - t**2 * lap - 2 * u
        assert residual.is_zero()


# -- Klein-Gordon ------------------------------------------------------------------------

def test_klein_gordon_trivial_seed():
    first, second = klein_gordon_solutions(Fraction(1), (0, 0, 0))
    one = constant(1)
    assert first.cos_part == one and first.sin_part.is_zero()
    assert second.sin_part == one and second.cos_part.is_zero()


def test_klein_gordon_killed_seed():
    first, second = klein_gordon_solutions(Fraction(2), (0, 0, 1))
    z = variable("z")
    assert first.cos_part == z and first.sin_part.is_zero()
    assert second.sin_part == z and second.cos_part.is_zero()


def test_klein_gordon_coupled_seed_is_exact_solution():
    a = Fraction(1, 2)
    first, second = klein_gordon_solutions(a, (0, 2, 0))
    x, y = variable("x"), variable("y")
    kg = Sum(
        (
            Derivative("t", 2),
            Compose(Scale(Fraction(-1)), Derivative("x", 2)),
            Compose(MultiplyBy(-x), Derivative("y", 2)),
            Compose(MultiplyBy(-y), Derivative("z", 2)),
            Scale(a * a),
        )
    )
    for sol in (first, second):
        assert kg.apply_trig(sol).is_zero()
    assert first.cos_part == y**2


def test_klein_gordon_deeper_seed():
    first, second = klein_gordon_solutions(Fraction(1), (1, 1, 1))
    assert not first.cos_part.is_zero()


def test_klein_gordon_rejects_zero_frequency():
    with pytest.raises(ValueError, match="degenerate frequency"):
        klein_gordon_solutions(Fraction(0), (0, 0, 0))



def test_klein_gordon_proves_its_series_law_once_per_frequency(monkeypatch):
    from flagpde import dissipative, operators

    proofs = []
    agree = operators.operators_agree_on_sample
    monkeypatch.setattr(operators, "operators_agree_on_sample",
                        lambda *args: proofs.append(args) or agree(*args))
    dissipative._gauged_series.cache_clear()
    first = klein_gordon_solutions(Fraction(3, 7), (1, 2, 1))
    assert klein_gordon_solutions(Fraction(6, 14), (1, 2, 1)) == first
    assert len(proofs) == 1
    klein_gordon_solutions(Fraction(5, 7), (1, 2, 1))
    assert len(proofs) == 2

@pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2)])
def test_zeta_profiles_match_closed_forms(a):
    # real/imaginary split of the damped-inverse iterates at frequency 2ai
    two_ai = GaussianRational(0, 2 * a)
    for i in range(5):
        xi = dissipation_polynomial(two_ai, i)
        re_want, im_want = zeta_closed_form(i, a)
        assert xi.real_part() == re_want, f"real profile differs at i={i}"
        assert xi.imag_part() == im_want, f"imaginary profile differs at i={i}"
