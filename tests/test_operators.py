from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagpde import (
    Compose,
    DampedIntegration,
    Derivative,
    GaussianRational,
    Integrate,
    MultiplyBy,
    NestedRightInverse,
    Polynomial,
    Scale,
    SeriesConfig,
    Sum,
    constant,
    right_inverse_series,
    solve_by_series,
    variable,
)
from flagpde.operators import (
    KernelPreconditionError,
    NotAFlagSystemError,
    OperatorHypothesisError,
    SeriesTerminationError,
    differential_form,
    op_from_json,
    op_to_json,
)

from flagpde.poly import NonIntegrableTermError

from oracles import diff_stepwise, dict_product, integrate_by_reciprocal, nested_inverse_term_by_term
from strategies import coefficients, gaussian_coefficients, polynomials

x, y = variable("x"), variable("y")


def test_compose_multiply_after_derivative():
    op = Compose(MultiplyBy(x), Derivative("y", 2))
    assert op(y**2) == 2 * x


def test_sum_is_laplacian_on_radius_squared():
    op = Sum((Derivative("x", 2), Derivative("y", 2)))
    assert op(x**2 + y**2) == constant(4)


def test_chain_tricomi_on_monomial():
    x1, x2, x3 = variable("x1"), variable("x2"), variable("x3")
    op = Sum(
        (
            Derivative("x1", 2),
            Compose(MultiplyBy(x1), Derivative("x2", 2)),
            Compose(MultiplyBy(x2), Derivative("x3", 2)),
        )
    )
    assert op(x3**2) == 2 * x2


def test_compose_applies_right_to_left():
    op = Compose(Derivative("x"), MultiplyBy(x))
    # d/dx (x * p): on p = x it gives 2x, not 1
    assert op(x) == 2 * x


@given(polynomials(), polynomials())
@settings(max_examples=40)
def test_application_is_linear(p, q):
    op = Sum((Derivative("x", 2), Compose(MultiplyBy(y), Derivative("y"))))
    assert op(p + q) == op(p) + op(q)
    assert op(p * Fraction(3, 7)) == op(p) * Fraction(3, 7)


def test_scale_node():
    assert Scale(GaussianRational(0, 1))(x) == Polynomial(("x",), {(1,): GaussianRational(0, 1)})


def test_operator_json_round_trip():
    op = Sum(
        (
            Derivative("x", 2),
            Compose(MultiplyBy(x * y - 1), Integrate("y")),
            Scale(Fraction(1, 2)),
        )
    )
    data = op_to_json(op)
    back = op_from_json(data)
    p = x**2 * y + y**3
    assert back(p) == op(p)


# -- the series engine -----------------------------------------------------------


def _laplace_config(**kw):
    return SeriesConfig(Derivative("x", 2), Integrate("x", 2), Derivative("y", 2), **kw)


def test_series_solve_one_step():
    u = solve_by_series(_laplace_config(), x, y**2)
    assert u == x * y**2 - x**3 / Fraction(3)


def test_series_solve_empty_perturbation():
    cfg = SeriesConfig(Derivative("x", 2), Integrate("x", 2), Sum(()))
    assert solve_by_series(cfg, x, y**3) == x * y**3


def test_series_solve_two_steps_matches_quartic_kernel():
    u = solve_by_series(_laplace_config(), constant(1).with_variables(("x",)), y**4)
    assert u == y**4 - 6 * x**2 * y**2 + x**4
    # cross-check: brute-force kernel of the Laplacian on homogeneous quartics
    from flagpde.linalg import kernel_on_slice, monomials_of_degree, polys_in_span

    kernel = kernel_on_slice(
        Sum((Derivative("x", 2), Derivative("y", 2))), monomials_of_degree(("x", "y"), 4)
    )
    assert polys_in_span(kernel, [u])


def test_series_solve_rejects_bad_seed():
    with pytest.raises(KernelPreconditionError):
        solve_by_series(_laplace_config(), x**2, y**2)


def test_series_termination_guard():
    # a perturbation that never lowers the filtration: multiplication by y
    cfg = SeriesConfig(Derivative("x", 2), Integrate("x", 2), MultiplyBy(y))
    with pytest.raises(SeriesTerminationError, match="did not nilpotate"):
        solve_by_series(cfg, x, y)


def test_right_inverse_series_zero():
    assert right_inverse_series(_laplace_config(), Polynomial.zero(("x", "y"))).is_zero()


def test_right_inverse_series_constant():
    assert right_inverse_series(_laplace_config(), constant(1).with_variables(("x", "y"))) == x**2 / Fraction(2)


def test_right_inverse_series_quadratic():
    r = right_inverse_series(_laplace_config(), y**2)
    assert r == x**2 * y**2 / Fraction(2) - x**4 / Fraction(12)


@given(polynomials(max_terms=4, max_exp=3))
@settings(max_examples=25, deadline=None)
def test_right_inverse_series_property(f):
    cfg = _laplace_config()
    r = right_inverse_series(cfg, f)
    assert cfg.t1(r) + cfg.t2(r) == f


def test_config_validation_catches_wrong_inverse():
    with pytest.raises(OperatorHypothesisError):
        SeriesConfig(Derivative("x", 2), Integrate("x", 1), Derivative("y", 2))


# -- nested right inverses ---------------------------------------------------------


def test_single_block_is_iterated_integration():
    inv = NestedRightInverse([(1, Derivative("x", 3))])
    p = x**2 * y
    assert inv.apply(p) == p.integrate("x").integrate("x").integrate("x")


def test_nested_inverse_on_zero():
    inv = NestedRightInverse([(1, Derivative("x", 2)), (x, Derivative("y", 2))])
    assert inv.apply(Polynomial.zero(("x", "y"))).is_zero()


def test_nested_inverse_defining_identity():
    inv = NestedRightInverse([(1, Derivative("x", 2)), (x, Derivative("y", 2))])
    op = inv.as_operator()
    one = constant(1).with_variables(("x", "y"))
    r = inv.apply(one)
    assert r == x**2 / Fraction(2)
    assert op(r) == one
    for probe in (y**4, x * y**2 + y**3, (x + y) ** 3):
        assert op(inv.apply(probe)) == probe


BLOCK_VARS = ("x", "y", "z", "w")


@st.composite
def triangular_systems(draw):
    """A nested right inverse of 2-4 blocks of orders 1-3 and an input.

    Coefficient k is a small polynomial in the first k-1 block variables,
    possibly zero; coefficients are rational or Gaussian rational.
    """
    nblocks = draw(st.integers(2, 4))
    names = BLOCK_VARS[:nblocks]
    coeffs = draw(st.sampled_from((coefficients(), gaussian_coefficients())))
    lead = draw(coeffs)
    entries = [(lead, Derivative(names[0], draw(st.integers(1, 3))))]
    for k in range(1, nblocks):
        f = draw(polynomials(vars=names[:k], max_terms=2, max_exp=2, coeffs=coeffs))
        entries.append((f, Derivative(names[k], draw(st.integers(1, 3)))))
    p = draw(polynomials(vars=names, max_terms=3, max_exp=3, coeffs=coeffs))
    return NestedRightInverse(entries), p


@given(triangular_systems())
@settings(max_examples=40, deadline=None)
def test_nested_inverse_matches_term_by_term_series(system):
    inv, p = system
    out = inv.apply(p)
    assert out == nested_inverse_term_by_term(inv, p)
    assert inv.as_operator()(out) == p


def test_nested_inverse_integrates_laurent_powers_of_the_first_block():
    inv = NestedRightInverse([(1, Derivative("x"))])
    assert inv.apply(Polynomial(("x",), {(-2,): 1}, ("x",))) == Polynomial(("x",), {(-1,): -1}, ("x",))
    assert inv.apply(Polynomial(("x",), {(-3,): 2}, ("x",)) * y) == Polynomial(("x",), {(-2,): -1}, ("x",)) * y
    with pytest.raises(NonIntegrableTermError):
        inv.apply(Polynomial(("x",), {(-1,): 1}, ("x",)))


def test_nested_inverse_rejects_negative_powers_of_later_blocks():
    """Derivatives of y^-1 never vanish, so the series over y would not end."""
    inv = NestedRightInverse([(1, Derivative("x")), (x, Derivative("y"))])
    with pytest.raises(ValueError, match="block variable y"):
        inv.apply(Polynomial(("y",), {(-1,): 1}, ("y",)))
    # a Laurent y with non-negative exponents is a polynomial input
    assert inv.apply(Polynomial(("y",), {(1,): 1}, ("y",))) == nested_inverse_term_by_term(inv, y)


def test_nested_inverse_rejects_order_zero_after_the_first_block():
    """D^0 never kills a term, so the series over y would never end."""
    with pytest.raises(ValueError, match="positive"):
        NestedRightInverse([(1, Derivative("x")), (x, Derivative("y", 0))])
    with pytest.raises(ValueError, match="non-negative"):
        NestedRightInverse([(1, Derivative("x", -1))])


def test_nested_inverse_rejects_non_flag_coefficients():
    with pytest.raises(NotAFlagSystemError):
        NestedRightInverse([(1, Derivative("x", 2)), (y, Derivative("y", 2))])


# -- damped integration -------------------------------------------------------------


def test_damped_integration_is_right_inverse():
    for a in (Fraction(1), Fraction(-2, 3), GaussianRational(0, 2)):
        inv = DampedIntegration(a, "t")
        d = Sum((Compose(Scale(a), Derivative("t")), Derivative("t", 2)))
        for p in (constant(1).with_variables(("t",)), variable("t") ** 3, variable("t") ** 5 - variable("t")):
            assert d(inv(p)) == p


def test_damped_integration_rejects_zero():
    with pytest.raises(ValueError):
        DampedIntegration(0, "t")


def test_damped_integration_rejects_negative_powers_of_t():
    """The derivatives of t^-1 never vanish, so the expansion would not end."""
    with pytest.raises(ValueError, match="negative power of t"):
        DampedIntegration(Fraction(1), "t")(Polynomial(("t",), {(-1,): 1}, ("t",)))


def test_differential_form_applies_the_leibniz_rule():
    # d^2/dx^2 (x^2 u) = x^2 u'' + 4x u' + 2u
    form = differential_form(Compose(Derivative("x", 2), MultiplyBy(x**2)))
    assert form == {(("x", 2),): x**2, (("x", 1),): 4 * x, (): constant(2)}
    # d/dx d/dy (y * u) = y u_xy + u_x, with the multi-index sorted by variable
    form = differential_form(Compose(Derivative("y"), Derivative("x"), MultiplyBy(y)))
    assert form == {(("x", 1), ("y", 1)): y, (("x", 1),): constant(1)}
    assert differential_form(Sum((Derivative("x"), Compose(Scale(-1), Derivative("x", 1))))) == {}
    assert differential_form(Compose(Derivative("x", 0), Scale(Fraction(1, 2)))) == {(): constant(Fraction(1, 2))}
    assert differential_form(Compose(Derivative("x"), Integrate("x"))) is None
    assert differential_form(NestedRightInverse([(1, Derivative("x"))])) is None


# -- every node on integer forms, against oracles ------------------------------------

any_coefficients = st.sampled_from((coefficients(), gaussian_coefficients()))


@st.composite
def node_inputs(draw):
    """A polynomial over (x, y) with y Laurent, rational or Gaussian."""
    return draw(polynomials(vars=("x", "y"), max_terms=4, max_exp=3, laurent=("y",),
                            coeffs=draw(any_coefficients)))


def _after(p, *names):
    """The variable order of an image: p's variables, then the operator's."""
    return p.vars + tuple(v for v in dict.fromkeys(names) if v not in p.vars)


@given(node_inputs(), st.sampled_from(("x", "y", "z")), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_derivative_node_matches_stepwise_falling_factorials(p, var, order):
    out = Derivative(var, order)(p)
    assert out == diff_stepwise(p, var, order)
    assert out.vars == _after(p, var)
    assert out.laurent == p.laurent


@given(node_inputs(), st.sampled_from(("x", "y", "z")), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_integrate_node_matches_reciprocal_products(p, var, order):
    want = p
    try:
        for _ in range(order):
            want = integrate_by_reciprocal(want, var)
    except NonIntegrableTermError:
        with pytest.raises(NonIntegrableTermError):
            Integrate(var, order)(p)
        return
    out = Integrate(var, order)(p)
    assert out == want
    assert out.vars == _after(p, var)


def test_integrate_node_rejects_the_reciprocal():
    with pytest.raises(NonIntegrableTermError):
        Integrate("x")(Polynomial(("x",), {(-1,): 1}, ("x",)))
    with pytest.raises(NonIntegrableTermError):
        Integrate("x", 2)(Polynomial(("x", "y"), {(-2, 1): 3, (1, 0): 1}, ("x",)))


@given(node_inputs(), polynomials(vars=("z", "x"), max_terms=3, max_exp=2, coeffs=gaussian_coefficients()))
@settings(max_examples=60, deadline=None)
def test_multiply_node_matches_dict_products(p, f):
    op = MultiplyBy(f)
    out = op(p)
    assert out == dict_product(f, p)
    assert out.vars == _after(p, *f.vars)
    assert out.laurent == p.laurent | f.laurent
    # the multiplier is put over each variable order once and reused
    assert op(p) == out


@given(node_inputs(), any_coefficients.flatmap(lambda c: c))
@settings(max_examples=40, deadline=None)
def test_scale_node_scales_every_coefficient(p, c):
    out = Scale(c)(p)
    assert out == Polynomial(p.vars, {e: a * c for e, a in p.terms.items()}, p.laurent)
    assert out.vars == p.vars


@given(node_inputs())
@settings(max_examples=40, deadline=None)
def test_zero_scale_empty_sum_and_identity(p):
    for zero in (Scale(0), Scale(Fraction(0)), Sum(())):
        out = zero(p)
        assert out.is_zero()
        assert out.vars == p.vars
    same = Compose()(p)
    assert same == p
    assert same.vars == p.vars
    assert same.terms == p.terms


@given(node_inputs())
@settings(max_examples=40, deadline=None)
def test_sum_and_compose_fold_their_nodes(p):
    nodes = [Derivative("x", 2), Compose(MultiplyBy(x * y), Derivative("y")),
             Scale(GaussianRational(1, -2)), Integrate("z")]
    out = Sum(nodes)(p)
    want = Polynomial.zero()
    for op in nodes:
        want = want + op(p)
    assert out == want
    assert out.vars == _after(p, "x", "y", "z")
    composed = Compose(nodes)(p)
    want = p
    for op in reversed(nodes):
        want = op(want)
    assert composed == want


def test_image_variables_follow_the_input_then_the_tree():
    z = variable("z")
    op = Compose(MultiplyBy(x), Derivative("y"))
    assert op(z * y).vars == ("z", "y", "x")
    assert op(z).vars == ("z", "x", "y")
    assert op(z).is_zero()
    assert Sum((Integrate("w"), MultiplyBy(y * x)))(z).vars == ("z", "w", "y", "x")
    assert DampedIntegration(Fraction(2), "t")(z).vars == ("z", "t")
