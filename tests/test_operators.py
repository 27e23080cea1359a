import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagpde import (
    Compose,
    DampedIntegration,
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
    TrigPolynomial,
    constant,
    flag_basis,
    right_inverse_series,
    solve_by_series,
    variable,
)
from flagpde.operators import (
    FormApplicator,
    KernelPreconditionError,
    NotAFlagSystemError,
    OperatorHypothesisError,
    SeriesTerminationError,
    TrigApplicator,
    VerificationError,
    differential_form,
    form_map,
    forms_commute,
    op_from_json,
    op_to_json,
    operators_agree_on_sample,
)

from flagpde import operators
from flagpde.poly import ExponentRangeError, NonIntegrableTermError, _int_form

from oracles import (
    packed_form,
    apply_trig_termwise,
    assert_reduced,
    compose_forms_in_full,
    diff_stepwise,
    dict_product,
    forms_commute_by_composition,
    integrate_by_reciprocal,
    inverted_operator,
    nested_inverse_term_by_term,
)
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


def test_damped_integration_json_round_trip_with_a_gaussian_rate():
    op = DampedIntegration(GaussianRational(Fraction(1, 2), -3), "s")
    data = op_to_json(op)
    assert data == {"op": "damped_integration", "var": "s", "re": "1/2", "im": "-3"}
    back = op_from_json(data)
    assert back == op
    s = variable("s")
    assert back(s**3 * x) == op(s**3 * x)
    assert op_from_json(op_to_json(DampedIntegration(3, "s"))) == DampedIntegration(Fraction(3), "s")


def test_unknown_operator_tag_is_rejected():
    with pytest.raises(ValueError, match="unknown operator tag 'rotate'"):
        op_from_json({"op": "rotate", "var": "x"})


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


z = variable("z")
_FLAG_COEFFS = (-2 * x**2 - 3 * x, y**2, -2 * y**2 + 3 * y * z)


def _flag_series_config():
    """T1 = d^2/dx^2, T1inv = its double integral and T2 with orders
    (2, 1, 1) on y, z, w and the coefficients _FLAG_COEFFS: the weights are
    (1, 3, 5), and the seeds w^2, w^3, z w^2 and x w^3 need 8, 11, 10 and 11
    steps, more than 2 + degree * (largest order in T2)."""
    t2 = Sum(Compose(MultiplyBy(c), Derivative(v, m)) for c, v, m in zip(_FLAG_COEFFS, "yzw", (2, 1, 1)))
    return SeriesConfig(Derivative("x", 2), Integrate("x", 2), t2)


def test_flag_series_runs_to_its_weighted_bound():
    cfg = _flag_series_config()
    w = variable("w")
    assert operators._flag_weights(cfg.t2, frozenset("x")) == {"y": 1, "z": 3, "w": 5}
    assert [cfg.iteration_bound(s) for s in (w**2, w**3, z * w**2, x * w**3)] == [12, 17, 15, 17]
    family = flag_basis(FlagEquationSpec((2, 2, 1, 1), _FLAG_COEFFS, ("x", "y", "z", "w")), 3)
    assert len(family) == 40
    for element in family.elements:
        l1, l2, l3, l4 = element.index["ell"]
        assert solve_by_series(cfg, x**l1, y**l2 * z**l3 * w**l4) == element.solution


@pytest.mark.parametrize("t2", [
    MultiplyBy(y),                                           # an identity block
    Compose(Derivative("y"), Derivative("z")),               # a mixed block
    Sum((Derivative("y"), Derivative("y", 2))),              # two blocks of one variable
    Derivative("x"),                                         # a block of T1inv's variable
    Compose(MultiplyBy(y), Derivative("y", 2)),              # a coefficient on its own variable
    Sum((Compose(MultiplyBy(z), Derivative("y")), Compose(MultiplyBy(y), Derivative("z")))),  # a cycle
    Sum((Derivative("y"), Compose(MultiplyBy(Polynomial(("y",), {(-1,): 1}, ("y",))), Derivative("z")))),
], ids=["identity", "mixed", "two orders", "fixed", "own variable", "cycle", "negative power"])
def test_non_flag_perturbations_keep_the_degree_bound(t2):
    assert operators._flag_weights(t2, frozenset("x")) is None
    cfg = SeriesConfig(Derivative("x", 2), Integrate("x", 2), t2)
    assert cfg.iteration_bound(y**2 * z) == 2 + 3 * max(1, operators.max_derivative_order(t2))


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


@pytest.mark.parametrize("solve, message", [
    (lambda cfg: solve_by_series(cfg, x, y**2), "series output is not annihilated"),
    (lambda cfg: right_inverse_series(cfg, y**2), "right inverse output mismatch"),
])
def test_series_solvers_reject_a_corrupted_output(monkeypatch, solve, message):
    """x^2 y^2 added to the summed series is not in the kernel of the
    Laplacian, so the exact residual check sees it."""
    series = operators._series

    def corrupted(cfg, term, vs):
        return series(cfg, term, vs) + packed_form({(2,) * len(vs): 1})

    monkeypatch.setattr(operators, "_series", corrupted)
    with pytest.raises(VerificationError, match=message):
        solve(_laplace_config())


def test_config_validation_catches_wrong_inverse():
    with pytest.raises(OperatorHypothesisError):
        SeriesConfig(Derivative("x", 2), Integrate("x", 1), Derivative("y", 2))


def test_config_validation_sees_an_inverse_wrong_only_in_degree_two():
    """The integral plus the integral of the second derivative inverts d/dx
    on 1 and x, and misses on x^2 by 2."""
    almost = Sum((Integrate("x"), Compose(Integrate("x"), Derivative("x", 2))))
    for p in (constant(1), x, y, x * y):
        assert Derivative("x")(almost(p)) == p
    assert Derivative("x")(almost(x**2)) == x**2 + 2
    with pytest.raises(OperatorHypothesisError):
        SeriesConfig(Derivative("x"), almost, Derivative("y", 2))
    SeriesConfig(Derivative("x"), Integrate("x"), Derivative("y", 2))


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
    op = inverted_operator(inv)
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
    # the Horner chain skips every gcd pass, and apply_form reduces once
    assert_reduced(out.form)
    assert out == nested_inverse_term_by_term(inv, p)
    assert inverted_operator(inv)(out) == p


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
    vs = ("x", "y")

    def read(form):
        # alpha as (position, order) pairs, each coefficient an integer form over vs
        return {alpha: c.to_poly(vs, frozenset()) for alpha, c in form.items()}

    # d^2/dx^2 (x^2 u) = x^2 u'' + 4x u' + 2u
    form = differential_form(Compose(Derivative("x", 2), MultiplyBy(x**2)), vs)
    assert read(form) == {((0, 2),): x**2, ((0, 1),): 4 * x, (): constant(2)}
    # d/dx d/dy (y * u) = y u_xy + u_x, with the multi-index sorted by position
    form = differential_form(Compose(Derivative("y"), Derivative("x"), MultiplyBy(y)), vs)
    assert read(form) == {((0, 1), (1, 1)): y, ((0, 1),): constant(1)}
    # the order is the caller's: over (y, x) the same operator reads d_y at position 0
    form = differential_form(Compose(Derivative("y"), Derivative("x"), MultiplyBy(y)), ("y", "x"))
    assert set(form) == {((0, 1), (1, 1)), ((1, 1),)}
    assert differential_form(Sum((Derivative("x"), Compose(Scale(-1), Derivative("x", 1)))), vs) == {}
    form = differential_form(Compose(Derivative("x", 0), Scale(Fraction(1, 2))), vs)
    assert read(form) == {(): constant(Fraction(1, 2))}
    assert differential_form(Compose(Derivative("x"), Integrate("x")), vs) is None
    assert differential_form(NestedRightInverse([(1, Derivative("x"))]), vs) is None


def test_operators_without_normal_forms_are_compared_by_their_action():
    assert not operators_agree_on_sample(Integrate("x"), Integrate("y"), ("x", "y"))
    assert operators_agree_on_sample(Integrate("x"), Integrate("x"), ("x", "y"))


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


@st.composite
def block_operators(draw):
    """Sums of one to three blocks c * d^a/dx^a d^b/dy^b, c a rational or
    Gaussian polynomial over (x, y) with y Laurent: single-derivative
    blocks, mixed ones and multiplications."""
    coeffs = draw(any_coefficients)
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(polynomials(vars=("x", "y"), max_terms=2, max_exp=2, laurent=("y",), coeffs=coeffs))
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        blocks.append(Compose(MultiplyBy(c), Derivative("x", a), Derivative("y", b)))
    return Sum(blocks)


def test_form_applicator_kills_every_polynomial_term_under_an_order_above_the_bias():
    """An order above 2^14, the bias of a key field, kills every term with a
    non-negative exponent in its variable; a Laurent term there would
    leave the exponent range, so it raises."""
    app = FormApplicator(differential_form(Derivative("x", 20000), ("x",)))
    assert not app.apply_form(_int_form(variable("x") ** 3, ("x",)))
    with pytest.raises(ExponentRangeError, match="exponent -20001 is outside"):
        app.apply_form(_int_form(Polynomial(("x",), {(-1,): 1}, ("x",)), ("x",)))


@given(block_operators(), node_inputs(), st.tuples(st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=100, deadline=None)
def test_form_applicator_matches_the_tree_walk(op, p, exps):
    """One FormApplicator gives the image, and so the zero test, of walking
    the operator tree, on inputs it kills and inputs it does not."""
    vs = ("x", "y")
    app = FormApplicator(differential_form(op, vs))
    q = _int_form(p, vs)
    walked = op.apply_form(q, vs)
    assert app.apply_form(q) == walked
    assert form_map(op, vs)(q) == walked
    # an operator that kills the monomial m = x^a y^b: op - op(m) d^(a,b)/(a! b!)
    a, b = exps
    m = Polynomial(vs, {exps: 1}, ("y",))
    to_one = Compose(Scale(Fraction(1, math.factorial(a) * math.factorial(b))),
                     Derivative("x", a), Derivative("y", b))
    killer = Sum((op, Compose(MultiplyBy(-op(m)), to_one)))
    apply = form_map(killer, vs)
    for r in (m, m + p):
        walked = killer.apply_form(_int_form(r, vs), vs)
        assert apply(_int_form(r, vs)) == walked
    assert not apply(_int_form(m, vs))


def test_annihilation_reads_the_imaginary_sums_too():
    vs = ("x", "y")
    op = Compose(MultiplyBy(constant(GaussianRational(0, 2))), Derivative("x"))
    apply = form_map(op, vs)
    image = apply(_int_form(x + y, vs))
    assert image  # 2i: no real part, so the zero test reads the imaginary one
    assert image == packed_form({}, {(0, 0): 2})
    assert not apply(_int_form(y, vs))


def test_form_map_applies_operators_without_a_normal_form_as_they_are():
    vs = ("x", "y")
    q = _int_form(x * y**2 + 3, vs)
    for op in (Integrate("y", 2), Sum((Integrate("x"), Derivative("y")))):
        assert form_map(op, vs)(q) == op.apply_form(q, vs)


def test_image_variables_follow_the_input_then_the_tree():
    z = variable("z")
    op = Compose(MultiplyBy(x), Derivative("y"))
    assert op(z * y).vars == ("z", "y", "x")
    assert op(z).vars == ("z", "x", "y")
    assert op(z).is_zero()
    assert Sum((Integrate("w"), MultiplyBy(y * x)))(z).vars == ("z", "w", "y", "x")
    assert DampedIntegration(Fraction(2), "t")(z).vars == ("z", "t")


# -- the trig ring through the normal form -------------------------------------------

TRIG_VARS = ("t", "x")


def trig_leaves():
    """Derivatives in t and x of order <= 3, t-dependent Gaussian products,
    Gaussian scalars, the empty Sum and the identity."""
    return st.one_of(
        st.builds(Derivative, st.just("t"), st.integers(1, 3)),
        st.builds(Derivative, st.sampled_from(TRIG_VARS), st.integers(0, 3)),
        st.builds(MultiplyBy, polynomials(vars=TRIG_VARS, max_terms=2, max_exp=2,
                                          coeffs=gaussian_coefficients())),
        st.builds(Scale, gaussian_coefficients()),
        st.just(Sum(())),
        st.just(Compose()),  # the identity
    )


def trig_operators():
    return st.recursive(
        trig_leaves(),
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(Sum),
            st.lists(children, min_size=1, max_size=3).map(Compose),
        ),
        max_leaves=5,
    )


@st.composite
def trig_polynomials(draw):
    part = polynomials(vars=TRIG_VARS, max_terms=3, max_exp=3, coeffs=gaussian_coefficients())
    part = part.filter(lambda p: not p.is_zero())
    return TrigPolynomial(draw(part), draw(part), draw(coefficients()))


@given(trig_operators(), trig_polynomials())
@example(Derivative("t"), TrigPolynomial(constant(1), constant(0), Fraction(2)))
@settings(max_examples=60, deadline=None)
def test_apply_trig_matches_termwise_oracle(op, u):
    assert op.apply_trig(u) == apply_trig_termwise(op, u)
    assert op(u) == apply_trig_termwise(op, u)


@given(trig_operators(), trig_polynomials(), trig_polynomials())
@settings(max_examples=40, deadline=None)
def test_trig_applicator_built_once_matches_termwise_oracle(op, u, v):
    """One TrigApplicator over the parts of two trig polynomials of one
    frequency gives each the image of its own apply_trig call."""
    v = TrigPolynomial(v.cos_part, v.sin_part, u.frequency)
    shared = TrigApplicator(op, u.frequency, "t", (u.cos_part, u.sin_part, v.cos_part, v.sin_part))
    for w in (u, v):
        assert shared(w) == apply_trig_termwise(op, w) == op.apply_trig(w)
    with pytest.raises(ValueError, match="built for frequency"):
        shared(TrigPolynomial(u.cos_part, u.sin_part, u.frequency + 1))


@given(trig_operators(), trig_polynomials())
@settings(max_examples=40, deadline=None)
def test_trig_applicator_commutes_with_the_quarter_turn(op, u):
    """When the applicator maps (P, Q) to (A, B), it maps (-Q, P) to
    (-B, A): the reason klein_gordon_solutions checks only its first
    solution, whose quarter turn is the second."""
    turned = TrigPolynomial(-u.sin_part, u.cos_part, u.frequency)
    apply = TrigApplicator(op, u.frequency, "t", (u.cos_part, u.sin_part))
    image = apply(u)
    assert apply(turned) == TrigPolynomial(-image.sin_part, image.cos_part, u.frequency)


@given(trig_operators(), trig_polynomials(),
       st.sampled_from((Integrate("x"), DampedIntegration(Fraction(2), "t"),
                        NestedRightInverse([(1, Derivative("x"))]))),
       st.booleans())
@settings(max_examples=30, deadline=None)
def test_apply_trig_rejects_operators_without_a_normal_form(op, u, bad, as_sum):
    tree = Sum((op, bad)) if as_sum else Compose(op, bad)
    with pytest.raises(TypeError):
        tree.apply_trig(u)
    with pytest.raises(TypeError):
        apply_trig_termwise(tree, u)


# -- the commutator without its cancelling terms ------------------------------------

_NF_VARS = ("x", "y", "z")
# every derivative multi-index of order <= 2 over x, y, z, as normal-form keys
_ORDER_TWO = [()] + [((i, m),) for i in range(3) for m in (1, 2)] + [
    ((i, 1), (j, 1)) for i in range(3) for j in range(i + 1, 3)
]


@st.composite
def normal_forms(draw):
    """Normal forms sum_alpha c_alpha d^alpha of order <= 2 over x, y, z with
    polynomial coefficients, rational or Gaussian."""
    coeffs = draw(st.sampled_from((coefficients(), gaussian_coefficients())))
    alphas = draw(st.lists(st.sampled_from(_ORDER_TWO), unique=True, min_size=1, max_size=3))
    nonzero = polynomials(_NF_VARS, max_terms=3, max_exp=2, coeffs=coeffs).filter(lambda c: not c.is_zero())
    return {alpha: draw(nonzero).form for alpha in alphas}


@st.composite
def normal_form_pairs(draw):
    """Two unrelated forms, or a form and one that commutes with it: itself
    or its square."""
    a = draw(normal_forms())
    b = draw(st.one_of(normal_forms(), st.just(a), st.just(compose_forms_in_full(a, a))))
    return a, b


_ONE = _int_form(Polynomial.const(1), _NF_VARS)
_X = _int_form(x, _NF_VARS)


# [d/dx, x] = 1; x d/dx commutes with x^2 d^2/dx^2; d^2/dx^2 + x d^2/dydz with d^2/dy^2
@given(normal_form_pairs())
@example(({((0, 1),): _ONE}, {(): _X}))
@example(({((0, 1),): _X}, {((0, 2),): _int_form(x**2, _NF_VARS)}))
@example(({((0, 2),): _ONE, ((1, 1), (2, 1)): _X}, {((1, 2),): _ONE}))
@settings(max_examples=150, deadline=None)
def test_forms_commute_matches_the_composition_oracle(pair):
    a, b = pair
    assert forms_commute(a, b) == forms_commute_by_composition(a, b)
