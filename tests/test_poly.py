import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagpde
from flagpde import (
    GaussianRational,
    IMAG,
    Polynomial,
    TrigPolynomial,
    constant,
    variable,
)
from flagpde.poly import (
    EXP_MAX,
    EXP_MIN,
    ExponentRangeError,
    NonIntegrableTermError,
    _int_form,
    _IntForm,
    _reduced,
    _shifted_union,
)

from oracles import (
    _shifted_sum,
    diff_stepwise,
    dict_product,
    dict_sum,
    evaluate_through_terms,
    integrate_by_reciprocal,
    packed_form,
    tuple_diff,
    tuple_integrate,
    tuple_order,
    tuple_power,
    tuple_product,
    tuple_remap,
    tuple_shift,
    tuple_sum,
)
from strategies import gaussian_coefficients, polynomials


x, y = variable("x"), variable("y")


def test_difference_of_squares():
    assert (x + y) * (x - y) == x**2 - y**2


def test_multiplication_by_zero_gives_empty_term_map():
    p = x**2 * y + 3 * x
    assert (p * Polynomial.zero()).terms == {}


def test_laurent_exponent_addition():
    xl = variable("x", laurent=True)
    p = (xl**2 * y) * Polynomial(("x",), {(-1,): Fraction(1)}, ("x",))
    assert p == xl * y


def test_negative_exponent_requires_laurent_flag():
    with pytest.raises(ValueError):
        Polynomial(("x",), {(-1,): Fraction(1)})


@given(
    polynomials(max_terms=20),
    polynomials(max_terms=20),
    polynomials(max_terms=20),
)
def test_add_associative(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(
    polynomials(max_terms=20),
    polynomials(max_terms=20),
    polynomials(max_terms=20),
)
@settings(max_examples=60, deadline=None)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polynomials(), polynomials())
def test_mul_commutative(p, q):
    assert p * q == q * p


def test_partial_derivative_examples():
    assert (x**2 * y).diff("x") == 2 * x * y
    assert x.diff("x", 2).is_zero()
    tl = variable("t", laurent=True)
    tm2 = Polynomial(("t",), {(-2,): Fraction(1)}, ("t",))
    assert tm2.diff("t") == Polynomial(("t",), {(-3,): Fraction(-2)}, ("t",))


def test_integration_examples():
    assert (x**2).integrate("x") == Fraction(1, 3) * x**3
    assert constant(1).integrate("x") == x
    tm1 = Polynomial(("t",), {(-1,): Fraction(1)}, ("t",))
    with pytest.raises(NonIntegrableTermError):
        tm1.integrate("t")


@given(polynomials())
def test_derivative_is_right_inverse_of_integration(p):
    assert p.integrate("x").diff("x") == p


def test_integrate_then_differentiate_loses_constant_term():
    p = x + 3
    assert p.diff("x").integrate("x") != p
    assert p.diff("x").integrate("x") == x


@given(polynomials(), polynomials())
def test_derivative_linear(p, q):
    assert (p + q).diff("x") == p.diff("x") + q.diff("x")


def test_canonical_order_is_graded_lex_descending():
    p = x + y**2 + x * y + 1
    keys = [term["exp"] for term in p.to_json_terms()]
    assert keys == [{"x": 1, "y": 1}, {"y": 2}, {"x": 1}, {}]


@given(polynomials(max_terms=8))
@settings(max_examples=60)
def test_json_round_trip_identity(p):
    data = p.to_json_terms()
    back = Polynomial.from_json_terms(data, p.vars)
    assert back == p
    assert back.to_json_terms() == data


def test_json_rationals_are_strings():
    p = Fraction(2, 3) * x + IMAG * y
    for term in p.to_json_terms():
        assert isinstance(term["re"], str) and isinstance(term["im"], str)


def test_gaussian_field_axioms():
    a = GaussianRational(Fraction(1, 2), Fraction(-3))
    b = GaussianRational(2, Fraction(1, 5))
    assert (a * b) * a.inverse() == b * (a * a.inverse())
    assert a * a.inverse() == 1
    assert a.conjugate() * a == a.abs2()
    assert (IMAG * IMAG) == -1


def test_gaussian_powers_by_squaring():
    a = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert a**0 == 1 and a**1 == a
    assert a**5 == a * a * a * a * a
    assert a**-1 == a.inverse() and a**-3 == (a * a * a).inverse()
    assert a**-2 * a**2 == 1
    assert IMAG**4 == 1 and IMAG**-1 == -IMAG


def test_gaussian_collapse_to_fraction_in_polynomial():
    p = (IMAG * x) * (IMAG * x)
    assert p == -(x**2)
    # the imaginary parts cancel and -1 is integral, so the coefficient is an int
    assert all(type(c) is int for c in p.terms.values())


def test_real_imag_split():
    p = x + IMAG * y
    assert p.real_part() == x
    assert p.imag_part() == y


def test_substitute_polynomial():
    p = x**2 + y
    z = variable("z")
    assert p.substitute("x", z + 1) == z**2 + 2 * z + 1 + y


def test_evaluate_numeric():
    p = x**2 * y - Fraction(1, 2)
    assert p.evaluate({"x": 2.0, "y": 3.0}) == pytest.approx(11.5)


_POINT_PART = st.floats(-3, 3, allow_nan=False).filter(lambda v: abs(v) > 1e-3)


@settings(max_examples=60, deadline=None)
@given(
    polynomials(vars=("x", "y", "z"), laurent=("y",), coeffs=gaussian_coefficients(), max_terms=8),
    st.lists(st.builds(complex, _POINT_PART, _POINT_PART), min_size=3, max_size=3),
)
def test_evaluate_matches_the_terms_view(p, point):
    """Numerators over the denominator give bit for bit the value summed
    through the view's exact coefficients, in the view's term order."""
    values = dict(zip(("x", "y", "z"), point))
    assert repr(p.evaluate(values)) == repr(evaluate_through_terms(p, values))


def test_variable_order_does_not_affect_equality():
    p = Polynomial(("x", "y"), {(1, 2): Fraction(1)})
    q = Polynomial(("y", "x"), {(2, 1): Fraction(1)})
    assert p == q


# -- the trig ring -------------------------------------------------------------

def test_trig_time_derivative_of_cos():
    u = TrigPolynomial(constant(1), Polynomial.zero(), Fraction(3))
    du = u.diff_time()
    assert du.cos_part.is_zero()
    assert du.sin_part == constant(-3)


def test_trig_second_derivative_of_constant_cos_part():
    a = Fraction(2)
    u = TrigPolynomial(constant(5), Polynomial.zero(), a)
    ddu = u.diff_time().diff_time()
    assert ddu.cos_part == constant(-20)
    assert ddu.sin_part.is_zero()


def test_trig_harmonic_oscillator_kernel():
    a = Fraction(3, 2)
    u = TrigPolynomial(constant(2), constant(-7), a)
    ddu = u.diff_time().diff_time()
    result = TrigPolynomial(
        ddu.cos_part + a * a * u.cos_part, ddu.sin_part + a * a * u.sin_part, a
    )
    assert result.is_zero()


def test_trig_spatial_operators_act_componentwise():
    from flagpde import Derivative, Integrate, MultiplyBy

    u = TrigPolynomial(x**2, x * y, Fraction(1))
    out = Derivative("x").apply_trig(u)
    assert out.cos_part == 2 * x and out.sin_part == y
    out = MultiplyBy(y).apply_trig(u)
    assert out.cos_part == x**2 * y and out.sin_part == x * y**2
    with pytest.raises(TypeError):
        Integrate("x").apply_trig(u)


def _typed_terms(p):
    return p.vars, p.laurent, {e: (type(c), c) for e, c in p.terms.items()}


@given(
    polynomials(vars=("x", "y", "z"), laurent=("x", "z"), coeffs=gaussian_coefficients()),
    st.sampled_from(("x", "y", "z", "w")),
    st.integers(0, 4),
)
@settings(max_examples=80)
def test_diff_matches_stepwise_falling_factorial(p, var, order):
    assert _typed_terms(p.diff(var, order)) == _typed_terms(diff_stepwise(p, var, order))


@given(
    polynomials(vars=("x", "y", "z"), laurent=("x", "z"), coeffs=gaussian_coefficients()),
    st.sampled_from(("x", "y", "z", "w")),
)
@settings(max_examples=80)
def test_integrate_matches_reciprocal_product(p, var):
    try:
        want = integrate_by_reciprocal(p, var)
    except NonIntegrableTermError:
        with pytest.raises(NonIntegrableTermError):
            p.integrate(var)
        return
    assert _typed_terms(p.integrate(var)) == _typed_terms(want)


def _assert_canonical_coefficients(p):
    """int exactly when integral, else Fraction, or Gaussian with a nonzero imaginary part."""
    for c in p.terms.values():
        if isinstance(c, GaussianRational):
            assert c.im
        elif isinstance(c, Fraction):
            assert c.denominator != 1
        else:
            assert type(c) is int


MIXED = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-6, 6).filter(bool)),  # denominator 1
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    st.builds(GaussianRational, st.fractions(max_denominator=4), st.just(0)).filter(bool),
    gaussian_coefficients(),
)


@given(
    polynomials(vars=("x", "y"), laurent=("x",), coeffs=MIXED),
    polynomials(vars=("y", "z"), coeffs=MIXED),
    MIXED,
)
@settings(max_examples=80, deadline=None)
def test_coefficients_are_int_exactly_when_integral(p, q, c):
    results = [
        p, q, p + q, p - q, p * q, p * c, c * p, p / c, p + c, -p,
        p.diff("x", 2), p.diff("y"), q.integrate("y"), q.integrate("x"), p.integrate("z"),
        p.substitute("y", Fraction(1, 2)), p.substitute("y", 3), p.substitute("y", q),
        p.real_part(), p.imag_part(), Polynomial.from_json_terms(p.to_json_terms(), p.vars, p.laurent),
    ]
    for r in results:
        _assert_canonical_coefficients(r)
    assert Polynomial(("x",), {(1,): c}) == c * x


def test_family_coefficients_are_canonical():
    from flagpde import FlagEquationSpec, anisymmetric_basis, flag_basis, harmonic_basis

    x1, x2 = variable("x1"), variable("x2")
    families = [
        flag_basis(FlagEquationSpec((2, 1, 2), (IMAG * x1 + 1, x1 * x2 - Fraction(1, 2))), 3),
        flag_basis(FlagEquationSpec((3, 2, 1), (x1 + 1, x1 * x2 / 2)), 3),
        harmonic_basis(3, 4),
        anisymmetric_basis(2, -3, 1, 3),
    ]
    kinds = set()
    for fam in families:
        for e in fam.elements:
            _assert_canonical_coefficients(e.solution)
            kinds |= {type(c) for c in e.solution.terms.values()}
    assert kinds == {int, Fraction, GaussianRational}


@pytest.mark.parametrize("value", [0.5, 2.0, True, complex(1, 1)])
def test_float_and_bool_coefficients_are_refused(value):
    with pytest.raises(TypeError):
        Polynomial(("x",), {(1,): value})
    with pytest.raises(TypeError):
        x * value


@pytest.mark.parametrize("exponent", [2.0, True, 0.5])
def test_float_and_bool_exponents_are_refused(exponent):
    with pytest.raises(TypeError):
        Polynomial(("x",), {(exponent,): 1})
    with pytest.raises(TypeError):
        Polynomial(("x", "y"), {(1, exponent): Fraction(1, 2)})


@pytest.mark.parametrize("re, im", [(0.1, 1), (1, 0.5), (True, 0), (0, False), (complex(1, 1), 0)])
def test_gaussian_parts_must_be_exact(re, im):
    with pytest.raises(TypeError):
        GaussianRational(re, im)


def test_gaussian_parts_accept_exact_values():
    assert GaussianRational("1/3", 2) == GaussianRational(Fraction(1, 3), Fraction(2))


def test_integer_coefficients_print_like_fractions():
    assert str(1 - 3 * x * y + Fraction(5, 2) * y) == "-3*x*y + 5/2*y + 1"
    assert str(-x) == "-x"
    assert str(x.integrate("x") * 4) == "2*x^2"


# -- the integer form ---------------------------------------------------------------------

FORM_VARS = ("x", "y", "z")
FORM_POLYS = polynomials(vars=FORM_VARS, max_terms=4, max_exp=3, laurent=("x",), coeffs=gaussian_coefficients())
OTHER_POLYS = st.one_of(
    polynomials(vars=("z", "w", "x"), max_terms=4, max_exp=3, laurent=("x", "w"), coeffs=gaussian_coefficients()),
    polynomials(vars=("y",), max_terms=3, max_exp=3, coeffs=MIXED),
    FORM_POLYS,
)


def _assert_reduced(form):
    """No zero entries and a positive denominator coprime to the numerators."""
    assert form.den > 0
    assert all(form.re.values()) and all(form.im.values())
    assert math.gcd(form.den, *form.re.values(), *form.im.values()) == 1


@given(FORM_POLYS, OTHER_POLYS)
@settings(max_examples=60)
def test_integer_form_ring_steps_match_dict_oracles(p, q):
    """Sum, difference and product over mixed variable orders, against
    coefficient-by-coefficient arithmetic on the term dicts."""
    for got, want in ((p + q, dict_sum(p, q)), (p - q, dict_sum(p, q, -1)), (p * q, dict_product(q, p)),
                      (-p, dict_sum(Polynomial.zero(p.vars), p, -1))):
        _assert_reduced(got.form)
        assert _typed_terms(got) == _typed_terms(want)


@given(FORM_POLYS, st.integers(0, 2), st.integers(0, 3), gaussian_coefficients())
@settings(max_examples=60)
def test_integer_form_calculus_matches_dict_oracles(p, i, m, c):
    v = FORM_VARS[i]
    a = p.form
    _assert_reduced(a.diff(i, m))
    assert _typed_terms(a.diff(i, m).to_poly(FORM_VARS, p.laurent)) == _typed_terms(diff_stepwise(p, v, m))
    assert _typed_terms(a.scaled(c).to_poly(FORM_VARS, p.laurent)) == _typed_terms(dict_product(constant(c), p))
    shifted = a.shifted(i, 2, -3).to_poly(FORM_VARS, p.laurent)
    assert _typed_terms(shifted) == _typed_terms(dict_product(-3 * variable(v) ** 2, p))
    want = p
    try:
        for _ in range(m):
            want = integrate_by_reciprocal(want, v)
    except NonIntegrableTermError:
        with pytest.raises(NonIntegrableTermError):
            a.integrate(i, m)
        with pytest.raises(NonIntegrableTermError):
            p.integrate_n(v, m)
        return
    _assert_reduced(a.integrate(i, m))
    assert _typed_terms(a.integrate(i, m).to_poly(FORM_VARS, p.laurent)) == _typed_terms(want)
    assert _typed_terms(p.integrate_n(v, m)) == _typed_terms(want)


@given(FORM_POLYS, FORM_POLYS, FORM_POLYS)
@settings(max_examples=60)
def test_minus_product_is_a_difference_of_a_product(w, f, g):
    """w - f*g in one pass equals, once reduced, the product and the
    difference taken in turn, over denominators and imaginary parts that
    differ; the unreduced result already has no zero entries."""
    got = w.form.minus_product(f.form, g.form)
    assert got.den > 0 and all(got.re.values()) and all(got.im.values())
    assert _reduced(got.re, got.im, got.den, got.n) == w.form - f.form * g.form


@given(st.lists(st.tuples(FORM_POLYS, st.integers(0, 3), st.integers(-4, 4).filter(bool)), max_size=4),
       st.integers(0, 2))
@settings(max_examples=60)
def test_shifted_sum_is_a_sum_of_shifts(pieces, i):
    """sum factor * x_i^k * form in one pass equals the shifts added in turn."""
    got = _shifted_sum([(p.form, k, c) for p, k, c in pieces], i, len(FORM_VARS))
    want = _IntForm.zero(len(FORM_VARS))
    for p, k, c in pieces:
        want = want + p.form.shifted(i, k, c)
    _assert_reduced(got)
    assert got == want


@st.composite
def _pieces_without(draw):
    """A position i of FORM_VARS and up to four (form, k, factor) pieces
    over FORM_VARS with distinct k, whose Gaussian and Laurent forms have
    no x_i."""
    i = draw(st.integers(0, 2))
    others = FORM_VARS[:i] + FORM_VARS[i + 1:]
    polys = polynomials(vars=others, max_terms=4, max_exp=3, laurent=("x",) if "x" in others else (),
                        coeffs=gaussian_coefficients())
    pieces = draw(st.lists(st.tuples(polys, st.integers(-3, 3), st.integers(-4, 4).filter(bool)),
                           max_size=4, unique_by=lambda piece: piece[1]))
    return i, [(_int_form(p, FORM_VARS), k, c) for p, k, c in pieces]


@given(_pieces_without())
@settings(max_examples=60)
def test_shifted_union_is_the_shifted_sum_of_pieces_without_the_variable(case):
    i, pieces = case
    got = _shifted_union(pieces, i, len(FORM_VARS))
    _assert_reduced(got)
    assert got == _shifted_sum(pieces, i, len(FORM_VARS))


def test_integer_form_reorders_and_drops_unused_variables():
    p = Polynomial(("z", "w", "x"), {(1, 0, 2): Fraction(1, 2), (0, 0, 1): IMAG})
    form = _int_form(p, FORM_VARS)
    assert form == packed_form({(2, 0, 1): 1}, {(1, 0, 0): 2}, 2)
    assert form.to_poly(FORM_VARS, frozenset()) == p
    with pytest.raises(ValueError, match="w"):
        _int_form(Polynomial(("w",), {(1,): 1}), FORM_VARS)


# -- packed keys against tuple keys ----------------------------------------------------

PACKED_VARS = ("x", "y", "z")
# Laurent in x and z; exponents well inside the field range
PACKED_TERMS = st.dictionaries(
    st.tuples(st.integers(-40, 40), st.integers(0, 40), st.integers(-3, 3)),
    gaussian_coefficients(), max_size=5,
)


def _packed(terms):
    return Polynomial(PACKED_VARS, terms, ("x", "z"))


@given(PACKED_TERMS, PACKED_TERMS, st.integers(0, 2), st.integers(0, 3), st.integers(-5, 5),
       st.integers(-4, 4).filter(bool), st.permutations(PACKED_VARS + ("w",)))
@settings(max_examples=80, deadline=None)
def test_packed_keys_agree_with_tuple_keys(a, b, i, m, k, factor, order):
    """Every ring step on packed keys gives the terms, and text_terms the
    order, that the same step gives on exponent tuples."""
    p, q = _packed(a), _packed(b)
    assert (p + q).terms == tuple_sum(a, b)
    assert (p - q).terms == tuple_sum(a, b, -1)
    assert (p * q).terms == tuple_product(a, b)
    assert (p**2).terms == tuple_power(a, 2, 3)
    assert p.form.diff(i, m).to_poly(PACKED_VARS, p.laurent).terms == tuple_diff(a, i, m)
    assert p.form.shifted(i, k, factor).to_poly(PACKED_VARS, p.laurent).terms == tuple_shift(a, i, k, factor)
    pieces = [(p.form, k, factor), (q.form, m, 1)]
    want = tuple_sum(tuple_shift(a, i, k, factor), tuple_shift(b, i, m, 1))
    assert _shifted_sum(pieces, i, 3).to_poly(PACKED_VARS, p.laurent).terms == want
    try:
        want = tuple_integrate(a, i, m)
    except NonIntegrableTermError:
        with pytest.raises(NonIntegrableTermError):
            p.form.integrate(i, m)
    else:
        assert p.form.integrate(i, m).to_poly(PACKED_VARS, p.laurent).terms == want
    order = tuple(order)
    assert _int_form(p, order).to_poly(order, p.laurent).terms == tuple_remap(a, PACKED_VARS, order)
    assert [e for e, _, _ in p.text_terms()] == tuple_order(a)


def test_field_edge_exponents_round_trip():
    p = Polynomial(("x", "y"), {(EXP_MAX, EXP_MIN): 3, (0, EXP_MAX): 1, (EXP_MIN, 0): 2}, ("x", "y"))
    assert p.terms == {(EXP_MAX, EXP_MIN): 3, (0, EXP_MAX): 1, (EXP_MIN, 0): 2}
    assert [e for e, _, _ in p.text_terms()] == [(0, EXP_MAX), (EXP_MAX, EXP_MIN), (EXP_MIN, 0)]
    assert Polynomial.from_json_terms(p.to_json_terms(), ("x", "y"), ("x", "y")) == p
    assert p.coefficient({"x": EXP_MAX + 1}) == 0


def _edge_steps():
    """Each step that can carry an exponent one past the field range, on
    operands at its edge, next to a variable whose field a wrap would
    change."""
    x, y = variable("x"), Polynomial(("x", "y"), {(0, 1): 1})
    y_inv = Polynomial(("x", "y"), {(0, -1): 1}, ("y",))
    top = Polynomial(("x", "y"), {(0, EXP_MAX): 1})
    bottom = Polynomial(("x", "y"), {(0, EXP_MIN): 1}, ("y",))
    half = Polynomial(("x", "y"), {(0, EXP_MAX // 2 + 1): 1})
    return {
        "constructor": lambda: Polynomial(("x", "y"), {(0, EXP_MAX + 1): 1}),
        "constructor below": lambda: Polynomial(("x", "y"), {(0, EXP_MIN - 1): 1}, ("y",)),
        "from_json_terms": lambda: Polynomial.from_json_terms([{"exp": {"y": EXP_MAX + 1}, "re": "1"}],
                                                              ("x", "y")),
        "product": lambda: top * y,
        "product below": lambda: bottom * y_inv,
        "power": lambda: half**2,
        "integrate": lambda: top.integrate("y"),
        "integrate_n": lambda: Polynomial(("x", "y"), {(0, 2): 1}).integrate_n("y", EXP_MAX),
        "derivative below": lambda: bottom.diff("y"),
        "shift": lambda: top.form.shifted(1, 1, 1),
        "shifted sum": lambda: top.form.shifted(1, 1, 1),
        "top field": lambda: Polynomial(("x", "y"), {(EXP_MAX, 0): 1}) * x,
    }


@pytest.mark.parametrize("step", sorted(_edge_steps()))
def test_an_exponent_one_past_the_field_raises(step):
    with pytest.raises(ExponentRangeError):
        _edge_steps()[step]()


def test_products_at_the_field_edge_fit():
    """The largest and smallest exponents are reached by a product, and the
    neighbouring field keeps its exponent."""
    top = Polynomial(("x", "y"), {(1, EXP_MAX - 1): 1})
    bottom = Polynomial(("x", "y"), {(1, EXP_MIN + 1): 1}, ("y",))
    y = Polynomial(("x", "y"), {(0, 1): 1})
    y_inv = Polynomial(("x", "y"), {(0, -1): 1}, ("y",))
    assert (top * y).terms == {(1, EXP_MAX): 1}
    assert (bottom * y_inv).terms == {(1, EXP_MIN): 1}
    assert (bottom * y_inv).form.negative_positions() == {1}


@pytest.mark.parametrize("base, exponent", [
    (Polynomial(("x",), {(1,): 1, (0,): 1}), EXP_MAX + 1),
    (Polynomial(("x", "y"), {(1, 2): 1}), (EXP_MAX + 1) // 2),
    (Polynomial(("x",), {(-1,): 1}, ("x",)), -EXP_MIN + 1),
])
def test_a_power_beyond_the_range_is_refused_before_it_multiplies(monkeypatch, base, exponent):
    """p^n holds x_v^(n max_v) and x_v^(n min_v), so a power whose top or
    bottom exponent leaves the range raises before the first product."""
    def multiplied(*args):
        raise AssertionError("multiplied before the power was refused")

    monkeypatch.setattr(_IntForm, "__mul__", multiplied)
    with pytest.raises(ExponentRangeError):
        base**exponent


def test_powers_reaching_the_range_edge_fit():
    assert variable("x") ** EXP_MAX == Polynomial(("x",), {(EXP_MAX,): 1})
    x_inv = Polynomial(("x",), {(-1,): 1}, ("x",))
    assert x_inv ** -EXP_MIN == Polynomial(("x",), {(EXP_MIN,): 1}, ("x",))


# names of the packed key layout that only poly may read
_LAYOUT_NAMES = {"_W", "_BIAS", "_MASK", "_GUARD", "_layout", "_codec", "_check_fields", "_delta"}


def test_key_layout_is_private_to_poly():
    """Every module but poly works through poly's key helpers: none imports
    or names a layout constant or a field-level helper."""
    found = []
    for path in sorted(Path(flagpde.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [(path.name, node.lineno, name) for name in names if name in _LAYOUT_NAMES]
    assert not found
