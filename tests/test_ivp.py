import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagpde import (
    OdeProblem,
    Polynomial,
    Tree,
    TrigData,
    generalized_exponential,
    ode_derivatives_at_zero,
    solve_constant_ode,
    solve_flag_ivp,
    solve_tree_heat_ivp,
    solve_tree_wave_ivp,
    variable,
)
from flagpde import ivp
from flagpde.operators import SeriesTerminationError, VerificationError

from oracles import (
    carrier_apply_nested,
    flag_trace_residual_per_point,
    flag_values_per_point,
    fundamental_derivative_oracle,
    graded_exponential_series,
    graded_exponentials_reference,
    magnitude_bound_reference,
    tree_heat_mode_series,
    tree_wave_series_eager,
)


# -- the graded exponential series ---------------------------------------------------

def test_series_is_exponential_at_order_zero():
    for v in (0.3, 1.0, -2.0):
        assert generalized_exponential(0, [v]) == pytest.approx(math.exp(v), rel=1e-12)


def test_series_at_zero_arguments_is_reciprocal_factorial():
    for r in range(6):
        assert generalized_exponential(r, [0.0, 0.0]) == pytest.approx(
            1.0 / math.factorial(r), rel=1e-14
        )


@pytest.mark.parametrize("v", [0.1, 1.0, 2.0])
def test_series_reproduces_cosine(v):
    assert generalized_exponential(0, [0.0, -v * v]) == pytest.approx(math.cos(v), rel=1e-12)


def test_series_reproduces_sinc():
    v = 1.3
    assert v * generalized_exponential(1, [0.0, -v * v]) == pytest.approx(math.sin(v), rel=1e-12)


def test_series_diverges_loudly_on_wild_arguments(monkeypatch):
    monkeypatch.setattr(ivp, "WEIGHT_LIMIT", 32)
    with pytest.raises(SeriesTerminationError):
        generalized_exponential(0, [1e9, -1e9])


# six decimals keep the dyadic denominators, and so the exact oracle, small
_SMALL = st.floats(-1.4, 1.4, allow_nan=False).map(lambda v: round(v, 6))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.lists(st.builds(complex, _SMALL, _SMALL), min_size=2, max_size=4))
def test_series_matches_exact_tuple_sum(r, args):
    """Arguments of modulus below 2, two to four of them, against the tuple
    series summed exactly; the evaluator's absolute error is documented as
    about rel_tol * 2^-26 * sum |T_w|, and sum |T_w| is at most a few
    hundred times 1/r!, far below the 1e-20 / r! floor."""
    want = graded_exponential_series(r, args, 40)
    got = generalized_exponential(r, args)
    assert abs(got - want) <= 1e-13 * abs(want) + 1e-20 / math.factorial(r)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.builds(complex, _SMALL, _SMALL), min_size=2, max_size=4),
    st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True),
)
def test_shared_run_gives_each_order_as_asked_alone(args, orders):
    """One run of the recurrence for several orders gives each order bit for
    bit as generalized_exponential gives it alone, within the tolerance of
    test_series_matches_exact_tuple_sum of the exact tuple sum."""
    for r, got in zip(orders, ivp._graded_exponentials(orders, args)):
        assert repr(got) == repr(generalized_exponential(r, args))
        want = graded_exponential_series(r, args, 40)
        assert abs(got - want) <= 1e-13 * abs(want) + 1e-20 / math.factorial(r)


# real or complex arguments of modulus up to a few hundred, exact and signed zeros among them
_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-300, 300, allow_nan=False))
_ARG = st.one_of(_PART, st.builds(complex, _PART, _PART))


def _outcome(f, *args):
    """The repr of what f returns, or the type of what it raises."""
    try:
        return repr(f(*args))
    except (SeriesTerminationError, ArithmeticError, ValueError) as err:
        return type(err)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_ARG, min_size=2, max_size=4),
    st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True),
)
@example([800.0, 1.0], [0, 1])
@example([complex(-0.0, 250.0), -0.0, 0.0], [30, 0, 7])
@example([0.0, -2500.0], [0, 1])
@example([0.0, complex(0.0, 250.0), 0.0, 3.0], [0, 2, 9])
@example([0.0, 0.0, -0.0], [0, 4])
def test_kernel_matches_the_reference_bit_for_bit(args, orders):
    """The kernel gives every value, and the magnitude exponent, bit for bit
    as the reference copy of its loops does, and raises where that raises."""
    want = _outcome(graded_exponentials_reference, orders, args)
    assert _outcome(ivp._graded_exponentials, orders, args) == want
    moduli = [abs(complex(a)) for a in args]
    assert _outcome(ivp._magnitude_exponent, moduli) == _outcome(_reference_exponent, moduli)


def _reference_exponent(moduli) -> int:
    return math.frexp(magnitude_bound_reference(moduli))[1]


@pytest.mark.parametrize("shape, k", [
    *(pytest.param(lambda a: [0.0, a], k, id=f"cosh-2^{k}") for k in (10, 20, 40)),
    *(pytest.param(lambda a: [0.5, a, 0.25], k, id=f"three-2^{k}") for k in (40, 60)),
])
def test_magnitude_exponent_next_to_a_power_of_two(shape, k):
    """[0, a] sums cosh(sqrt a).  Around the a where the reference sum first
    reaches 2^k, from one ulp of a to 2^-28 of it below and above, the early
    stop (or the 2^-60 rule, where the mantissa leaves no room) gives the
    reference's exponent; three arguments leave the least room."""
    lo, hi = 0.0, 1.0
    while _reference_exponent(shape(hi)) <= k:
        lo, hi = hi, 2 * hi
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _reference_exponent(shape(mid)) <= k else (lo, mid)
    for ulps in (1, 2, 2**8, 2**16, 2**24):
        for a in (hi * (1 - ulps * 2.0**-52), lo, hi, hi * (1 + ulps * 2.0**-52)):
            assert ivp._magnitude_exponent(shape(a)) == _reference_exponent(shape(a))


@pytest.mark.parametrize("args", [[math.nan], [1.0, math.nan], [complex(0.5, math.nan), 1.0]])
def test_series_rejects_a_nan_argument(args):
    with pytest.raises(ValueError, match="NaN"):
        generalized_exponential(0, args)


@pytest.mark.parametrize("y", [math.inf, complex(0.0, math.inf), complex(-1.0, -math.inf)])
def test_one_argument_series_raises_instead_of_a_non_finite_value(y):
    """exp(inf) came back as inf+nanj; the series overflows, so it raises."""
    with pytest.raises(SeriesTerminationError, match="overflows the float range"):
        generalized_exponential(0, [y])


def test_one_argument_series_keeps_the_finite_limit_at_minus_infinity():
    assert generalized_exponential(0, [-math.inf]) == 0j


@pytest.mark.parametrize("r", [1, 2, 5])
def test_one_argument_series_has_limit_zero_at_minus_infinity_at_every_order(r):
    """(e^y - sum_(j<r) y^j/j!) / y^r tends to 0; the closed form overflowed."""
    assert generalized_exponential(r, [-math.inf]) == 0j
    assert generalized_exponential(r, [complex(-math.inf, 0.0)]) == 0j
    assert abs(generalized_exponential(r, [-1e6])) < 2e-6


def test_flag_ivp_raises_where_the_mode_series_overflows():
    """At x1 = 1e308 the argument x1 * 4 pi^2 is inf; the value was NaN with
    a trace residual of 0.0."""
    data = [TrigData((1.0,), {(1,): (1.0, 0.0)})]
    with pytest.raises(SeriesTerminationError, match="overflows the float range"):
        solve_flag_ivp([-variable("D2") ** 2], data, [(1e308, 0.1)])


@pytest.mark.parametrize("args", [[0.0, 0.0], [0.0, 0.0, 0.0], [0.5, -0.25]])
def test_series_keeps_its_precision_at_high_order(args):
    """Y_r is about 1/r!, so a fixed point scaled to Y_0 would lose log2(r!)
    bits: 1/24! came out as 2^-80 and Y_25 as 0."""
    for r in range(41):
        want = graded_exponential_series(r, args, 40)
        assert generalized_exponential(r, args) == pytest.approx(want, rel=1e-15, abs=0)


def test_high_order_ode_at_large_time():
    # y^(25) = 0 with y^(24)(0) = 1 is t^24 / 24!
    problem = OdeProblem((0,) * 25, (0,) * 24 + (1,))
    value = solve_constant_ode(problem, 10.0)
    assert value == pytest.approx(10.0**24 / math.factorial(24), rel=1e-14)


def test_series_overflow_raises_series_error():
    with pytest.raises(SeriesTerminationError):
        generalized_exponential(0, [800.0])
    with pytest.raises(SeriesTerminationError):
        generalized_exponential(1, [800.0, 1.0])


def test_series_near_a_zero_of_a_growing_oscillation():
    """Y_0(20 t, -500 t^2) = e^(10t) (cos 20t + sin(20t) / 2) near its zero
    at t = 1.044: truncation errors grow like e^(10t) through the recurrence
    while the value is 4e-11, so the fixed point needs the bits of the
    magnitude bound on top of the tolerance's."""
    t = (7 * math.pi - math.atan(2)) / 20
    args = [20 * t, -500 * t * t]
    want = graded_exponential_series(0, args, 200)
    assert abs(want) < 1e-10
    assert abs(generalized_exponential(0, args) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("b, t, omega", [(-100, 5.0, 50.0), (-400, 3.0, 60.0)])
def test_ode_large_frequency_has_no_cancellation(b, t, omega):
    # the terms of cos 60 reach 6e24 before they cancel down to -0.95
    value = solve_constant_ode(OdeProblem((0, b), (1, 0)), t)
    assert value == pytest.approx(math.cos(omega), rel=1e-14)


# -- constant-coefficient ODEs -----------------------------------------------------------

def test_ode_exponential():
    p = OdeProblem((1,), (1,))
    for t in np.linspace(0.0, 2.0, 9):
        assert solve_constant_ode(p, float(t)) == pytest.approx(math.exp(t), abs=1e-10)


def test_ode_cosine_and_sine():
    c = OdeProblem((0, -1), (1, 0))
    s = OdeProblem((0, -1), (0, 1))
    for t in np.linspace(0.0, 2.0, 9):
        assert solve_constant_ode(c, float(t)) == pytest.approx(math.cos(t), abs=1e-10)
        assert solve_constant_ode(s, float(t)) == pytest.approx(math.sin(t), abs=1e-10)


def test_ode_initial_derivatives_exact():
    rng = random.Random(11)
    for _ in range(5):
        coeffs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        init = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        p = OdeProblem(coeffs, init)
        assert tuple(ode_derivatives_at_zero(p)) == init


def test_ode_derivatives_match_multinomial_oracle():
    from oracles import _trace_derivative

    rng = random.Random(12)
    for m in (1, 2, 3, 4):
        coeffs = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m))
        init = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m))
        p = OdeProblem(coeffs, init)
        amps = []
        for r in range(m):
            assert all(
                _trace_derivative(p.coefficients, s, r, Fraction(1))
                == fundamental_derivative_oracle(coeffs, s, r)
                for s in range(m)
            )
            amps.append(init[r] - sum(
                (amps[s] * fundamental_derivative_oracle(coeffs, s, r) for s in range(r)), Fraction(0)
            ))
        want = [
            sum((amps[s] * fundamental_derivative_oracle(coeffs, s, r) for s in range(m)), Fraction(0))
            for r in range(m)
        ]
        assert ode_derivatives_at_zero(p) == want


def test_ode_random_order_three_against_integrator():
    from scipy.integrate import solve_ivp

    rng = random.Random(3)
    for _ in range(4):
        b = [rng.randint(-2, 2) / 2 for _ in range(3)]
        c = [rng.randint(-3, 3) for _ in range(3)]
        p = OdeProblem(tuple(Fraction(v) for v in b), tuple(Fraction(v) for v in c))

        def rhs(_, y):
            return [y[1], y[2], b[0] * y[2] + b[1] * y[1] + b[2] * y[0]]

        ts = np.linspace(0.0, 2.0, 7)[1:]
        ref = solve_ivp(rhs, (0.0, 2.0), [float(v) for v in c], method="DOP853",
                        t_eval=ts, rtol=1e-12, atol=1e-13)
        for t, want in zip(ts, ref.y[0]):
            assert solve_constant_ode(p, float(t)) == pytest.approx(want, abs=1e-9)


# -- trig data ------------------------------------------------------------------------------

def test_mode_folding_to_half_lattice():
    data = TrigData((1.0, 1.0), {(-1, 2): (0.5, 0.25), (1, -2): (0.5, 0.0)})
    assert set(data.modes) == {(1, -2)}
    c, s = data.modes[(1, -2)]
    assert c == pytest.approx(1.0) and s == pytest.approx(-0.25)


def test_zero_mode_sine_rejected():
    with pytest.raises(ValueError, match="zero mode"):
        TrigData((1.0,), {(0,): (1.0, 0.5)})


def test_value_at_samples():
    data = TrigData((2.0,), {(1,): (1.0, 0.0)})
    assert data.value_at((0.5,)) == pytest.approx(math.cos(2 * math.pi * 0.25))


def _one_argument_reference(r, y):
    """sum_i y^i / (r+i)! summed term by term at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        y = mpmath.mpmathify(y)
        term, total, i = 1 / mpmath.factorial(r), mpmath.mpf(0), 0
        while i <= abs(y) or abs(term) > mpmath.mpf(10) ** -60 * abs(total):
            total += term
            i += 1
            term = term * y / (r + i)
        return complex(total)


@pytest.mark.parametrize("r, y", [
    (10, 1.1), (12, 3.0), (20, -5.0), (30, 8.0),
    (20, 0.5), (0, -1.0), (1, -2.0), (3, -40.0), (2, 2.5 + 1.5j), (8, -9j),
])
def test_one_argument_series_matches_mpmath(r, y):
    got, want = generalized_exponential(r, [y]), _one_argument_reference(r, y)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_one_argument_series_raises_when_not_settling(monkeypatch):
    monkeypatch.setattr(ivp, "WEIGHT_LIMIT", 4)
    with pytest.raises(SeriesTerminationError):
        generalized_exponential(0, [0.5])


# -- constant-coefficient evolution equations ---------------------------------------------------

def _d2sq():
    d2 = variable("D2")
    return d2 * d2


def test_flag_ivp_dalembert_closed_form():
    g0 = TrigData((1.0,), {(1,): (1.0, 0.0)})
    g1 = TrigData((1.0,), {})
    pts = [(0.25 * i, 0.25 * j) for i in range(5) for j in range(5)]
    sol = solve_flag_ivp([Polynomial.zero(("D2",)), _d2sq()], [g0, g1], pts)
    for pt, got in zip(pts, sol.values):
        want = math.cos(2 * math.pi * pt[0]) * math.cos(2 * math.pi * pt[1])
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("symbols", [
    [Polynomial.zero(("D2",)), _d2sq() - 1],
    [variable("D2"), _d2sq(), Polynomial.zero(("D2",))],
])
def test_flag_ivp_grid_matches_per_point_evaluation(symbols):
    """One series run per (mode, x1) for all orders and one run of the
    derivative sums per mode give bit for bit the per-point values and
    residual, which evaluate every order and derivative anew."""
    modes = {(1,): (1.0, 0.5), (2,): (-0.25, 0.75), (-1,): (0.5, 0.0)}
    data = [TrigData((1.0,), {k: (b / (s + 1), c - s) for k, (b, c) in modes.items()})
            for s in range(len(symbols))]
    pts = [(0.1 * i, 0.15 * j - 0.4) for i in range(5) for j in range(7)]
    sol = solve_flag_ivp(symbols, data, pts)
    assert sol.values == flag_values_per_point(sol)
    assert sol.trace_residual == flag_trace_residual_per_point(sol, data)


def test_flag_ivp_bounds_each_mode_once_per_x1(monkeypatch):
    """Both orders of every mode come from one series run per (mode, x1):
    one magnitude pass each, however many orders are live."""
    calls = []
    exponent = ivp._magnitude_exponent

    def counted(moduli):
        calls.append(moduli)
        return exponent(moduli)

    monkeypatch.setattr(ivp, "_magnitude_exponent", counted)
    data = [TrigData((1.0,), {(1,): (1.0, 0.5), (2,): (-0.5, 0.25)}),
            TrigData((1.0,), {(1,): (0.25, 0.0), (2,): (0.0, 1.0)})]
    pts = [(x1, x2) for x1 in (0.0, 0.25, 0.5) for x2 in (-0.5, 0.5)]
    sol = solve_flag_ivp([variable("D2"), _d2sq() - 1], data, pts)
    assert all(b != 0.0 for mode in sol.modes for b in mode.b)
    assert len(calls) == len(sol.modes) * 3


def test_flag_ivp_zero_data():
    g = TrigData((1.0,), {})
    pts = [(0.3, 0.4)]
    sol = solve_flag_ivp([Polynomial.zero(("D2",)), _d2sq()], [g, g], pts)
    assert sol.values == [0.0]


def test_flag_ivp_heat_mode():
    g0 = TrigData((1.0,), {(1,): (1.0, 0.0)})
    pts = [(0.2 * i, 0.25 * j) for i in range(4) for j in range(4)]
    sol = solve_flag_ivp([_d2sq()], [g0], pts)
    for pt, got in zip(pts, sol.values):
        want = math.exp(-4 * math.pi**2 * pt[0]) * math.cos(2 * math.pi * pt[1])
        assert got == pytest.approx(want, abs=1e-9)


def test_flag_ivp_velocity_data_wave():
    # u with u(0) = 0, du(0) = cos mode: u = sin(2 pi x1) cos(2 pi x2) / (2 pi)
    g0 = TrigData((1.0,), {})
    g1 = TrigData((1.0,), {(1,): (1.0, 0.0)})
    pts = [(0.3, 0.2), (0.1, 0.7), (0.45, -0.3)]
    sol = solve_flag_ivp([Polynomial.zero(("D2",)), _d2sq()], [g0, g1], pts)
    for pt, got in zip(pts, sol.values):
        want = math.sin(2 * math.pi * pt[0]) * math.cos(2 * math.pi * pt[1]) / (2 * math.pi)
        assert got == pytest.approx(want, abs=1e-9)


def test_flag_ivp_superposition_of_modes():
    hw = (1.0, 2.0)
    a = TrigData(hw, {(1, 0): (0.7, 0.0)})
    b = TrigData(hw, {(0, 1): (0.0, -0.3)})
    both = TrigData(hw, {(1, 0): (0.7, 0.0), (0, 1): (0.0, -0.3)})
    zero = TrigData(hw, {})
    sym = variable("D2") ** 2 + variable("D3") ** 2
    pts = [(0.2, 0.3, 0.5), (0.6, -0.4, 1.1)]
    sa = solve_flag_ivp([Polynomial.zero(("D2", "D3")), sym], [a, zero], pts)
    sb = solve_flag_ivp([Polynomial.zero(("D2", "D3")), sym], [b, zero], pts)
    sab = solve_flag_ivp([Polynomial.zero(("D2", "D3")), sym], [both, zero], pts)
    for va, vb, vab in zip(sa.values, sb.values, sab.values):
        assert vab == pytest.approx(va + vb, abs=1e-12)
    # per-mode amplitudes of the combined solve equal the single-mode ones bit for bit
    singles = {m.k: m for m in sa.modes + sb.modes}
    for mode in sab.modes:
        assert mode.b == singles[mode.k].b and mode.c == singles[mode.k].c


def test_flag_ivp_dalembert_high_mode_at_far_edge():
    g0 = TrigData((1.0,), {(6,): (1.0, 0.0)})
    g1 = TrigData((1.0,), {})
    pts = [(1.0, 0.05), (1.0, -0.3), (0.8, 0.1)]
    sol = solve_flag_ivp([Polynomial.zero(("D2",)), _d2sq()], [g0, g1], pts)
    for (x1, x2), got in zip(pts, sol.values):
        want = math.cos(12 * math.pi * x1) * math.cos(12 * math.pi * x2)
        assert abs(got - want) <= 1e-12


def test_flag_ivp_derivative_normalization():
    """The fundamental mode profiles satisfy d^s phi_r(0) = delta(r,s) and
    d^s psi_r(0) = 0 for s <= r."""
    from flagpde.ivp import _FlagMode
    from oracles import _trace_derivative

    mode = _FlagMode((1,), [0.5 + 0.25j, -1.0 + 2.0j, 0.75j], [0, 0, 0], [0, 0, 0])
    for r in range(3):
        for s in range(r + 1):
            g = _trace_derivative(mode.symbol_values, r, s, 1 + 0j)
            want = 1.0 if r == s else 0.0
            assert g.real == pytest.approx(want) and g.imag == pytest.approx(0.0)


def test_flag_ivp_residual_by_stencil():
    g0 = TrigData((1.0,), {(1,): (1.0, 0.0)})
    g1 = TrigData((1.0,), {})
    sol = solve_flag_ivp([Polynomial.zero(("D2",)), _d2sq()], [g0, g1], [(0.3, 0.4)])
    h = 1e-3
    stencil = (-1, 16, -30, 16, -1)

    def second(f, z):
        return sum(w * f(z + (k - 2) * h) for k, w in enumerate(stencil)) / (12 * h * h)

    x1, x2 = 0.3, 0.4
    u11 = second(lambda z: sol.at(z, (x2,)), x1)
    u22 = second(lambda z: sol.at(x1, (z,)), x2)
    scale = max(abs(u11), abs(u22), 1.0)
    assert abs(u11 - u22) / scale < 1e-5


# -- the tree heat flow ----------------------------------------------------------------------------

def test_tree_heat_single_node_closed_form():
    tree = Tree(1, [])
    g0 = TrigData((1.0,), {(1,): (1.0, 0.0)})
    pts = [(0.1,), (0.35,), (-0.2,)]
    sol = solve_tree_heat_ivp(tree, g0, 0.02, pts)
    for pt, got in zip(pts, sol.values):
        want = math.exp(-4 * math.pi**2 * 0.02) * math.cos(2 * math.pi * pt[0])
        assert got == pytest.approx(want, rel=1e-12)
    assert sol.at(0.0, (0.1,)) == pytest.approx(math.cos(2 * math.pi * 0.1), abs=1e-12)


def _chain3_heat_mode_closed_form(k, a, t, x):
    """Re exp(i theta + Xi(t)) on the chain 1-2-3, with Xi(t) = -decay - i phase."""
    k1, k2, k3 = [kv / av for kv, av in zip(k, a)]
    pi = math.pi
    decay = (
        4 * pi**2 * t * (
            k1**2
            - (4 * pi**2 * t**2 / 3) * (k2**4 + 2 * k1 * k2 * k3**2)
            + (16 * pi**4 * t**4 / 3) * k2**2 * k3**4
            - (64 * pi**6 * t**6 / 63) * k3**8
        )
        + 4 * pi**2 * t * x[0] * (k2**2 - (4 * pi**2 * t**2 / 3) * k3**4)
        + 4 * pi**2 * k3**2 * t * x[1]
    )
    phase = (
        8 * pi**3 * t**2 * (
            k1 * k2**2
            - (2 * pi**2 * t**2 / 3) * (3 * k2**3 * k3**2 + k1 * k3**4)
            + (16 * pi**4 * t**4 / 9) * k2 * k3**6
        )
        + 8 * pi**3 * k2 * k3**2 * t**2 * x[0]
    )
    theta = 2 * pi * (k1 * x[0] + k2 * x[1] + k3 * x[2])
    return math.exp(-decay) * math.cos(theta - phase)


def test_tree_heat_chain3_matches_closed_form():
    tree = Tree(3, [(1, 2), (2, 3)])
    hw = (1.0, 1.5, 2.0)
    g0 = TrigData(hw, {(1, 2, 1): (1.0, 0.0)})
    pts = [(0.1, 0.2, 0.3), (-0.3, 0.6, -0.8)]
    sol = solve_tree_heat_ivp(tree, g0, 0.05, pts)
    assert sol.trace_residual <= 1e-9
    for t in (0.01, 0.05):
        for pt in pts:
            got = sol.at(t, pt)
            want = _chain3_heat_mode_closed_form((1, 2, 1), hw, t, pt)
            assert got == pytest.approx(want, abs=1e-9)


def test_tree_heat_matches_operator_power_series():
    """exp(i theta + Xi(t)) equals sum t^i/i! d_T^i applied to exp(i theta)."""
    tree = Tree(3, [(1, 2), (2, 3)])
    hw = (1.0, 1.5, 2.0)
    k = (1, 2, 1)
    g0 = TrigData(hw, {k: (1.0, 0.0)})
    pts = [(0.1, 0.2, 0.3), (-0.3, 0.6, -0.8)]
    sol = solve_tree_heat_ivp(tree, g0, 0.05, pts)
    for t in (0.01, 0.05):
        for pt in pts:
            want = tree_heat_mode_series(tree, k, hw, t, pt)
            assert abs(sol.mode_wave(k, t, pt) - want) <= 1e-12


def test_tree_heat_keeps_sine_amplitudes():
    tree = Tree(2, [(1, 2)])
    hw = (1.0, 2.0)
    g0 = TrigData(hw, {(1, 1): (0.5, -0.25), (0, 1): (0.0, 0.75)})
    pt = (0.2, -0.4)
    sol = solve_tree_heat_ivp(tree, g0, 0.03, [pt])
    want = 0.0
    for k, (c, s) in g0.modes.items():
        w = tree_heat_mode_series(tree, k, hw, 0.03, pt)
        want += c * w.real + s * w.imag
    assert sol.values[0] == pytest.approx(want, abs=1e-12)
    assert sol.at(0.0, pt) == pytest.approx(g0.value_at(pt), abs=1e-12)


def test_tree_heat_rejects_data_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="dimension"):
        solve_tree_heat_ivp(Tree(2, [(1, 2)]), TrigData((1.0,), {(1,): (1.0, 0.0)}), 0.1, [(0.1,)])


@pytest.mark.parametrize("t", [1e5, 1e300])
def test_tree_heat_overflow_names_the_mode_and_time(t):
    # t = 1e5 overflows in exp, t = 1e300 already in the powers of t in the symbol
    g0 = TrigData((1.0, 1.0), {(1, 1): (1.0, 0.0)})
    with pytest.raises(SeriesTerminationError, match=re.escape(f"mode (1, 1) at t={t!r} overflows")):
        solve_tree_heat_ivp(Tree(2, [(1, 2)]), g0, t, [(0.1, 0.2)])


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_tree_heat_infinite_sum_names_the_mode_and_time(t):
    # each wave is finite, but times the amplitude 1e300 it overflows
    g0 = TrigData((1.0, 1.0), {(1, 1): (1e300, 0.0)})
    with pytest.raises(SeriesTerminationError, match=re.escape(f"mode (1, 1) at t={t!r}")):
        solve_tree_heat_ivp(Tree(2, [(1, 2)]), g0, t, [(0.1, 0.2)])


# -- non-finite data --------------------------------------------------------------------------------

def test_nan_data_fails_every_trace_check():
    """NaN values give NaN residuals, which max() would drop; each solver must raise."""
    tree = Tree(2, [(1, 2)])
    nan2 = TrigData((1.0, 1.0), {(1, 0): (math.nan, 0.0)})
    zero2 = TrigData((1.0, 1.0), {})
    pts = [(0.1, 0.2), (0.3, -0.4)]
    with pytest.raises(VerificationError, match="nan"):
        solve_flag_ivp([_d2sq()], [TrigData((1.0,), {(1,): (math.nan, 0.0)})], pts)
    with pytest.raises(VerificationError, match="nan"):
        solve_tree_heat_ivp(tree, nan2, 0.1, pts)
    for g0, g1 in ((nan2, zero2), (zero2, nan2)):
        with pytest.raises(VerificationError, match="nan"):
            solve_tree_wave_ivp(tree, g0, g1, 0.1, pts)


def test_checked_residual_keeps_a_nan_after_finite_residuals():
    from flagpde.ivp import _checked_residual

    assert _checked_residual([1e-12, 3e-12, 0.0]) == 3e-12
    assert _checked_residual([]) == 0.0
    with pytest.raises(VerificationError, match="nan"):
        _checked_residual([1e-12, math.nan, 0.0])
    with pytest.raises(VerificationError, match="exceeds"):
        _checked_residual([1e-12, 2e-9])


def test_every_trace_check_reads_the_one_tolerance(monkeypatch, tmp_path, capsys):
    """A tolerance no residual can meet fails each solver's trace check,
    and the ivp flag command exits 3 without a report."""
    from flagpde.cli import main

    monkeypatch.setattr(ivp, "TRACE_TOLERANCE", -1.0)
    tree, pts = Tree(2, [(1, 2)]), [(0.1, 0.2)]
    g0, zero = TrigData((1.0, 1.0), {(1, 0): (1.0, 0.0)}), TrigData((1.0, 1.0), {})
    with pytest.raises(VerificationError):
        solve_flag_ivp([_d2sq()], [TrigData((1.0,), {(1,): (1.0, 0.0)})], pts)
    with pytest.raises(VerificationError):
        solve_tree_heat_ivp(tree, g0, 0.1, pts)
    with pytest.raises(VerificationError):
        solve_tree_wave_ivp(tree, g0, zero, 0.1, pts)
    (tmp_path / "s.json").write_text('{"variables": ["D2"], "symbols": [[{"exp": {"D2": 2}, "re": "1"}]]}')
    (tmp_path / "d.json").write_text('{"halfWidths": [1.0], "modes": [{"k": [1], "cos": 1.0}]}')
    out = tmp_path / "out.json"
    assert main(["ivp", "flag", "--orders", "1", "--grid", "2x2", "--out", str(out),
                 "--symbols", str(tmp_path / "s.json"), "--data", str(tmp_path / "d.json")]) == 3
    assert "verification failed" in capsys.readouterr().err
    assert not out.exists()


def test_flag_ivp_needs_an_order():
    with pytest.raises(ValueError, match="at least one order"):
        solve_flag_ivp([], [], [(0.5, 0.1)])


def test_flag_ivp_rejects_a_symbol_outside_the_dual_variables():
    """A symbol variable other than D2..Dn has no value at a mode; it is
    refused by name instead of being read as 0."""
    data = [TrigData((1.0,), {(1,): (1.0, 0.0)})]
    assert abs(solve_flag_ivp([variable("D2") ** 2], data, [(1.0, 0.0)]).values[0]) < 1e-12
    with pytest.raises(ValueError, match=r"\['x2'\] are not among \['D2'\]"):
        solve_flag_ivp([variable("x2") ** 2], data, [(1.0, 0.0)])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_tree_solvers_reject_non_finite_time(t):
    tree = Tree(2, [(1, 2)])
    g0 = TrigData((1.0, 1.0), {(1, 0): (1.0, 0.0)})
    with pytest.raises(ValueError, match="finite"):
        solve_tree_heat_ivp(tree, g0, t, [(0.1, 0.2)])
    with pytest.raises(ValueError, match="finite"):
        solve_tree_wave_ivp(tree, g0, TrigData((1.0, 1.0), {}), t, [(0.1, 0.2)])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_ode_and_flag_solvers_reject_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        solve_constant_ode(OdeProblem((0, -1), (1, 0)), t)
    data = [TrigData((1.0,), {(1,): (1.0, 0.0)})]
    with pytest.raises(ValueError, match="finite"):
        solve_flag_ivp([variable("D2") ** 2], data, [(0.5, 0.1), (t, 0.1)])


@pytest.mark.parametrize("point", [(0.5,), (0.5, 0.1, 0.7)])
def test_flag_ivp_rejects_a_point_of_the_wrong_length(point):
    """zip cut the point to the half widths: (0.5,) was read as x2 = 0."""
    data = [TrigData((1.0,), {(1,): (1.0, 0.0)})]
    with pytest.raises(ValueError, match=f"has {len(point)} entries, need x1 and 1 more"):
        solve_flag_ivp([variable("D2") ** 2], data, [point])


@pytest.mark.parametrize("point", [(0.1,), (0.1, 0.2, 0.3)])
def test_tree_wave_rejects_a_point_of_the_wrong_length(point):
    tree = Tree(2, [(1, 2)])
    g0 = TrigData((1.0, 1.0), {(1, 0): (1.0, 0.0)})
    with pytest.raises(ValueError, match=f"has {len(point)} entries, the tree has 2 nodes"):
        solve_tree_wave_ivp(tree, g0, TrigData((1.0, 1.0), {}), 0.1, [point])


def test_tree_heat_rejects_a_point_of_the_wrong_length():
    tree = Tree(2, [(1, 2)])
    g0 = TrigData((1.0, 1.0), {(1, 0): (1.0, 0.0)})
    for point in [(0.1,), (0.1, 0.2, 0.3)]:
        with pytest.raises(ValueError, match=f"has {len(point)} entries, the tree has 2 nodes"):
            solve_tree_heat_ivp(tree, g0, 0.1, [point])
    with pytest.raises(ValueError, match="has 1 entries, the tree has 2 nodes"):
        solve_tree_heat_ivp(tree, TrigData((1.0, 1.0), {}), 0.1, [(0.1,)])


def _solved(kind):
    """(solution, a time, a valid point, the point-length message) of each kind."""
    if kind == "flag":
        sol = solve_flag_ivp([variable("D2") ** 2], [TrigData((1.0,), {(1,): (1.0, 0.0)})], [(0.5, 0.0)])
        return sol, 0.5, (0.0,), "need x1 and 1 more"
    tree = Tree(2, [(1, 2)])
    g0 = TrigData((1.0, 1.0), {(1, 0): (1.0, 0.0)})
    if kind == "heat":
        sol = solve_tree_heat_ivp(tree, g0, 0.1, [(0.1, 0.2)])
    else:
        sol = solve_tree_wave_ivp(tree, g0, TrigData((1.0, 1.0), {(0, 1): (0.5, 0.0)}), 0.1, [(0.1, 0.2)])
    return sol, 0.1, (0.1, 0.2), "the tree has 2 nodes"


@pytest.mark.parametrize("kind", ["flag", "heat", "wave"])
def test_at_checks_the_point_as_the_solver_does(kind):
    """zip cut the point in .at: the flag's at(0.5, ()) was its value at
    x2 = 0, and a 2-node tree wave's at(0.1, (0.1,)) a value."""
    sol, t, point, need = _solved(kind)
    assert sol.at(t, point) == sol.values[0]
    for bad in (point[:-1], point + (0.7,)):
        with pytest.raises(ValueError, match=re.escape(need)):
            sol.at(t, bad)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind", ["flag", "heat", "wave"])
def test_at_rejects_a_non_finite_time(kind, t):
    """inf read as a NaN argument (flag) or as an overflow after 85 terms
    (tree wave)."""
    sol, _, point, _ = _solved(kind)
    with pytest.raises(ValueError, match=f"{'x1' if kind == 'flag' else 't'} must be finite"):
        sol.at(t, point)


@pytest.mark.parametrize("call", [
    lambda: _solved("flag")[0].at(0.5, (math.nan,)),
    lambda: _solved("flag")[0].at(0.5, (math.inf,)),
    lambda: solve_flag_ivp([variable("D2") ** 2], [TrigData((1.0,), {(1,): (1.0, 0.0)})], [(0.5, math.inf)]),
    lambda: solve_tree_heat_ivp(Tree(2, [(1, 2)]), TrigData((1.0, 1.0), {(1, 0): (1.0, 0.0)}), 0.1, [(math.inf, 0.2)]),
    lambda: _solved("heat")[0].at(0.1, (math.nan, 0.2)),
    lambda: _solved("wave")[0].at(0.1, (math.nan, 0.2)),
], ids=["flag-at-nan", "flag-at-inf", "flag-solve-inf", "heat-solve-inf", "heat-at-nan", "wave-at-nan"])
def test_a_non_finite_coordinate_is_bad_input(call):
    """A NaN coordinate came back as a NaN value, an infinite one as a bare
    math domain error or as the SeriesTerminationError of an overflow."""
    with pytest.raises(ValueError, match="non-finite coordinate"):
        call()


# -- the tree wave IVP ----------------------------------------------------------------------------

def test_tree_wave_single_node_closed_form():
    """On one node d_T cos 2 pi x = -4 pi^2 cos 2 pi x, so the wave is
    cos 2 pi t * cos 2 pi x."""
    tree = Tree(1, [])
    g0 = TrigData((1.0,), {(1,): (1.0, 0.0)})
    g1 = TrigData((1.0,), {})
    pts = [(0.1,), (0.35,), (-0.2,)]
    sol = solve_tree_wave_ivp(tree, g0, g1, 0.3, pts)
    for t in (0.0, 0.02, 0.3, 0.5):
        for pt in pts:
            want = math.cos(2 * math.pi * t) * math.cos(2 * math.pi * pt[0])
            assert abs(sol.at(t, pt) - want) <= 1e-12
    for pt, got in zip(pts, sol.values):
        assert abs(got - math.cos(2 * math.pi * 0.3) * math.cos(2 * math.pi * pt[0])) <= 1e-12


def test_tree_wave_zero_data_is_zero():
    tree = Tree(2, [(1, 2)])
    zero = TrigData((1.0, 1.0), {})
    sol = solve_tree_wave_ivp(tree, zero, zero, 0.1, [(0.1, 0.2)])
    assert sol.values == [0.0]


def test_tree_wave_series_does_not_stop_where_low_powers_vanish():
    """At (2, -1, -2) the values of d_T phi and d_T^2 phi are zero but d_T^3 phi
    is not, so two quiet values must not end the sum."""
    tree = Tree(3, [(1, 2), (2, 3)])
    hw = (2.0, 1.0, 2.0)
    g0 = TrigData(hw, {(2, 0, 2): (0.737, 0.0)})
    g1 = TrigData(hw, {})
    pts = [(2.0, -1.0, -2.0), (2.0, -1.0 + 1e-12, -2.0)]
    sol = solve_tree_wave_ivp(tree, g0, g1, 0.167, pts)
    assert abs(sol.values[0] - 0.7371384248832621) <= 1e-12
    assert abs(sol.values[1] - sol.values[0]) <= 1e-9
    assert sol.values[0] == tree_wave_series_eager(tree, g0, g1, 0.167, pts[0])


def test_tree_wave_initial_traces():
    tree = Tree(3, [(1, 2), (2, 3)])
    hw = (1.0, 1.0, 1.0)
    g0 = TrigData(hw, {(1, 1, 1): (0.8, 0.1), (1, 0, 0): (-0.2, 0.4)})
    g1 = TrigData(hw, {(0, 1, 0): (0.3, 0.0)})
    pts = [(0.1, 0.2, 0.3), (0.5, -0.5, 0.25)]
    sol = solve_tree_wave_ivp(tree, g0, g1, 0.02, pts)
    assert sol.trace_residual <= 1e-9
    for pt in pts:
        assert sol.at(0.0, pt) == pytest.approx(g0.value_at(pt), abs=1e-9)
    # velocity trace by central difference
    h = 1e-5
    for pt in pts:
        vel = (sol.at(h, pt) - sol.at(-h, pt)) / (2 * h)
        assert vel == pytest.approx(g1.value_at(pt), abs=1e-5)


def test_tree_wave_series_residual_by_stencil():
    """The series evolution is annihilated by d/dt^2 - d_T pointwise."""
    from flagpde import solve_tree_wave_series

    tree = Tree(2, [(1, 2)])
    hw = (1.0, 1.0)
    g0 = TrigData(hw, {(1, 1): (1.0, 0.0)})
    g1 = TrigData(hw, {})
    sol = solve_tree_wave_series(tree, g0, g1, 0.05, [(0.2, 0.3)])
    h = 1e-3
    stencil = (-1, 16, -30, 16, -1)

    def second(f, z):
        return sum(w * f(z + (k - 2) * h) for k, w in enumerate(stencil)) / (12 * h * h)

    t0, (x1, x2) = 0.05, (0.2, 0.3)
    utt = second(lambda z: sol.at(z, (x1, x2)), t0)
    u11 = second(lambda z: sol.at(t0, (z, x2)), x1)
    u22 = second(lambda z: sol.at(t0, (x1, z)), x2)
    residual = utt - (u11 + x1 * u22)
    scale = max(abs(utt), abs(u11), abs(u22), 1.0)
    assert abs(residual) / scale < 1e-5


def test_tree_wave_series_reproduces_traces():
    from flagpde import solve_tree_wave_series

    tree = Tree(3, [(1, 2), (2, 3)])
    hw = (1.0, 1.0, 1.0)
    g0 = TrigData(hw, {(1, 1, 1): (0.8, 0.1)})
    g1 = TrigData(hw, {(0, 1, 0): (0.3, 0.0)})
    pts = [(0.1, 0.2, 0.3), (0.5, -0.5, 0.25)]
    sol = solve_tree_wave_series(tree, g0, g1, 0.05, pts)
    assert sol.trace_residual <= 1e-9
    h = 1e-5
    for pt in pts:
        vel = (sol.at(h, pt) - sol.at(-h, pt)) / (2 * h)
        assert vel == pytest.approx(g1.value_at(pt), abs=1e-5)


def test_tree_wave_symbol_solution_satisfies_factorized_identity():
    """Averaging the forward and backward heat flows does not give the wave:
    the average satisfies u_tt = d_T(d_T u), not u_tt = d_T u.  The exact
    polynomial analogue pins this."""
    import math as _math
    from flagpde import Polynomial, tricomi_operator

    x2 = variable("x2")
    tree = Tree(2, [(1, 2)])
    d = tricomi_operator(tree)

    def exp_flow(sign, seed, terms=10):
        out = Polynomial.zero(("t", "x1", "x2"))
        piece = seed
        for k in range(terms):
            out = out + Polynomial(
                ("t",), {(k,): Fraction(sign**k, _math.factorial(k))}
            ) * piece
            piece = d(piece)
            if piece.is_zero():
                break
        return out

    seed = x2**4
    even_flow = (exp_flow(1, seed) + exp_flow(-1, seed)) / 2
    assert (even_flow.diff("t", 2) - d(d(even_flow))).is_zero()
    assert not (even_flow.diff("t", 2) - d(even_flow)).is_zero()
    # the strictly second-order solution differs from the averaged flow
    true_even = Polynomial.zero(("t", "x1", "x2"))
    piece = seed
    i = 0
    while not piece.is_zero():
        true_even = true_even + Polynomial(
            ("t",), {(2 * i,): Fraction(1, _math.factorial(2 * i))}
        ) * piece
        piece = d(piece)
        i += 1
    assert (true_even.diff("t", 2) - d(true_even)).is_zero()
    assert true_even != even_flow


def test_tree_wave_symbol_and_series_agree_at_zero():
    """The splitting-symbol heat flow and the wave series both start at g0."""
    tree = Tree(3, [(1, 2), (2, 3)])
    hw = (1.0, 1.0, 1.0)
    g0 = TrigData(hw, {(1, 1, 1): (1.0, 0.0)})
    g1 = TrigData(hw, {})
    pts = [(0.15, -0.3, 0.4)]
    a = solve_tree_heat_ivp(tree, g0, 0.0, pts)
    b = solve_tree_wave_ivp(tree, g0, g1, 0.0, pts)
    assert a.values[0] == pytest.approx(b.values[0], abs=1e-12)
    assert b.values[0] == pytest.approx(g0.value_at(pts[0]), abs=1e-12)


# -- lazy carriers and the cancellation guard ----------------------------------------------------

def _chain3_data():
    tree = Tree(3, [(1, 2), (2, 3)])
    hw = (1.0, 1.0, 1.0)
    g0 = TrigData(hw, {(1, 1, 1): (0.8, 0.1)})
    g1 = TrigData(hw, {(1, 1, 1): (0.3, 0.0), (0, 1, 0): (0.2, 0.0)})
    return tree, g0, g1


def test_tree_wave_series_builds_carriers_lazily():
    from flagpde import solve_tree_wave_series

    tree, g0, g1 = _chain3_data()
    pts = [(0.1, 0.2, 0.3), (-0.4, 0.45, -0.1)]
    sol = solve_tree_wave_series(tree, g0, g1, 0.05, pts)
    assert all(len(chain) <= 10 for chain in sol.carriers.values())
    for pt, got in zip(pts, sol.values):
        assert got == tree_wave_series_eager(tree, g0, g1, 0.05, pt, max_terms=30)
    before = len(sol.carriers[(1, 1, 1)])
    later = sol.at(0.2, pts[0])
    assert len(sol.carriers[(1, 1, 1)]) > before
    assert later == tree_wave_series_eager(tree, g0, g1, 0.2, pts[0], max_terms=30)


def test_tree_wave_traces_take_one_zero_time_pass_per_point(monkeypatch):
    """The position and velocity traces share one t = 0 series per mode and
    point, and their residual is the one of summing each trace on its own."""
    tree, g0, g1 = _chain3_data()
    pts = [(0.1, 0.2, 0.3), (-0.4, 0.45, -0.1)]
    calls = []
    mode_series = ivp.TreeWaveSeriesSolution.mode_series

    def counted(self, k, t, point):
        calls.append((k, t, tuple(point)))
        return mode_series(self, k, t, point)

    monkeypatch.setattr(ivp.TreeWaveSeriesSolution, "mode_series", counted)
    sol = solve_tree_wave_ivp(tree, g0, g1, 0.05, pts)
    at_zero = [c for c in calls if c[1] == 0.0]
    assert len(at_zero) == len(set(at_zero)) == len(pts) * len(sol.carriers) == 4
    monkeypatch.undo()
    residuals = []
    for pt in pts:
        residuals.append(abs(sol.at(0.0, pt) - g0.value_at(pt)))
        vel = 0.0
        for k in sorted(g1.modes):
            b1, c1 = g1.modes[k]
            even, _ = sol.mode_series(k, 0.0, pt)
            vel += b1 * even.real + c1 * even.imag
        residuals.append(abs(vel - g1.value_at(pt)))
    assert sol.trace_residual == max(residuals)


def test_tree_wave_series_carrier_cap_raises(monkeypatch):
    from flagpde import solve_tree_wave_series

    monkeypatch.setattr(ivp, "CARRIER_LIMIT", 3)
    tree, g0, g1 = _chain3_data()
    with pytest.raises(SeriesTerminationError):
        solve_tree_wave_series(tree, g0, g1, 0.05, [(0.1, 0.2, 0.3)])


def test_tree_wave_series_cancellation_raises():
    """One node, k = 4, t = 2: the terms pass 1e20 and cancel to cos(0.8 pi);
    the float sum is thousands off, so the solver must refuse."""
    from flagpde import solve_tree_wave_series

    g0 = TrigData((1.0,), {(4,): (1.0, 0.0)})
    with pytest.raises(VerificationError, match="cancellation"):
        solve_tree_wave_series(Tree(1, []), g0, TrigData((1.0,), {}), 2.0, [(0.1,)])


@st.composite
def _small_trees(draw):
    """Trees of one to four nodes, each node below the root hung on an earlier one."""
    n = draw(st.integers(1, 4))
    return Tree(n, [(draw(st.integers(1, j - 1)), j) for j in range(2, n + 1)])


# zeros make terms vanish: w = 0 drops P' and P, a zero part keeps a sign
_CARRIER_PART = st.sampled_from([0.0, -0.0]) | st.floats(-4, 4, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(_small_trees(), st.data())
def test_flat_carrier_step_matches_the_nested_oracle(tree, data):
    """The flat tree-operator step adds the same terms in the same order as
    the closure version: every coefficient is bit for bit the same, over two
    steps from carriers with exponents 0 to 2 (so P'', P' and P all occur)."""
    n = tree.nodes
    omegas = data.draw(st.lists(st.sampled_from([0.0]) | st.floats(-8, 8, allow_nan=False),
                                min_size=n, max_size=n))
    carrier = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n),
                                        st.builds(complex, _CARRIER_PART, _CARRIER_PART), max_size=6))
    for _ in range(2):
        got = ivp._carrier_apply(tree, omegas, carrier)
        assert repr(list(got.items())) == repr(list(carrier_apply_nested(tree, omegas, carrier).items()))
        carrier = got
