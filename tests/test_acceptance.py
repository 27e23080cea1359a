"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines as
they print).  Every symbolic assertion is exact rational or Gaussian
rational arithmetic; numeric assertions carry their stated tolerances.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from flagpde import (
    Compose,
    Derivative,
    FlagEquationSpec,
    GaussianRational,
    IMAG,
    MultiplyBy,
    OdeProblem,
    Polynomial,
    Scale,
    Sum,
    Tree,
    TrigData,
    anisymmetric_basis,
    check_splitting,
    compute_splitting,
    constant,
    constant_coefficient_basis,
    dissipation_polynomial,
    dissipative_wave_basis,
    flag_basis,
    g2_module_basis,
    harmonic_basis,
    harmonic_module_basis,
    klein_gordon_solutions,
    ode_derivatives_at_zero,
    sl_module_basis,
    solve_constant_ode,
    solve_flag_ivp,
    solve_tree_heat_ivp,
    solve_tree_wave_ivp,
    variable,
)
from flagpde.lie import commutation_checks, sl_invariant
from flagpde.linalg import (
    bidegree_monomials,
    kernel_on_slice,
    monomials_up_to_degree,
    polys_in_span,
    polys_rank,
)
from flagpde.trees import all_trees

from oracles import sigma_word_value, zeta_closed_form


def _report(number, name, started):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.monotonic() - started:.1f}s)")


def test_criterion_1_exact_annihilation():
    started = time.monotonic()
    x1, x2 = variable("x1"), variable("x2")
    families = [
        constant_coefficient_basis((2, 2), 6),
        constant_coefficient_basis((3, 2), 5),
        constant_coefficient_basis((2, 2, 2), 5),
        constant_coefficient_basis((2, 2, 2, 2), 3),
        harmonic_basis(2, 6),
        harmonic_basis(3, 5),
        harmonic_basis(4, 4),
        flag_basis(FlagEquationSpec((2, 2), (x1,)), 5),
        flag_basis(FlagEquationSpec((2, 2, 2), (x1, x2)), 4),
        flag_basis(FlagEquationSpec((3, 2), (x1**2,)), 4),
        dissipative_wave_basis(1, 6),
        dissipative_wave_basis(2, 4),
        dissipative_wave_basis(3, 3),
        dissipative_wave_basis(4, 2),
        sl_module_basis(2, 1, 1),
        sl_module_basis(2, 2, 1),
        sl_module_basis(2, 2, 2),
        sl_module_basis(3, 1, 1),
        g2_module_basis(0),
        g2_module_basis(1),
        g2_module_basis(2),
        harmonic_module_basis(3, 4),
        harmonic_module_basis(4, 3),
    ]
    for lam in (Fraction(1), Fraction(2), Fraction(-2), Fraction(-3), Fraction(-5)):
        for eps in (1, -1):
            families.append(anisymmetric_basis(1, lam, eps, 4))
            families.append(anisymmetric_basis(2, lam, eps, 3))
    total = 0
    for fam in families:
        fam.verify_annihilation()
        total += len(fam)
    assert total > 0
    # trig ring: the Klein-Gordon outputs, all exactly annihilated
    for a in (Fraction(1), Fraction(1, 2)):
        for monomial in ((0, 0, 0), (0, 0, 1), (0, 2, 0), (1, 1, 1)):
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
            for sol in klein_gordon_solutions(a, monomial):
                assert kg.apply_trig(sol).is_zero()
    _report(1, "exact annihilation", started)


from oracles import assert_family_spans_kernel as _span_equals_kernel


def test_criterion_2_kernel_completeness():
    started = time.monotonic()
    x1, x2 = variable("x1"), variable("x2")
    _span_equals_kernel(constant_coefficient_basis((2, 2), 5), ("x1", "x2"), 5)
    _span_equals_kernel(constant_coefficient_basis((2, 2, 2), 5), ("x1", "x2", "x3"), 5)
    _span_equals_kernel(constant_coefficient_basis((3, 2), 6), ("x1", "x2"), 5)
    _span_equals_kernel(harmonic_basis(2, 5), ("x1", "x2"), 5)
    _span_equals_kernel(harmonic_basis(3, 5), ("x1", "x2", "x3"), 5)
    _span_equals_kernel(flag_basis(FlagEquationSpec((2, 2), (x1,)), 6), ("x1", "x2"), 5)
    _span_equals_kernel(
        flag_basis(FlagEquationSpec((2, 2, 2), (x1, x2)), 5), ("x1", "x2", "x3"), 4
    )
    _span_equals_kernel(dissipative_wave_basis(1, 5), ("t", "x1"), 5)
    _span_equals_kernel(dissipative_wave_basis(2, 5), ("t", "x1", "x2"), 5)
    for lam in (Fraction(1), Fraction(-2), Fraction(-3)):
        _span_equals_kernel(anisymmetric_basis(1, lam, 1, 6), ("t", "x1"), 5)
    _span_equals_kernel(anisymmetric_basis(2, Fraction(-3), 1, 5), ("t", "x1", "x2"), 4)
    # bidegree slices for the doubled-variable modules
    for n, l1, l2 in ((2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1)):
        fam = sl_module_basis(n, l1, l2)
        x_vars = tuple(f"x{i}" for i in range(1, n + 1))
        y_vars = tuple(f"y{i}" for i in range(1, n + 1))
        kernel = kernel_on_slice(fam.annihilator, bidegree_monomials(x_vars, y_vars, l1, l2))
        sols = fam.solutions()
        assert polys_rank(sols) == len(sols) == len(kernel)
        assert polys_in_span(sols, kernel) and polys_in_span(kernel, sols)
    # graded slices of the seven-variable module
    from flagpde.lie import g2_laplacian
    from flagpde.linalg import monomials_of_degree

    for k in (1, 2):
        fam = g2_module_basis(k)
        kernel = kernel_on_slice(
            g2_laplacian(1), monomials_of_degree(tuple(f"x{i}" for i in range(1, 8)), k)
        )
        sols = fam.solutions()
        assert polys_rank(sols) == len(sols) == len(kernel)
        assert polys_in_span(sols, kernel)
    _report(2, "kernel-oracle completeness", started)


def test_criterion_3_golden_formulas():
    started = time.monotonic()
    t = variable("t")
    # damped-inverse iterates, small orders
    for a in (Fraction(1), Fraction(1, 2), Fraction(3, 2)):
        assert dissipation_polynomial(a, 0) == constant(1).with_variables(("t",))
        assert dissipation_polynomial(a, 1) == t / a
        assert dissipation_polynomial(a, 2) == t**2 / (2 * a**2) - t / a**3
    # chain-tree splitting exponents
    D1, D2, D3 = variable("D1"), variable("D2"), variable("D3")
    x1, x2 = variable("x1"), variable("x2")
    golden1 = (
        t * D1**2 + t**2 * D1 * D2**2
        + t**3 / 3 * (D2**4 + 2 * D1 * D2 * D3**2)
        + t**4 / 6 * (3 * D2**3 * D3**2 + D1 * D3**4)
        + t**5 / 3 * D2**2 * D3**4 + t**6 / 9 * D2 * D3**6 + t**7 / 63 * D3**8
    )
    golden2 = x1 * (t * D2**2 + t**2 * D2 * D3**2 + t**3 / 3 * D3**4)
    golden3 = t * x2 * D3**2
    s = compute_splitting(Tree(3, [(1, 2), (2, 3)]))
    assert s.exponents[0] == golden1
    assert s.exponents[1] == golden2
    assert s.exponents[2] == golden3
    # evaluated symbols as exact polynomials in the wave numbers and pi
    P = variable("P")
    K1, K2, K3 = variable("K1"), variable("K2"), variable("K3")
    sym1 = -4 * P**2 * t * (
        K1**2 - 4 * P**2 * t**2 / 3 * (K2**4 + 2 * K1 * K2 * K3**2)
        + 16 * P**4 * t**4 / 3 * K2**2 * K3**4 - Fraction(64, 63) * P**6 * t**6 * K3**8
    ) + IMAG * (-8) * P**3 * t**2 * (
        K1 * K2**2 - 2 * P**2 * t**2 / 3 * (3 * K2**3 * K3**2 + K1 * K3**4)
        + Fraction(16, 9) * P**4 * t**4 * K2 * K3**6
    )
    sym2 = (
        -4 * P**2 * t * x1 * (K2**2 - 4 * P**2 * t**2 / 3 * K3**4)
        - IMAG * 8 * P**3 * K2 * K3**2 * t**2 * x1
    )
    sym3 = -4 * P**2 * K3**2 * t * x2
    for xi, want in zip(s.exponents, (sym1, sym2, sym3)):
        got = xi
        for j in (1, 2, 3):
            got = got.substitute(f"D{j}", 2 * P * variable(f"K{j}") * IMAG)
        assert got == want
    # the three-block extension element against the independent word oracle
    spec = FlagEquationSpec((2, 2, 2), (x1, x2))
    fam = flag_basis(spec, 4)
    produced = next(e.solution for e in fam.elements if e.index["ell"] == (0, 2, 2))
    x3 = variable("x3")
    frozen = (
        x2**2 * x3**2 - x1**3 * x3**2 / 3 - x1**2 * x2**3 + x1**5 * x2 / 3
    )
    assert produced == frozen
    assert produced == sigma_word_value((2, 2, 2), (1, 1), (0, 2, 2))
    # real/imaginary damped profiles at imaginary frequency
    for a in (Fraction(1), Fraction(1, 2)):
        for i in range(5):
            xi = dissipation_polynomial(GaussianRational(0, 2 * a), i)
            re_want, im_want = zeta_closed_form(i, a)
            assert xi.real_part() == re_want and xi.imag_part() == im_want
    _report(3, "golden closed forms", started)


def test_criterion_4_descent_recursion():
    started = time.monotonic()
    rng = random.Random(2024)
    samples = [Fraction(1), Fraction(-2, 3)]
    while len(samples) < 5:
        g = GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        if g:
            samples.append(g)
    for a in samples:
        prev = dissipation_polynomial(a, 0)
        for i in range(1, 11):
            cur = dissipation_polynomial(a, i)
            assert a * cur.diff("t") + cur.diff("t", 2) == prev
            prev = cur
    _report(4, "descent recursion", started)


def test_criterion_5_splitting_identity():
    started = time.monotonic()
    count = 0
    for n in range(1, 5):
        for tree in all_trees(n):
            report = check_splitting(tree, 3, 3)
            count += report.monomials_checked
    assert count > 0
    _report(5, "operator splitting identity", started)


def test_criterion_6_ivp_reproduction():
    started = time.monotonic()
    # d'Alembert on a 5x5 grid
    d2 = variable("D2")
    g0 = TrigData((1.0,), {(1,): (1.0, 0.0)})
    g1 = TrigData((1.0,), {})
    pts = [(0.25 * i, 0.25 * j) for i in range(5) for j in range(5)]
    sol = solve_flag_ivp([Polynomial.zero(("D2",)), d2 * d2], [g0, g1], pts)
    for pt, got in zip(pts, sol.values):
        want = math.cos(2 * math.pi * pt[0]) * math.cos(2 * math.pi * pt[1])
        assert abs(got - want) <= 1e-9
    # tree wave: both traces; tree heat flow: the chain-tree closed form, one mode
    tree = Tree(3, [(1, 2), (2, 3)])
    hw = (1.0, 1.0, 1.0)
    tg0 = TrigData(hw, {(1, 1, 1): (1.0, 0.0)})
    tg1 = TrigData(hw, {(1, 0, 0): (0.5, 0.0)})
    tpts = [(0.1, 0.2, 0.3), (-0.25, 0.4, 0.15)]
    tsol = solve_tree_wave_ivp(tree, tg0, tg1, 0.05, tpts)
    assert tsol.trace_residual <= 1e-9
    hsol = solve_tree_heat_ivp(tree, tg0, 0.05, tpts)
    assert hsol.trace_residual <= 1e-9
    from test_ivp import _chain3_heat_mode_closed_form

    for tval in (0.02, 0.05):
        for pt in tpts:
            got = hsol.mode_wave((1, 1, 1), tval, pt).real
            want = _chain3_heat_mode_closed_form((1, 1, 1), hw, tval, pt)
            assert abs(got - want) <= 1e-9
    _report(6, "IVP reproduction", started)


def test_criterion_7_ode_remark():
    started = time.monotonic()
    for t in [0.25 * i for i in range(9)]:
        assert abs(solve_constant_ode(OdeProblem((1,), (1,)), t) - math.exp(t)) <= 1e-10
        assert abs(solve_constant_ode(OdeProblem((0, -1), (1, 0)), t) - math.cos(t)) <= 1e-10
        assert abs(solve_constant_ode(OdeProblem((0, -1), (0, 1)), t) - math.sin(t)) <= 1e-10
    from scipy.integrate import solve_ivp as scipy_solve

    rng = random.Random(5)
    for _ in range(3):
        b = [rng.randint(-2, 2) / 2 for _ in range(3)]
        c = [rng.randint(-3, 3) for _ in range(3)]
        problem = OdeProblem(tuple(Fraction(v) for v in b), tuple(Fraction(v) for v in c))
        assert tuple(ode_derivatives_at_zero(problem)) == problem.initial

        def rhs(_, y):
            return [y[1], y[2], b[0] * y[2] + b[1] * y[1] + b[2] * y[0]]

        ts = [0.5, 1.0, 1.5, 2.0]
        ref = scipy_solve(rhs, (0.0, 2.0), [float(v) for v in c], method="DOP853",
                          t_eval=ts, rtol=1e-12, atol=1e-13)
        for t, want in zip(ts, ref.y[0]):
            assert abs(solve_constant_ode(problem, t) - want) <= 1e-10 * max(1.0, abs(want)) + 1e-10
    _report(7, "ODE fundamental solutions", started)


def test_criterion_8_lie_structure():
    started = time.monotonic()
    report = commutation_checks(max_degree=4)
    failures = [k for k, v in report.items() if v is False]
    assert not failures, failures
    # decomposition rank checks on two bidegree slices
    for l1, l2 in ((1, 1), (2, 1)):
        fam = sl_module_basis(2, l1, l2)
        zeta = sl_invariant(2)
        lower = bidegree_monomials(("x1", "x2"), ("y1", "y2"), l1 - 1, l2 - 1)
        combined = [e.solution for e in fam.elements] + [zeta * m for m in lower]
        ambient = bidegree_monomials(("x1", "x2"), ("y1", "y2"), l1, l2)
        assert polys_rank(combined) == len(combined) == len(ambient)
    _report(8, "Lie structure", started)


def test_criterion_9_determinism(tmp_path):
    started = time.monotonic()
    from flagpde.cli import main

    out = tmp_path / "det.json"
    for args in (
        ["basis", "harmonic", "--n", "3", "--cap", "3", "--out", str(out)],
        ["lie", "g2", "--k", "1", "--out", str(out)],
        ["solve", "klein-gordon", "--a", "1/2", "--monomial", "0,2,0", "--out", str(out)],
    ):
        assert main(list(args)) == 0
        first = out.read_bytes()
        assert main(list(args)) == 0
        assert out.read_bytes() == first
    _report(9, "determinism", started)
