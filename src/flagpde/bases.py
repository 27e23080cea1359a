"""Polynomial solution families for triangular (flag) equations.

Every generator in this module produces a BasisFamily: an indexed list of
exact polynomial solutions together with the operator they are solutions
of.  Annihilation is asserted at generation time, through one
``operators.form_applicator`` for all elements, so a returned family is
already verified; linear independence and desk-scale completeness checks
live in ``verify_independence`` and the test suite's kernel oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import multinomial, tuples_with_sum, tuples_with_sum_at_most
from .linalg import polys_rank
from .operators import (
    Compose,
    Derivative,
    Integrate,
    LinearOperator,
    MultiplyBy,
    NestedRightInverse,
    OperatorHypothesisError,
    Scale,
    SeriesConfig,
    Sum,
    VerificationError,
    _chain_order,
    form_applicator,
    operator_variables,
    operators_agree_on_sample,
    solve_by_series,
)
from .poly import Polynomial, _int_form, _IntForm, _sum_forms, variable

__all__ = [
    "BasisElement",
    "BasisFamily",
    "ChainError",
    "FlagEquationSpec",
    "constant_coefficient_basis",
    "flag_basis",
    "harmonic_basis",
    "harmonic_element",
    "power_perturbation_solve",
    "riemannian_to_tx",
    "riemannian_wave_solution",
    "twisted_flag_solve",
]


class ChainError(ValueError):
    """The supplied sigma-chain does not satisfy its defining recursion."""


class BasisElement(NamedTuple):
    index: dict
    solution: Polynomial


@dataclass
class BasisFamily:
    elements: list[BasisElement]
    annihilator: LinearOperator
    truncation: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.elements)

    def solutions(self):
        return [e.solution for e in self.elements]

    def verify_annihilation(self) -> bool:
        apply = form_applicator(self.annihilator, self.solutions())
        for e in self.elements:
            if not apply.annihilates(e.solution):
                raise VerificationError(
                    f"family element {e.index} is not annihilated exactly"
                )
        return True

    def verify_independence(self) -> bool:
        sols = self.solutions()
        if polys_rank(sols) != len(sols):
            raise VerificationError("family elements are linearly dependent")
        return True

    def to_json(self):
        from .operators import op_to_json

        return {
            "elements": [
                {"indexMeta": {k: _json_scalar(v) for k, v in e.index.items()},
                 "solution": e.solution.to_json_terms()}
                for e in self.elements
            ],
            "annihilator": op_to_json(self.annihilator),
            "truncation": self.truncation,
            "verified": True,
        }


def _json_scalar(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return list(v)
    return v


def _checked(elements, annihilator, truncation) -> BasisFamily:
    fam = BasisFamily(elements, annihilator, truncation)
    fam.verify_annihilation()
    return fam


def _check_cap(cap: int):
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")


def _default_vars(n: int):
    return tuple(f"x{i}" for i in range(1, n + 1))


# -- constant-coefficient equations -------------------------------------------

def constant_coefficient_basis(orders, cap: int) -> BasisFamily:
    """Solution basis of sum_i d^(m_i)/dx_i^(m_i) u = 0, truncated by index cap.

    Elements are indexed by (l1 in 0..m1-1, l2.., ln) with l2 + ... + ln <= cap.
    """
    orders = tuple(int(m) for m in orders)
    n = len(orders)
    if n < 2:
        raise ValueError("need at least two variables")
    if any(m < 1 for m in orders):
        raise ValueError("orders must be positive")
    _check_cap(cap)
    vars_ = _default_vars(n)
    annihilator = Sum(Derivative(v, m) for v, m in zip(vars_, orders))
    elements = []
    for l1 in range(orders[0]):
        for rest in tuples_with_sum_at_most(n - 1, cap):
            sol = _constant_element(orders, (l1,) + rest, vars_)
            elements.append(BasisElement({"ell": (l1,) + rest}, sol))
    return _checked(elements, annihilator, {"cap": cap, "orders": list(orders)})


def _constant_element(orders, ell, vars_) -> Polynomial:
    n = len(orders)
    m1 = orders[0]
    ranges = [range(ell[i] // orders[i] + 1) for i in range(1, n)]
    terms = {}
    for ks in itertools.product(*ranges):
        big_k = sum(ks)
        # (-1)^K multinomial(ks) l1!/(l1 + K m1)! prod_i falling(l_i, k_i m_i)
        num = (-1) ** big_k * multinomial(ks)
        exp = [ell[0] + big_k * m1]
        for i, k in enumerate(ks, start=1):
            num *= math.perm(ell[i], k * orders[i])
            exp.append(ell[i] - k * orders[i])
        terms[tuple(exp)] = _exact_ratio(num, math.perm(ell[0] + big_k * m1, big_k * m1))
    return Polynomial(vars_, terms)


def _exact_ratio(num: int, den: int):
    """num/den as an int when den divides num, else as one Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


# -- harmonic polynomials ------------------------------------------------------

def harmonic_element(n: int, eps: int, ells, vars_=None) -> Polynomial:
    """One solution of the Laplace equation, indexed by eps in {0,1} and l2..ln.

    Alternating even-derivative reduction of the seed monomial x2^l2...xn^ln,
    with the x1 powers supplied by iterated double integration.
    """
    if vars_ is None:
        vars_ = _default_vars(n)
    ells = tuple(ells)
    terms = {}
    ranges = [range(l // 2 + 1) for l in ells]
    for rs in itertools.product(*ranges):
        big_r = sum(rs)
        num = (-1) ** big_r * multinomial(rs)
        for l, r in zip(ells, rs):
            num *= math.comb(l, 2 * r)
        den = (1 + 2 * eps * big_r) * multinomial([2 * r for r in rs])
        exp = (eps + 2 * big_r,) + tuple(l - 2 * r for l, r in zip(ells, rs))
        terms[exp] = _exact_ratio(num, den)
    return Polynomial(vars_, terms)


def harmonic_basis(n: int, cap: int) -> BasisFamily:
    """Basis of the harmonic polynomials in n variables up to total degree cap."""
    if n < 2:
        raise ValueError("need at least two variables")
    _check_cap(cap)
    vars_ = _default_vars(n)
    annihilator = Sum(Derivative(v, 2) for v in vars_)
    elements = []
    for eps in (0, 1):
        for ells in tuples_with_sum_at_most(n - 1, cap - eps):
            sol = harmonic_element(n, eps, ells, vars_)
            elements.append(BasisElement({"eps": eps, "ell": ells}, sol))
    return _checked(elements, annihilator, {"cap": cap, "n": n})


# -- general flag equations ------------------------------------------------------

@dataclass
class FlagEquationSpec:
    """Orders m1..mn and coefficients f1..f(n-1) of a triangular equation.

    The equation is d^(m1)/dx1 + f1 d^(m2)/dx2 + ... with f_i a polynomial in
    x1..xi only (checked on construction).
    """

    orders: tuple
    coefficients: tuple
    variables: tuple = ()

    def __post_init__(self):
        self.orders = tuple(int(m) for m in self.orders)
        if any(m < 1 for m in self.orders):
            # D^0 never kills a seed, so the family would never end
            raise ValueError(f"orders must be positive, got {self.orders}")
        n = len(self.orders)
        if not self.variables:
            self.variables = _default_vars(n)
        coeffs = []
        for c in self.coefficients:
            if isinstance(c, (int, Fraction)):
                c = Polynomial.const(c)
            coeffs.append(c)
        self.coefficients = tuple(coeffs)
        if len(self.coefficients) != n - 1:
            raise ValueError("need exactly n-1 coefficients")
        for i, c in enumerate(self.coefficients, start=1):
            allowed = set(self.variables[:i])
            extra = c.support_vars() - allowed
            if extra:
                from .operators import NotAFlagSystemError

                raise NotAFlagSystemError(
                    f"not a flag system: coefficient {i} depends on {sorted(extra)}"
                )

    def operator(self) -> LinearOperator:
        parts = [Derivative(self.variables[0], self.orders[0])]
        for i, c in enumerate(self.coefficients, start=1):
            parts.append(Compose(MultiplyBy(c), Derivative(self.variables[i], self.orders[i])))
        return Sum(parts)

    def nested_inverse(self, upto: int) -> NestedRightInverse:
        entries = [(Polynomial.const(1), Derivative(self.variables[0], self.orders[0]))]
        for i in range(1, upto):
            entries.append(
                (self.coefficients[i - 1], Derivative(self.variables[i], self.orders[i]))
            )
        return NestedRightInverse(entries)


def _sigma_step(inv: NestedRightInverse, vs: tuple, f: _IntForm, pos: int, m: int,
                chain: list, ell: int) -> _IntForm:
    """Extend a solution h of the earlier blocks by the seed x_pos^ell.

    Returns sum_i (-inv f)^i(h) * D^i(seed), where `inv` is the nested right
    inverse of the earlier blocks, f the coefficient and D = d^m/dx_pos^m
    of the new block, all as integer forms over the build's variable order
    vs.  D^i(seed) is
    falling(ell, i*m) x_pos^(ell - i*m), so each product is an exponent
    shift.  chain[i] holds (-inv f)^i(h), chain[0] = h; each missing power
    is one step from the previous one and is appended, so seeds extending
    the same h share it.
    """
    total = chain[0].shifted(pos, ell, 1)
    i = 1
    while True:
        k = math.perm(ell, i * m)
        if not k:
            return total
        if i == len(chain):
            chain.append(-inv.apply_form(f * chain[-1], vs))
        total = total + chain[i].shifted(pos, ell - i * m, k)
        i += 1


def flag_basis(spec: FlagEquationSpec, cap: int) -> BasisFamily:
    """Solution basis of a triangular equation, built stage by stage.

    Elements carry index (l1 in 0..m1-1, l2.., ln) with l2 + ... + ln <= cap.
    The partial solution after stage k depends only on the prefix
    (l1, l2..l(k+1)), so each prefix is solved once, together with the
    powers (-inv f)^i of it that the next stage needs, and shared by every
    element that starts with it; the prefixes live in a dictionary local to
    this call.  The whole build runs on integer forms over
    ``spec.variables``, and each element is converted to a Polynomial once.
    """
    _check_cap(cap)
    n = len(spec.orders)
    vs = spec.variables
    annihilator = spec.operator()
    laurent = frozenset().union(*(c.laurent for c in spec.coefficients))
    inverses = [spec.nested_inverse(stage) for stage in range(1, n)]
    coeffs = [_int_form(c, vs) for c in spec.coefficients]
    chains: dict[tuple, list] = {}
    elements = []
    for l1 in range(spec.orders[0]):
        root = [_IntForm({(l1,) + (0,) * (n - 1): 1}, {}, 1)]
        for rest in tuples_with_sum_at_most(n - 1, cap):
            ell = (l1,) + rest
            chain = root
            for stage in range(1, n):
                prefix = ell[: stage + 1]
                nxt = chains.get(prefix)
                if nxt is None:
                    nxt = [_sigma_step(inverses[stage - 1], vs, coeffs[stage - 1],
                                       stage, spec.orders[stage], chain, ell[stage])]
                    if stage < n - 1:
                        chains[prefix] = nxt
                chain = nxt
            elements.append(BasisElement({"ell": ell}, chain[0].to_poly(vs, laurent)))
    return _checked(elements, annihilator, {"cap": cap, "orders": list(spec.orders)})


# -- wave equation in a Riemannian background ------------------------------------

def riemannian_wave_solution(g, n: int, f0: Polynomial, f1: Polynomial,
                             g0: Polynomial, g1: Polynomial) -> Polynomial:
    """Series solution in light-cone variables z0, z1 of the curved wave equation.

    `g` maps index pairs (i, j), 2 <= i, j <= n, to one-variable polynomial
    coefficients in z1.  f0 lives in z0, f1 in z1, g0 and g1 in the spatial
    variables x2..xn.  The result solves
    2 d/dz0 d/dz1 u + sum g_ij d/dxi d/dxj u = 0 exactly.
    """
    for (i, j), coeff in g.items():
        if not (2 <= i <= n and 2 <= j <= n):
            raise ValueError(f"coefficient index {(i, j)} out of range")
        bad = coeff.support_vars() - {"z1"}
        if bad:
            raise ValueError("coefficient not flag-compatible")
    for name, p, allowed in (
        ("f0", f0, {"z0"}),
        ("f1", f1, {"z1"}),
    ):
        if p.support_vars() - allowed:
            raise ValueError(f"{name} may only involve {sorted(allowed)}")
    spatial = {f"x{i}" for i in range(2, n + 1)}
    for name, p in (("g0", g0), ("g1", g1)):
        if p.support_vars() - spatial:
            raise ValueError(f"{name} may only involve the spatial variables")

    t1 = Compose(Scale(Fraction(2)), Derivative("z0"), Derivative("z1"))
    t1_inv = Compose(Scale(Fraction(1, 2)), Integrate("z0"), Integrate("z1"))
    t2 = Sum(
        Compose(MultiplyBy(coeff), Derivative(f"x{i}"), Derivative(f"x{j}"))
        for (i, j), coeff in sorted(g.items())
    )
    cfg = SeriesConfig(t1, t1_inv, t2)
    return solve_by_series(cfg, f0, g0) + solve_by_series(cfg, f1, g1)


def riemannian_to_tx(p: Polynomial) -> Polynomial:
    """Rewrite a light-cone solution via z0 = x1 + t, z1 = x1 - t."""
    t, x1 = variable("t"), variable("x1")
    return p.substitute("z0", x1 + t).substitute("z1", x1 - t)


# -- commuting power perturbations -----------------------------------------------

def power_perturbation_solve(t0, t0_inverse, perturbations, m: int,
                             h: Polynomial, g: Polynomial) -> Polynomial:
    """Kernel element of T0^m - sum_p T0^(m-p) T_p from seeds h, g.

    T0 must commute with each perturbation and the perturbations with each
    other (checked on a random sample); T0^m must annihilate h.  The output
    is the multinomial series over tuples (i_1..i_m) weighting
    (T0inv)^(sum p*i_p)(h) with prod T_p^(i_p)(g), verified exactly.
    """
    perturbations = list(perturbations)
    if len(perturbations) != m:
        raise ValueError("need exactly m perturbation operators")
    vars_ = operator_variables(t0) | {v for op in perturbations for v in operator_variables(op)}
    vars_ |= set(h.vars) | set(g.vars)
    for idx, op in enumerate(perturbations):
        if not operators_agree_on_sample(Compose(t0, op), Compose(op, t0), vars_):
            raise OperatorHypothesisError(
                f"power-perturbation hypotheses violated: T0 does not commute with T{idx + 1}"
            )
    for a in range(m):
        for b in range(a + 1, m):
            lhs = Compose(perturbations[a], perturbations[b])
            rhs = Compose(perturbations[b], perturbations[a])
            if not operators_agree_on_sample(lhs, rhs, vars_):
                raise OperatorHypothesisError(
                    f"power-perturbation hypotheses violated: T{a + 1} and T{b + 1} do not commute"
                )
    vs, laurent = _chain_order([h, g], [t0_inverse, t0, *perturbations])
    hk = _int_form(h, vs)
    for _ in range(m):
        hk = t0.apply_form(hk, vs)
    if hk:
        from .operators import KernelPreconditionError

        raise KernelPreconditionError("kernel precondition violated")

    max_level = 2 + g.total_degree() * max(1, m)
    g_parts: dict[tuple, _IntForm] = {(0,) * m: _int_form(g, vs)}

    def g_part(tup):
        if tup in g_parts:
            return g_parts[tup]
        for r in range(m):
            if tup[r]:
                prev = tup[:r] + (tup[r] - 1,) + tup[r + 1 :]
                out = perturbations[r].apply_form(g_part(prev), vs)
                break
        g_parts[tup] = out
        return out

    h_powers = [_int_form(h, vs)]

    def h_part(w):
        while len(h_powers) <= w:
            h_powers.append(t0_inverse.apply_form(h_powers[-1], vs))
        return h_powers[w]

    pieces = []
    level = 0
    while level <= max_level:
        alive = False
        for tup in tuples_with_sum(m, level):
            gp = g_part(tup)
            if not gp:
                continue
            alive = True
            weight = sum((p + 1) * i for p, i in enumerate(tup))
            pieces.append((h_part(weight) * gp).scaled(multinomial(tup)))
        if not alive and level > 0:
            break
        level += 1
    else:
        raise VerificationError("power-perturbation series did not terminate")
    total = _sum_forms(pieces).to_poly(vs, laurent)

    # residual of T0^m - sum_p T0^(m-p) T_p
    residual = Sum((
        Compose([t0] * m),
        *(Compose(Scale(-1), *[t0] * (m - p), op) for p, op in enumerate(perturbations, start=1)),
    ))
    if not form_applicator(residual, [total]).annihilates(total):
        raise VerificationError("power-perturbation output not annihilated exactly")
    return total


# -- twisted two-block equations ---------------------------------------------------

def twisted_flag_solve(d1, h: Polynomial, d2, f: Polynomial,
                       sigma_chain, psi: Polynomial) -> Polynomial:
    """Solution sum_s sigma_s * d2^s(psi) of (d1 - h*d2) u = 0.

    sigma_chain lists sigma_1..sigma_i; together with sigma_0 = f it must
    satisfy d1(sigma_1) = h*f and d1(sigma_s) = h*sigma_(s-1), and d2 must
    kill psi after i+1 applications.
    """
    chain = [f] + list(sigma_chain)
    if not d1(f).is_zero():
        raise ChainError("sigma-chain inconsistent with the defining recursion: d1(f) != 0")
    for s in range(1, len(chain)):
        if d1(chain[s]) != h * chain[s - 1]:
            raise ChainError(
                f"sigma-chain inconsistent with the defining recursion at step {s}"
            )
    depth = len(sigma_chain)
    probe = psi
    for _ in range(depth + 1):
        probe = d2(probe)
    if not probe.is_zero():
        raise ChainError("perturbation does not terminate on the seed within the chain length")

    total = Polynomial.zero()
    dpsi = psi
    for s in range(depth + 1):
        total = total + chain[s] * dpsi
        dpsi = d2(dpsi)
    residual = d1(total) - h * d2(total)
    if not residual.is_zero():
        raise VerificationError("twisted-flag output not annihilated exactly")
    return total
