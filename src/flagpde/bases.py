"""Polynomial solution families for triangular (flag) equations.

Every generator in this module produces a BasisFamily: an indexed list of
exact polynomial solutions together with the operator they are solutions
of.  Annihilation is proved at generation time, so a returned family is
already verified: the closed-form families below by the series lemma
(``_SeriesLemma``), whose certificate checks the tables and profiles the
elements are folded from once per family; ``flag_basis`` and the
negative odd lambda anisymmetric family end to end, through one
``operators.form_map`` over the elements' variables, then the
annihilator's, for all elements (``BasisFamily.verify_annihilation``).
Linear independence and desk-scale completeness checks live in
``verify_independence`` and the test suite's kernel oracles.

Every constant-coefficient family (constant, harmonic, damped-wave,
anisymmetric, sl and g2) is built from one series u = sum_R p_R L^R(x^l)
of a monomial seed x^l, ``_closed_form_series``.  L = sum_j c_j d^(beta_j)
acts on separate variable blocks, so L^R(x^l) = sum_{|r|=R} R!/r!
prod_j c_j^(r_j) prod_v perm(l_v, r_j beta_v) x^(l - r_j beta_j).  A
``_BlockTable`` per block holds c^r prod_v perm(l_v, r beta_v)/r!, and a
``_profile`` holds R! p_R over one denominator: (-1)^R R! (d^alpha)^(-R)
x^c for a corner operator d^alpha (``_corner_profile``), the t-profiles
and kernel-seed profiles of ``dissipative``.  An element is the products
of table entries times the profile of their R, reduced once.
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
    KernelPreconditionError,
    LinearOperator,
    MultiplyBy,
    NestedRightInverse,
    OperatorHypothesisError,
    Scale,
    SeriesConfig,
    Sum,
    VerificationError,
    _add_form_term,
    _chain_order,
    differential_form,
    form_map,
    forms_commute,
    op_to_json,
    operator_variables,
    operators_agree_on_sample,
    solve_by_series,
)
from .poly import (EXP_MAX, ExponentRangeError, FormApplicator, Polynomial, _int_form, _IntForm, _mover, _pack,
                   _padded, _reduced, _shifted_sum, _sum_forms, _unit, variable)

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
        vs, _ = _chain_order(self.solutions(), [self.annihilator])
        apply = form_map(self.annihilator, vs)
        for e in self.elements:
            if apply(_int_form(e.solution, vs)):
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
        payload = self._payload()
        for entry in payload["elements"]:
            entry["solution"] = entry["solution"].to_json_terms()
        return payload

    def _payload(self):
        """to_json() with each solution left a Polynomial, for a writer that
        serializes polynomials itself."""
        return {
            "elements": [
                {"indexMeta": {k: _json_scalar(v) for k, v in e.index.items()},
                 "solution": e.solution}
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


def _checked(elements, annihilator, truncation, lemma=None) -> BasisFamily:
    """The family, its annihilation proved by the lemma's certificate when a
    ``_SeriesLemma`` built the elements, else checked on every element."""
    fam = BasisFamily(elements, annihilator, truncation)
    if lemma is None:
        fam.verify_annihilation()
    else:
        lemma.prove(annihilator)
    return fam


def _check_cap(cap: int):
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")


def _default_vars(n: int):
    return tuple(f"x{i}" for i in range(1, n + 1))


# -- the closed-form series ------------------------------------------------------

class _BlockTable(dict):
    """The block c d^beta of L (module docstring), beta the positive orders
    of its variables: for their exponents l, the list over r of
    (r, c^r prod_v perm(l_v, r beta_v)/r!, l - r beta) while r beta <= l.
    r! divides the product of r beta_v consecutive integers, so the entries
    are integers.  Each l is filled on first use."""

    __slots__ = ("coeff", "orders")

    def __init__(self, coeff: int, orders: tuple):
        super().__init__()
        self.coeff, self.orders = coeff, orders

    def __missing__(self, l):
        c, orders = self.coeff, self.orders
        self[l] = entries = [
            (r, c**r * math.prod(map(math.perm, l, [r * o for o in orders])) // math.factorial(r),
             tuple(e - r * o for e, o in zip(l, orders)))
            for r in range(min(map(int.__floordiv__, l, orders)) + 1)
        ]
        return entries


def _profile(entries) -> tuple:
    """The profile from its entries (pairs, den_R), R = 0.., holding R! p_R
    as (corner key, integer numerator) pairs over den_R, the key packed
    over the corner variables: the lcm d of all den_R and each R's pairs
    over d."""
    d = math.lcm(*(den for _, den in entries))
    return d, [[(j, c * (d // den)) for j, c in pairs] for pairs, den in entries]


def _corner_profile(corner: tuple, orders: tuple, top: int) -> tuple:
    """The profile R! p_R, R <= top, of p_R = (-1)^R (d^orders)^(-R) x^corner
    (zero constants): (-1)^R x^(corner + R orders) over the integer
    prod_v perm(corner_v + R orders_v, R orders_v) / R!."""
    entries = []
    for r in range(top + 1):
        exp = tuple(c + r * o for c, o in zip(corner, orders))
        den = math.prod(map(math.perm, exp, [r * o for o in orders])) // math.factorial(r)
        entries.append(([(_pack(exp), -1 if r & 1 else 1)], den))
    return _profile(entries)


class _PlacedTable(dict):
    """A block's ``_BlockTable`` entries as key offsets in the series'
    variable order, `units` the key steps of the block's variables there
    (``poly._unit``): the entry of l - r beta is sum_v (l_v - r beta_v)
    unit_v, so the offsets of a term's blocks add up to its key offset,
    wherever each block's variables sit.  Each l is placed on first use."""

    __slots__ = ("table", "units")

    def __init__(self, table: _BlockTable, units: tuple):
        super().__init__()
        self.table, self.units = table, units

    def __missing__(self, l):
        base = step = 0
        for e, o, u in zip(l, self.table.orders, self.units):
            if not 0 <= e <= EXP_MAX:
                raise ExponentRangeError(f"seed exponent {e} is outside [0, {EXP_MAX}]")
            base, step = base + e * u, step + o * u
        self[l] = placed = [(r, n, base - r * step) for r, n, _ in self.table[l]]
        return placed


def _placed(tables, block_vars, order: tuple) -> list:
    """A ``_PlacedTable`` per table, its block over the variables in the
    same place of block_vars, for the variable order."""
    unit = {v: _unit(len(order), i) for i, v in enumerate(order)}
    return [_PlacedTable(table, tuple(map(unit.__getitem__, vs))) for table, vs in zip(tables, block_vars)]


def _placed_profile(profile, place) -> tuple:
    """The profile with each corner key moved by place to its key over the
    series' variable order, every other variable at exponent 0."""
    d, scaled = profile
    return d, [[(place(j), c) for j, c in pairs] for pairs in scaled]


def _closed_form_series(profile, blocks, seed: tuple, n: int) -> _IntForm:
    """sum_R p_R L^R(x^seed), reduced once (module docstring), over an
    order of n variables, from the ``_PlacedTable`` of each of L's blocks
    in seed order and a ``_placed_profile``; seed is the exponent tuple
    over the blocks' variables.  Each key is its corner key plus the
    offsets of its blocks.

    R runs to the last power with a nonzero term.  The seed's exponent
    fixes each block's r, so distinct R give distinct block exponents and
    the outer product with the profile makes no term twice.
    """
    terms, start = [(0, 1, 0)], 0
    for placed in blocks:
        stop = start + len(placed.table.orders)
        terms = [(r + s, n * m, e + f) for r, n, e in terms for s, m, f in placed[seed[start:stop]]]
        start = stop
    d, corners = profile
    re = {j + e: c * a for r, a, e in terms for j, c in corners[r]}
    return _reduced(re, {}, d, n)


class _SeriesLemma:
    """The operators of one closed-form family, the series that builds its
    elements, and the lemma that proves them solutions.

    The caller states A = K + M L: K on the corner variables, the corner
    multiplier M (a Polynomial in them) and the blocks (c, beta, variables)
    of L = sum_j c_j d^(beta_j) on disjoint others.  For u = sum_(R <= T)
    p_R L^R(x^l), K p_0 = 0, K p_R = -M p_(R-1) and L^(T+1)(x^l) = 0 give
    A u = M p_T L^(T+1)(x^l) = 0.  ``prove`` checks that once per family,
    whatever the element count, on the tables and profiles ``element``
    used: the block c d^beta maps each table entry r to (r+1) times entry
    r+1 and the last to 0, from entry 0 = x^l, so entry r is B^r(x^l)/r!
    and the series reaches L^(T+1)(x^l) = 0; every profile's
    P_R = R! p_R has K P_0 = 0 and K P_R = -R M P_(R-1); and A has the
    normal form of K + M L.  The multinomial fold of
    ``_closed_form_series`` (the tables of commuting blocks give L^R/R!)
    stays trusted; the tests check it against the iterated L, and every
    lemma family against ``BasisFamily.verify_annihilation``.
    """

    __slots__ = ("corner", "operator", "multiplier", "blocks", "variables", "layout", "_placed", "_place",
                 "_profiles")

    def __init__(self, corner: tuple, operator: LinearOperator, multiplier: Polynomial,
                 blocks, variables: tuple):
        self.corner, self.operator, self.multiplier, self.variables = corner, operator, multiplier, variables
        tables = {}
        self.blocks = [(tables.setdefault((c, orders), _BlockTable(c, orders)), vs) for c, orders, vs in blocks]
        # the series runs over the corner variables, then each block's
        self.layout = layout = corner + sum((vs for _, vs in self.blocks), ())
        # the elements are built over the family's variables directly
        self._placed = _placed([t for t, _ in self.blocks], [vs for _, vs in self.blocks], variables)
        self._place = _mover(corner, variables)
        # per profile, by id: the profile and its placed form
        self._profiles = {}

    def element(self, profile, seed: tuple) -> Polynomial:
        """``_closed_form_series`` over the blocks, as a Polynomial over the
        family's variables."""
        known = self._profiles.get(id(profile))
        if known is None:
            known = self._profiles[id(profile)] = (profile, _placed_profile(profile, self._place))
        form = _closed_form_series(known[1], self._placed, seed, len(self.variables))
        return form.to_poly(self.variables, frozenset())

    def prove(self, annihilator: LinearOperator):
        """The lemma's checks (class docstring); VerificationError on a failure."""
        corner, layout, blocks = self.corner, self.layout, self.blocks
        if (len(set(layout)) != len(layout) or not operator_variables(self.operator) <= set(corner)
                or not self.multiplier.support_vars() <= set(corner)
                or not operator_variables(annihilator) <= set(layout)):
            raise VerificationError("series lemma: K and M must act on the corner variables, "
                                    "the blocks on disjoint others, and A on these alone")
        k = differential_form(self.operator, layout)
        m = _int_form(self.multiplier, layout)
        # the normal form of K + M L: M c_j at d^(beta_j), block by block
        stated = dict(k)
        for table, vs in blocks:
            _add_form_term(stated, tuple(zip(map(layout.index, vs), table.orders)), m.scaled(table.coeff))
        if differential_form(annihilator, layout) != stated:
            raise VerificationError("series lemma: the annihilator is not K + M L")
        for table in {id(t): t for t, _ in blocks}.values():
            c, orders = table.coeff, table.orders
            for l, entries in table.items():
                stepped, r, n, e, rem = [], 0, 1, l, 0
                while n and not rem:
                    stepped.append((r, n, e))
                    n, rem = divmod(c * n * math.prod(map(math.perm, e, orders)), r + 1)
                    r, e = r + 1, tuple(a - o for a, o in zip(e, orders))
                if rem or entries != stepped:
                    raise VerificationError(f"series lemma: the table of {c} d^{orders} at {l} "
                                            f"is not its block's powers")
        apply_k = FormApplicator(k).apply_form
        pad = len(layout) - len(corner)
        for (_, pairs_of), _ in self._profiles.values():
            prev = None
            for r, pairs in enumerate(pairs_of):
                p = _padded(_IntForm(dict(pairs), {}, 1, len(corner)), pad)
                image = apply_k(p) if prev is None else apply_k(p) + (m * prev).scaled(r)
                if image:
                    raise VerificationError(f"series lemma: profile entry {r} breaks "
                                            f"K P_R = -R M P_(R-1)")
                prev = p


# -- constant-coefficient equations -------------------------------------------

def constant_coefficient_basis(orders, cap: int) -> BasisFamily:
    """Solution basis of sum_i d^(m_i)/dx_i^(m_i) u = 0, truncated by index cap.

    Elements are indexed by (l1 in 0..m1-1, l2.., ln) with l2 + ... + ln <= cap:
    the series of corner d^(m1)/dx1^(m1) on x1^l1 and the blocks d^(m_i)/dx_i^(m_i).
    The lemma (``_SeriesLemma``) proves them with K = d^(m1)/dx1^(m1), M = 1
    and P_R = (-1)^R R! (K^(-R))(x1^l1), so K P_0 = 0 (l1 < m1) and
    K P_R = -R P_(R-1).
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
    m1 = orders[0]
    lemma = _constant_lemma(orders)
    elements = []
    for l1 in range(m1):
        profile = _corner_profile((l1,), (m1,), cap)
        for rest in tuples_with_sum_at_most(n - 1, cap):
            elements.append(BasisElement({"ell": (l1,) + rest}, lemma.element(profile, rest)))
    return _checked(elements, annihilator, {"cap": cap, "orders": list(orders)}, lemma)


def _constant_lemma(orders: tuple) -> _SeriesLemma:
    """The lemma of sum_i d^(m_i)/dx_i^(m_i) over x1..xn: K = d^(m1)/dx1^(m1),
    M = 1 and the blocks d^(m_i)/dx_i^(m_i), i >= 2."""
    vars_ = _default_vars(len(orders))
    return _SeriesLemma(vars_[:1], Derivative(vars_[0], orders[0]), Polynomial.const(1),
                        [(1, (m,), (v,)) for v, m in zip(vars_[1:], orders[1:])], vars_)


# -- harmonic polynomials ------------------------------------------------------

def harmonic_element(n: int, eps: int, ells) -> Polynomial:
    """One solution of the Laplace equation, indexed by eps in {0,1} and l2..ln.

    The series of corner d^2/dx1^2 on x1^eps and the blocks d^2/dx_i^2 on
    x2^l2...xn^ln: alternating even-derivative reduction of the seed, with
    the x1 powers supplied by iterated double integration.
    """
    ells = tuple(ells)
    # the terms below are canonical once these hold
    if eps not in (0, 1) or len(ells) != n - 1:
        raise ValueError(f"need eps 0 or 1 and n - 1 exponents, got n={n}, eps={eps}, ells={ells}")
    return _constant_lemma((2,) * n).element(_corner_profile((eps,), (2,), sum(ells) // 2), ells)


def harmonic_basis(n: int, cap: int) -> BasisFamily:
    """Basis of the harmonic polynomials in n variables up to total degree cap."""
    if n < 2:
        raise ValueError("need at least two variables")
    _check_cap(cap)
    annihilator = Sum(Derivative(v, 2) for v in _default_vars(n))
    elements, lemma = _harmonic_elements(n, cap, tuples_with_sum_at_most)
    return _checked(elements, annihilator, {"cap": cap, "n": n}, lemma)


def _harmonic_elements(n: int, cap: int, ells_of) -> tuple:
    """The elements of ``harmonic_element`` for eps in {0, 1} and l2..ln in
    ells_of(n - 1, cap - eps), and the lemma that built them: K = d^2/dx1^2,
    M = 1, the blocks d^2/dx_i^2 (one table) and one profile
    P_R = (-1)^R R! (K^(-R))(x1^eps) per eps, with K P_R = -R P_(R-1)."""
    lemma = _constant_lemma((2,) * n)
    elements = []
    for eps in range(min(cap, 1) + 1):
        profile = _corner_profile((eps,), (2,), cap // 2)
        for ells in ells_of(n - 1, cap - eps):
            elements.append(BasisElement({"eps": eps, "ell": ells}, lemma.element(profile, ells)))
    return elements, lemma


# -- general flag equations ------------------------------------------------------

@dataclass(frozen=True)
class FlagEquationSpec:
    """Orders m1..mn and coefficients f1..f(n-1) of a triangular equation.

    The equation is d^(m1)/dx1 + f1 d^(m2)/dx2 + ... with f_i a polynomial in
    x1..xi only.  Its one nested right inverse, built here, checks that
    shape and serves every stage of ``flag_basis``; the spec is frozen, so
    the inverse stays the inverse of its equation.
    """

    orders: tuple
    coefficients: tuple
    variables: tuple = ()
    _inverse: NestedRightInverse = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        orders = tuple(int(m) for m in self.orders)
        if any(m < 1 for m in orders):
            # D^0 never kills a seed, so the family would never end
            raise ValueError(f"orders must be positive, got {orders}")
        n = len(orders)
        variables = tuple(self.variables) or _default_vars(n)
        if len(variables) != n:
            raise ValueError(f"need one variable per order, got {variables} for {n} orders")
        if len(self.coefficients) != n - 1:
            raise ValueError("need exactly n-1 coefficients")
        inv = NestedRightInverse(zip((1, *self.coefficients), map(Derivative, variables, orders)))
        for name, value in (("orders", orders), ("variables", variables),
                            ("coefficients", inv.coeffs[1:]), ("_inverse", inv)):
            object.__setattr__(self, name, value)

    def operator(self) -> LinearOperator:
        parts = [Derivative(self.variables[0], self.orders[0])]
        for i, c in enumerate(self.coefficients, start=1):
            parts.append(Compose(MultiplyBy(c), Derivative(self.variables[i], self.orders[i])))
        return Sum(parts)


def _sigma_step(inv: NestedRightInverse, stage: int, vs: tuple, f: _IntForm, pos: int,
                m: int, chain: list, ell: int) -> _IntForm:
    """Extend a solution h of the first `stage` blocks by the seed x_pos^ell.

    Returns sum_i (-R f)^i(h) * D^i(seed), where R is stage `stage` of the
    spec's one nested inverse `inv` (which checked the shape and serves
    every stage), f the coefficient and D = d^m/dx_pos^m of the new block,
    all as integer forms over the build's variable order vs.  D^i(seed) is
    falling(ell, i*m) x_pos^(ell - i*m), so each product is an exponent
    shift, and the shifted pieces are summed in one pass.  chain[i] holds
    (-R f)^i(h), chain[0] = h; each missing power is one step from the
    previous one and is appended, so seeds extending the same h share it.
    """
    pieces = []
    i, k = 0, 1
    while k:
        if i == len(chain):
            chain.append(-inv._apply_stage(stage, f * chain[-1], vs))
        pieces.append((chain[i], ell - i * m, k))
        i += 1
        k = math.perm(ell, i * m)
    return _shifted_sum(pieces, pos, len(vs))


def flag_basis(spec: FlagEquationSpec, cap: int) -> BasisFamily:
    """Solution basis of a triangular equation, built stage by stage.

    Elements carry index (l1 in 0..m1-1, l2.., ln) with l2 + ... + ln <= cap.
    The partial solution after stage k depends only on the prefix
    (l1, l2..l(k+1)), so each prefix is solved once, together with the
    powers (-R f)^i of it that the next stage needs, and shared by every
    element that starts with it; the prefixes live in a dictionary local to
    this call.  Every stage runs on the spec's one nested inverse, which
    checked the shape when the spec was built, and on its ``plan``.  The
    whole build runs on integer forms over ``spec.variables``, and each
    element is the Polynomial holding its form.
    """
    _check_cap(cap)
    n = len(spec.orders)
    vs = spec.variables
    annihilator = spec.operator()
    laurent = frozenset().union(*(c.laurent for c in spec.coefficients))
    inv = spec._inverse
    plan = inv.plan(vs)
    chains: dict[tuple, list] = {}
    elements = []
    for l1 in range(spec.orders[0]):
        root = [_IntForm({_pack((l1,) + (0,) * (n - 1)): 1}, {}, 1, n)]
        for rest in tuples_with_sum_at_most(n - 1, cap):
            ell = (l1,) + rest
            chain = root
            for stage in range(1, n):
                prefix = ell[: stage + 1]
                nxt = chains.get(prefix)
                if nxt is None:
                    pos, m, f, _ = plan[stage]
                    nxt = [_sigma_step(inv, stage, vs, f, pos, m, chain, ell[stage])]
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
    other, proved on the m+1 normal forms, built once (``forms_commute``),
    or by ``operators_agree_on_sample`` for an operator without one;
    T0^m must annihilate h.  The output is the multinomial series over
    tuples (i_1..i_m) weighting (T0inv)^(sum p*i_p)(h) with
    prod T_p^(i_p)(g), verified exactly.
    """
    perturbations = list(perturbations)
    if len(perturbations) != m:
        raise ValueError("need exactly m perturbation operators")
    ops = [t0, *perturbations]
    vs, laurent = _chain_order([h, g], [t0_inverse, *ops])
    forms = [differential_form(op, vs) for op in ops]
    for a, b in itertools.combinations(range(m + 1), 2):
        if forms[a] is not None and forms[b] is not None:
            commute = forms_commute(forms[a], forms[b])
        else:
            commute = operators_agree_on_sample(Compose(ops[a], ops[b]), Compose(ops[b], ops[a]), vs)
        if not commute:
            failed = f"T0 does not commute with T{b}" if a == 0 else f"T{a} and T{b} do not commute"
            raise OperatorHypothesisError(f"power-perturbation hypotheses violated: {failed}")
    hk = h0 = _int_form(h, vs)
    for _ in range(m):
        hk = t0.apply_form(hk, vs)
    if hk:
        raise KernelPreconditionError("kernel precondition violated")

    max_level = 2 + g.total_degree() * max(1, m)
    g_parts: dict[tuple, _IntForm] = {(0,) * m: _int_form(g, vs)}
    perturb = [form_map(op, vs) for op in perturbations]

    def g_part(tup):
        if tup in g_parts:
            return g_parts[tup]
        for r in range(m):
            if tup[r]:
                prev = tup[:r] + (tup[r] - 1,) + tup[r + 1 :]
                out = perturb[r](g_part(prev))
                break
        g_parts[tup] = out
        return out

    h_powers = [h0]

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
    total = _sum_forms(pieces) if pieces else _IntForm.zero(len(vs))

    # residual of T0^m - sum_p T0^(m-p) T_p
    residual = Sum((
        Compose([t0] * m),
        *(Compose(Scale(-1), *[t0] * (m - p), op) for p, op in enumerate(perturbations, start=1)),
    ))
    if form_map(residual, vs)(total):
        raise VerificationError("power-perturbation output not annihilated exactly")
    return total.to_poly(vs, laurent)


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
