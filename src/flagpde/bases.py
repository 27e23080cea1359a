"""Polynomial solution families for triangular (flag) equations.

Every generator in this module produces a BasisFamily: an indexed list of
exact polynomial solutions together with the operator they are solutions
of.  Annihilation is proved at generation time by a certificate of the
build, so a returned family is already verified and no element is checked
on its own: the closed-form families below by the series lemma
(``_SeriesLemma``), whose certificate checks the tables and profiles the
elements are folded from once per family; ``flag_basis`` by the chain law
(``_ChainLaw``), which checks A_s R_s = 1 of the spec's nested inverse on
every level batch the build maps.  ``BasisFamily.verify_annihilation``
checks a family end to end, the tests' oracle for both certificates.
Linear independence and desk-scale completeness checks live in
``verify_independence`` and the test suite's kernel oracles.

Every constant-coefficient family (constant, harmonic, damped-wave,
anisymmetric, sl and g2) is built from one series u = sum_R p_R L^R(x^l)
of a monomial seed x^l, ``_closed_form_series``; the phi branch of the
negative odd lambda anisymmetric family is one over the corner (t, x1).
L = sum_j c_j d^(beta_j) acts on separate variable blocks, so
L^R(x^l) = sum_{|r|=R} R!/r! prod_j c_j^(r_j) prod_v perm(l_v, r_j beta_v)
x^(l - r_j beta_j).  A ``_BlockTable`` per block holds
c^r prod_v perm(l_v, r beta_v)/r! and the key offset of x^(l - r beta),
and a ``_profile`` holds R! p_R over one denominator, placed over the
family's variables when the lemma makes it: (-1)^R R! (d^alpha)^(-R) x^c
for a corner operator d^alpha, or the t- and (t, x1)-profiles of
``dissipative``.  An element is the products of table entries times the
profile of their R, reduced once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .combinatorics import tuples_with_sum_at_most
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
                   _padded, _reduced, _shifted_union, _split_tagged, _sum_forms, _tag_variable, _tagged, _unit,
                   variable)

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


def _checked(elements, annihilator, truncation, certificate, *more) -> BasisFamily:
    """The family, its annihilation proved by the certificates that built
    the elements, each a ``_SeriesLemma`` or a ``_ChainLaw`` whose
    ``prove`` ties its checks to the annihilator."""
    for cert in (certificate, *more):
        cert.prove(annihilator)
    return BasisFamily(elements, annihilator, truncation)


def _check_cap(cap: int, seeded: bool = True):
    """A negative cap, or one above EXP_MAX where the family has the seed
    x_j^cap (seeded), raises before any element is built."""
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    if seeded:
        _check_seed(cap)


def _default_vars(n: int):
    return tuple(f"x{i}" for i in range(1, n + 1))


# -- the closed-form series ------------------------------------------------------

class _BlockTable(dict):
    """The block c d^beta of L (module docstring), beta the positive orders
    of its variables, units their key steps (``poly._unit``) in the
    family's order: for their exponents l, the list over r of
    (r, c^r prod_v perm(l_v, r beta_v)/r!, sum_v (l_v - r beta_v) unit_v)
    while r beta <= l, the last the key offset of x^(l - r beta), so the
    offsets of a term's blocks add up to its key offset.  r! divides the
    product of r beta_v consecutive integers, so the entries are integers.
    Each l is checked and filled on first use."""

    __slots__ = ("coeff", "orders", "units")

    def __init__(self, coeff: int, orders: tuple, units: tuple):
        super().__init__()
        self.coeff, self.orders, self.units = coeff, orders, units

    def __missing__(self, l):
        _check_seed(*l)
        c, orders, units = self.coeff, self.orders, self.units
        base, step = sum(map(mul, l, units)), sum(map(mul, orders, units))
        self[l] = entries = [
            (r, c**r * math.prod(map(math.perm, l, [r * o for o in orders])) // math.factorial(r), base - r * step)
            for r in range(min(map(int.__floordiv__, l, orders)) + 1)
        ]
        return entries


def _check_seed(*exps):
    """ExponentRangeError for the first seed exponent outside [0, EXP_MAX]."""
    for e in exps:
        if not 0 <= e <= EXP_MAX:
            raise ExponentRangeError(f"seed exponent {e} is outside [0, {EXP_MAX}]")


def _units(vs: tuple, order: tuple) -> tuple:
    """The key steps (``poly._unit``) of the variables vs in the order."""
    return tuple(_unit(len(order), order.index(v)) for v in vs)


def _profile(entries) -> tuple:
    """The profile from its entries (pairs, den_R), R = 0.., holding R! p_R
    as (corner key, integer numerator) pairs over den_R, the key packed
    over the corner variables: the lcm d of all den_R and each R's pairs
    over d."""
    d = math.lcm(*(den for _, den in entries))
    return d, [[(j, c * (d // den)) for j, c in pairs] for pairs, den in entries]


def _closed_form_series(profile, blocks, seed: tuple, n: int) -> _IntForm:
    """sum_R p_R L^R(x^seed), reduced once (module docstring), over an
    order of n variables, from the (``_BlockTable``, variables) blocks of L
    in seed order and a profile placed over that order; seed is the
    exponent tuple over the blocks' variables.  Each key is its profile key
    plus the offsets of its blocks.

    R runs to the last power with a nonzero term.  The seed's exponent
    fixes each block's r, so distinct R give distinct block exponents and
    the outer product with the profile makes no term twice.
    """
    terms, start = [(0, 1, 0)], 0
    for table, _ in blocks:
        stop = start + len(table.orders)
        terms = [(r + s, n * m, e + f) for r, n, e in terms for s, m, f in table[seed[start:stop]]]
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
    whatever the element count, on the table entries ``element`` filled
    and the profiles the lemma made (``profile``, ``corner_profile``): the
    block c d^beta maps each table entry r to (r+1) times entry r+1 and the
    last to 0, from entry 0 = x^l, so entry r is B^r(x^l)/r! and the series
    reaches L^(T+1)(x^l) = 0, and each entry's offset is the key offset of
    its exponents over the family's variables; every profile's
    P_R = R! p_R has K P_0 = 0 and K P_R = -R M P_(R-1); and A has the
    normal form of K + M L.  The placing of the profiles and the fold of
    ``_closed_form_series`` (the tables of commuting blocks give L^R/R!)
    stay trusted; the tests check them against the iterated L, and every
    lemma family against ``BasisFamily.verify_annihilation``.
    """

    __slots__ = ("corner", "operator", "multiplier", "blocks", "variables", "layout", "_profiles")

    def __init__(self, corner: tuple, operator: LinearOperator, multiplier: Polynomial,
                 blocks, variables: tuple):
        self.corner, self.operator, self.multiplier, self.variables = corner, operator, multiplier, variables
        # the elements are built over the family's variables directly
        self.blocks = [(_BlockTable(c, orders, _units(vs, variables)), vs) for c, orders, vs in blocks]
        # the series runs over the corner variables, then each block's
        self.layout = corner + sum((vs for _, vs in self.blocks), ())
        # the profiles made so far, keyed over the corner, for ``prove``
        self._profiles = []

    def profile(self, polys) -> tuple:
        """The profile of the Polynomials p_0, p_1, .. in the corner, placed."""
        forms = [_int_form(p, self.corner) for p in polys]
        return self._recorded(_profile([([(j, a * math.factorial(r)) for j, a in f.re.items()], f.den)
                                        for r, f in enumerate(forms)]))

    def corner_profile(self, exps: tuple, orders: tuple, top: int) -> tuple:
        """The profile R! p_R, R <= top, of p_R = (-1)^R (d^orders)^(-R) x^exps
        over the corner (zero constants), placed: (-1)^R x^(exps + R orders)
        over the integer prod_v perm(exps_v + R orders_v, R orders_v) / R!."""
        entries = []
        for r in range(top + 1):
            exp = tuple(c + r * o for c, o in zip(exps, orders))
            den = math.prod(map(math.perm, exp, [r * o for o in orders])) // math.factorial(r)
            entries.append(([(_pack(exp), -1 if r & 1 else 1)], den))
        return self._recorded(_profile(entries))

    def _recorded(self, profile) -> tuple:
        """The profile, recorded for ``prove``, placed over the family's variables."""
        self._profiles.append(profile)
        d, scaled = profile
        place = _mover(self.corner, self.variables)
        return d, [[(place(j), c) for j, c in pairs] for pairs in scaled]

    def element(self, profile, seed: tuple) -> Polynomial:
        """``_closed_form_series`` over the blocks, as a Polynomial over the
        family's variables, for a profile this lemma made."""
        form = _closed_form_series(profile, self.blocks, seed, len(self.variables))
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
        for table, vs in blocks:
            c, orders, units = table.coeff, table.orders, _units(vs, self.variables)
            for l, entries in table.items():
                stepped, r, n, e, rem = [], 0, 1, l, 0
                while n and not rem:
                    stepped.append((r, n, sum(map(mul, e, units))))
                    n, rem = divmod(c * n * math.prod(map(math.perm, e, orders)), r + 1)
                    r, e = r + 1, tuple(a - o for a, o in zip(e, orders))
                if rem or entries != stepped:
                    raise VerificationError(f"series lemma: the table of {c} d^{orders} at {l} "
                                            f"is not its block's powers")
        apply_k = FormApplicator(k).apply_form
        pad = len(layout) - len(corner)
        for _, pairs_of in self._profiles:
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
        profile = lemma.corner_profile((l1,), (m1,), cap)
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
    # the terms below are canonical, and the profile's size bounded, once these hold
    if eps not in (0, 1) or len(ells) != n - 1:
        raise ValueError(f"need eps 0 or 1 and n - 1 exponents, got n={n}, eps={eps}, ells={ells}")
    _check_seed(*ells)
    top = sum(ells) // 2
    if eps + 2 * top > EXP_MAX:  # the profile's last x1 power, before any of it is built
        raise ExponentRangeError(f"x1 degree {eps + 2 * top} is outside [0, {EXP_MAX}]")
    lemma = _constant_lemma((2,) * n)
    return lemma.element(lemma.corner_profile((eps,), (2,), top), ells)


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
        profile = lemma.corner_profile((eps,), (2,), cap // 2)
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


class _ChainLaw:
    """The certificate of ``flag_basis``: the law A_s R_s = 1 of the spec's
    nested inverse, the one-sided inverse relation D R = 1 (Jacobson, Proc.
    AMS 1, 1950), checked on the inputs its stages receive.

    A_s = sum_(j <= s) c_j d_j^(m_j), c_1 = 1, is the first s blocks of the
    spec's operator and R_s the stage-s inverse.  Stage s extends the
    solution P_0 of a prefix, A_s P_0 = 0, by the power l of block s+1,
    with x = x_(s+1), f = c_(s+1) and m = m_(s+1), to
    e = sum_(i <= I) (-1)^i perm(l, i m) x^(l - i m) P_i, I = l // m and
    P_(i+1) = R_s(f P_i).  ``check`` tests A_s P_(i+1) = f P_i on every
    level batch the build maps, and that the image has exponent 0 in x and
    every later block variable; ``seeds`` tests that A_1 kills the seeds
    x1^l1, l1 < m1, which have no later variable.  So no P_i has x,
    d^m(x^k P_i) = perm(k, m) x^(k-m) P_i, and A_s commutes with x.
    A_(s+1) e = A_s e + f d^m e then telescopes to 0:
    f d^m e = sum_(i <= I) (-1)^i perm(l, (i+1) m) x^(l - (i+1) m) f P_i,
    as perm(l, i m) perm(l - i m, m) = perm(l, (i+1) m); its term i is
    minus the term i+1 of A_s e = sum_(1 <= i <= I) (-1)^i perm(l, i m)
    x^(l - i m) f P_(i-1), and its term I has perm(l, (I+1) m) = 0.  So e
    solves A_(s+1) and is a P_0 of stage s+1, and by induction every
    element solves A_n; ``prove`` checks that A_n is the annihilator.  The
    union of the shifted P_i (``poly._shifted_union``) and its coefficients
    (-1)^i perm(l, i m) stay trusted, as ``_SeriesLemma`` trusts its fold;
    the tests check them against the per-prefix build and
    ``BasisFamily.verify_annihilation``.

    The laws act over the build's tagged order, taken from the blocks of
    the inverse's ``plan``: A_s is one ``FormApplicator``, made when stage
    s first maps a batch.  An operator that reads no tag maps a batch to
    the tagged sum of its members' images.
    """

    __slots__ = ("order", "_blocks", "_laws")

    def __init__(self, inv: NestedRightInverse, tagged: tuple):
        self.order = tagged
        # per block: the position of its variable and its normal-form term c d^m
        self._blocks = [(pos, ((pos, m),), _int_form(inv.coeffs[0], tagged) if j == 0 else c)
                        for j, (pos, m, c, _) in enumerate(inv.plan(tagged))]
        self._laws = {}

    def _form(self, s: int) -> dict:
        """The normal form of A_s."""
        return {alpha: c for _, alpha, c in self._blocks[:s] if c}

    def seeds(self, seeds: list):
        """The seeds of stage 1, over the build's order without the tag, as
        power 0 of its chains: A_1 kills them."""
        batch = _tagged(seeds, 0)
        self.check(1, 0, _IntForm.zero(batch.n), batch)

    def check(self, s: int, power: int, fb: _IntForm, image: _IntForm):
        """VerificationError unless A_s(image) = fb and no key of the image
        has x_(s+1) or a later block variable: power `power` of the level
        batch fb = f P that stage s mapped to image = R_s(fb).  Both forms
        are reduced, so the law is one comparison, and the variables are
        read by one and and one or over the keys (``_IntForm.free_of``)."""
        law = self._laws.get(s)
        if law is None:
            law = self._laws[s] = FormApplicator(self._form(s)).apply_form
        if law(image) != fb:
            raise VerificationError(f"chain law: power {power} of stage {s} breaks A_s R_s(f P) = f P")
        later = [pos for pos, _, _ in self._blocks[s:]]
        if not image.free_of(later):
            raise VerificationError(f"chain law: power {power} of stage {s} has one of "
                                    f"{[self.order[pos] for pos in later]}")

    def prove(self, annihilator: LinearOperator):
        """VerificationError unless the annihilator's normal form is A_n's."""
        if differential_form(annihilator, self.order) != self._form(len(self._blocks)):
            raise VerificationError("chain law: the annihilator is not the last stage's law")


def flag_basis(spec: FlagEquationSpec, cap: int) -> BasisFamily:
    """Solution basis of a triangular equation, built stage by stage.

    Elements carry index (l1 in 0..m1-1, l2.., ln) with l2 + ... + ln <= cap.
    The partial solution after stage k depends only on the prefix
    (l1, l2..l(k+1)), so each prefix is solved once and shared by every
    element that starts with it.  Stage k extends a prefix's solution h by
    the seed x^l of the next block, l up to what the cap leaves, as
    sum_i (-R f)^i(h) * D^i(x^l): R the stage-k inverse, f the block's
    coefficient and D its derivative, so D^i(x^l) is falling(l, i*m)
    x^(l - i*m).  No power (R f)^i(h) has the block's variable, so the
    shifted powers have disjoint keys and the sum is their union, reduced
    once (``poly._shifted_union``).
    The powers (R f)^i(h) are built level by level (``_chains``): power i
    of every prefix that needs power i+1 goes into one tagged batch, which
    takes one application of the spec's nested inverse.  Every stage runs
    on that one inverse, which checked the shape when the spec was built,
    and on its ``plan``.  The family is proved by the chain law
    (``_ChainLaw``), checked on the seeds and on every batch the inverse
    maps, not element by element.  The whole build runs on integer forms
    over ``spec.variables``, and each element is the Polynomial holding its
    form.
    """
    n = len(spec.orders)
    # one variable reads no cap: its elements are x1^l1, l1 < m1
    _check_cap(cap, seeded=n > 1)
    vs = spec.variables
    annihilator = spec.operator()
    laurent = frozenset().union(*(c.laurent for c in spec.coefficients))
    inv = spec._inverse
    plan = inv.plan(vs)
    tagged = vs + (_tag_variable(vs),)
    law = _ChainLaw(inv, tagged)
    # the solution of each prefix (l1, .., lk) after stage k - 1
    level = {(l1,): _IntForm({_pack((l1,) + (0,) * (n - 1)): 1}, {}, 1, n) for l1 in range(spec.orders[0])}
    law.seeds(list(level.values()))
    for stage in range(1, n):
        pos, m, _, _ = plan[stage]
        room = {prefix: cap - sum(prefix[1:]) for prefix in level}
        chains = _chains(inv, law, stage, tagged, level, {prefix: r // m for prefix, r in room.items()})
        level = {prefix + (l,): _shifted_union([(c, l - i * m, (-1) ** i * math.perm(l, i * m))
                                                for i, c in enumerate(chain[: l // m + 1])], pos, n)
                 for prefix, chain in chains.items() for l in range(room[prefix] + 1)}
    elements = []
    for l1 in range(spec.orders[0]):
        for rest in tuples_with_sum_at_most(n - 1, cap):
            ell = (l1,) + rest
            elements.append(BasisElement({"ell": ell}, level[ell].to_poly(vs, laurent)))
    return _checked(elements, annihilator, {"cap": cap, "orders": list(spec.orders)}, law)


# the members of one batch, as many as a tag field tells apart (``poly._tagged``)
_BATCH = EXP_MAX + 1


def _chains(inv: NestedRightInverse, law: _ChainLaw, stage: int, tagged: tuple, heads: dict, needs: dict) -> dict:
    """{prefix: [h, (R f)(h), .., (R f)^need(h)]} for the solution h of each
    prefix in heads and its need in needs, with R stage `stage` of the
    spec's one nested inverse `inv` and f the coefficient of the block it
    adds, over the variable order `tagged`: the build's order and a tag.

    The powers are built level by level.  The prefixes, most needed first,
    are cut into chunks of at most ``_BATCH``; at level i, power i of every
    prefix of a chunk whose need exceeds i is one tagged batch, multiplied
    by f and mapped by R once, and the image split by tag gives power i+1
    of each.  Each image is checked against the stage's law
    (``_ChainLaw.check``) before it is split.  The image, cut to the
    prefixes that need a further power, is the next level's batch.  A split
    power is not reduced, so it may only feed ``_shifted_union``, which
    reduces each sum once.
    """
    f = inv.plan(tagged)[stage][2]
    chains = {prefix: [h] for prefix, h in heads.items()}
    order = sorted((prefix for prefix in heads if needs[prefix]), key=needs.__getitem__, reverse=True)
    for start in range(0, len(order), _BATCH):
        chunk = order[start:start + _BATCH]
        depth = [needs[prefix] for prefix in chunk]
        batch, size = _tagged([heads[prefix] for prefix in chunk], 0), len(chunk)
        for i in range(depth[0]):
            keep = sum(d > i + 1 for d in depth)
            fb = f * batch
            image = inv._apply_stage(stage, fb, tagged)
            law.check(stage, i + 1, fb, image)
            powers, batch = _split_tagged(image, size, keep)
            for prefix, power in zip(chunk, powers):
                chains[prefix].append(power)
            size = keep
    return chains


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
    other, proved on the m+1 normal forms, built once (``forms_commute``)
    and applied again by the series, or by ``operators_agree_on_sample``
    for an operator without one; T0^m must annihilate h.  The output is the
    multinomial series sum_i multinomial(i) (T0inv)^(sum p*i_p)(h)
    prod T_p^(i_p)(g) summed by weight: u = sum_w (T0inv)^w(h) G_w, G_0 = g,
    G_w = sum_p T_p(G_(w-p)), as each ordering of the parts ends in some T_p
    and the T_p commute.  m zero G_w in a row end it; a series still alive
    past w = m (3 + deg(g) max(1, m)) raises VerificationError.  The output
    is verified exactly.
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

    last = m * (3 + g.total_degree() * max(1, m))
    perturb = [FormApplicator(form).apply_form if form is not None else (lambda q, op=op: op.apply_form(q, vs))
               for op, form in zip(perturbations, forms[1:])]
    parts = [_int_form(g, vs)]
    # with m = 0, parts[-m:] would be the whole list
    while m and any(parts[-m:]):
        w = len(parts)
        if w > last:
            raise VerificationError("power-perturbation series did not terminate")
        parts.append(_sum_forms([perturb[p - 1](parts[w - p]) for p in range(1, min(m, w) + 1) if parts[w - p]]))
    del parts[len(parts) - m:]  # the m zeros that ended the series
    pieces = [_IntForm.zero(len(vs))]
    hw = h0
    for w, part in enumerate(parts):
        if w:
            hw = t0_inverse.apply_form(hw, vs)
        if part:
            pieces.append(hw * part)
    total = _sum_forms(pieces)

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
