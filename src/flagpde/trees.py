"""Rooted trees, their generalized Tricomi operators, and the heat-flow splitting.

A tree on nodes 1..n is rooted at node 1; every other node has exactly one
parent with a smaller index.  The attached operator is

    d_T = d^2/dx1^2 + sum over edges (i, j) of x_i d^2/dxj^2.

The splitting machinery factors exp(t*d_T) into a product of exponentials
exp(xi_n) ... exp(xi_1), one per node.  Each xi_i is a polynomial in t, in
commuting formal derivative symbols D1..Dn, and (for i >= 2) in the single
parent multiplier x_p(i).  The recursion runs bottom-up from the tips:

    tilde_xi_i(t) = integral_0^t (D_i + sum of children tilde_xi_s(y))^2 dy

with tilde_xi = t*D^2 at a tip, and xi_i = x_p(i) * tilde_xi_i for i >= 2.
``check_splitting`` verifies the operator identity mechanically by exact
series expansion, which also guards the commuting-symbols convention.  It
reads each xi_i as a normal form (D_j as d/dx_j, the rest of each term as
its integer-form coefficient) and applies it, like t*d_T (the normal form
of d_T with every coefficient shifted by t), through one
``poly.FormApplicator`` per operator, built from its normal form
over the variable order (t, x1..xn, tag), with the t-power cap applied as an exponent filter and
each 1/j of the exponential series folded into the denominator.  Every
monomial of the sweep goes through both sides in one batch: the j-th
carries j in the trailing tag position, which no operator reads, so the
two sides are compared once for all of them.

The sweep is a proof in every x-degree once degree_cap >= 2 * t_power_cap:

- Order lemma.  An operator L = sum_alpha c_alpha(x) d^alpha of order at
  most N is zero as soon as it kills x^beta for every |beta| <= N.  By
  induction on beta, L(x^beta) is beta! c_beta plus terms with alpha < beta,
  so every c_beta vanishes in turn.
- Order bound.  Every xi_i term has D-degree at most 2 times its t-degree.
  A tip's tilde_xi = t*D^2 meets it with equality.  If every child's
  term does, every term of the inner sum D_i + sum tilde_xi_s(y) has
  D-degree at most 2 * (its y-degree) + 1, so a product of two of them
  has D-degree at most 2(a + b) + 2 at y-degree a + b; the y-integral
  raises the y-degree by one, and the multiplier x_p changes neither
  degree.

t*d_T has order 2 per power of t, and orders add under composition, so
the t^j parts of both sides, and of their difference, have order at most
2j.  Hence agreement on every monomial of degree at most 2 * t_power_cap
proves the identity up to t^t_power_cap in every degree; a lower cap is a
finite check, and ``SplittingReport.proof`` says which one ran.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .combinatorics import tuples_with_sum_at_most
from .operators import (
    Compose,
    Derivative,
    MultiplyBy,
    Sum,
    VerificationError,
    differential_form,
)
from .poly import (ExponentRangeError, FormApplicator, Polynomial, _IntForm, _lead_floor, _pack, _reduced,
                   _sum_forms, _tagged, _unit, _unpack, _untagged, variable)

__all__ = [
    "InvalidTreeError",
    "SplittingReport",
    "Tree",
    "TricomiSplitting",
    "all_trees",
    "check_splitting",
    "compute_splitting",
    "evaluate_symbol",
    "tricomi_operator",
]


class InvalidTreeError(ValueError):
    pass


@dataclass(frozen=True)
class Tree:
    nodes: int
    edges: frozenset

    def __init__(self, nodes: int, edges):
        object.__setattr__(self, "nodes", int(nodes))
        object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in edges))
        self._validate()

    def _validate(self):
        n = self.nodes
        if n < 1:
            raise InvalidTreeError("not a tree: needs at least one node")
        parents = {}
        for i, j in self.edges:
            if not (1 <= i < j <= n):
                raise InvalidTreeError(
                    f"not a tree: edge ({i},{j}) must satisfy 1 <= i < j <= {n}"
                )
            if j in parents:
                raise InvalidTreeError(f"not a tree: node {j} has two parents")
            parents[j] = i
        for j in range(2, n + 1):
            if j not in parents:
                raise InvalidTreeError(f"not a tree: node {j} is unreachable from the root")
        if len(self.edges) != n - 1:
            raise InvalidTreeError("not a tree: edge count must be node count minus one")

    def parent(self, j: int) -> int:
        for i, k in self.edges:
            if k == j:
                return i
        raise KeyError(f"node {j} has no parent")

    def children(self, i: int):
        return sorted(j for a, j in self.edges if a == i)

    def tips(self):
        """Nodes with no children."""
        withkids = {i for i, _ in self.edges}
        return [i for i in range(1, self.nodes + 1) if i not in withkids]

    def to_json(self):
        return {"nodes": self.nodes, "edges": sorted(list(e) for e in self.edges)}

    @staticmethod
    def from_json(data) -> "Tree":
        return Tree(data["nodes"], [tuple(e) for e in data["edges"]])


def all_trees(n: int):
    """Every tree on n ordered nodes (each node picks a parent below it)."""
    if n == 1:
        return [Tree(1, [])]
    out = []
    for parents in itertools.product(*(range(1, j) for j in range(2, n + 1))):
        edges = [(p, j) for j, p in zip(range(2, n + 1), parents)]
        out.append(Tree(n, edges))
    return out


def tricomi_operator(tree: Tree):
    parts = [Derivative("x1", 2)]
    for i, j in sorted(tree.edges):
        parts.append(Compose(MultiplyBy(variable(f"x{i}")), Derivative(f"x{j}", 2)))
    return Sum(parts)


@dataclass
class TricomiSplitting:
    tree: Tree
    exponents: list  # one Polynomial per node, in vars t, D1..Dn, x1..xn


def compute_splitting(tree: Tree) -> TricomiSplitting:
    n = tree.nodes
    tilde: dict[int, Polynomial] = {}
    # Bottom-up: descendants of a node carry higher indices, so a reverse
    # sweep always sees the children first.
    for i in range(n, 0, -1):
        kids = tree.children(i)
        if not kids:
            tilde[i] = variable("t") * variable(f"D{i}") ** 2
            continue
        inner = variable(f"D{i}")
        for s in kids:
            inner = inner + tilde[s].substitute("t", variable("y"))
        squared = inner * inner
        tilde[i] = squared.integrate("y").substitute("y", variable("t"))
    exponents = [tilde[1]]
    for i in range(2, n + 1):
        exponents.append(variable(f"x{tree.parent(i)}") * tilde[i])
    return TricomiSplitting(tree, exponents)


def _symbol_applicator(symbol: Polynomial, vs: tuple) -> FormApplicator:
    """The symbol as an operator over vs = (t, x1..xn).  A node's symbol
    only differentiates its descendants, so its multiplier x_p commutes
    with its derivatives."""
    # per symbol variable: the position in vs that its D differentiates,
    # or the key step in vs of its multiplier x_p or t
    places = [(vs.index("x" + v[1:]), None) if v.startswith("D") else (None, _unit(len(vs), vs.index(v)))
              for v in symbol.vars]
    width, zero = len(symbol.vars), _pack((0,) * len(vs))
    form: dict = {}
    for part, terms in enumerate((symbol.form.re, symbol.form.im)):
        for key, a in terms.items():
            alpha, coeff = [], zero
            for (pos, unit), e in zip(places, _unpack(key, width)):
                if not e:
                    continue
                if pos is not None:
                    alpha.append((pos, e))
                else:
                    coeff += e * unit
            form.setdefault(tuple(sorted(alpha)), ({}, {}))[part][coeff] = a
    den = symbol.form.den
    return FormApplicator({a: _IntForm(re, im, den, len(vs)) for a, (re, im) in form.items()})


def _t_capped(q: _IntForm, tcap: int, j: int = 1) -> _IntForm:
    """The terms of q of t-degree at most tcap, divided by j: t leads the
    variable order, so those are the keys below ``_lead_floor`` of
    tcap + 1."""
    limit = _lead_floor(q.n, tcap + 1)
    return _reduced(
        {e: a for e, a in q.re.items() if e < limit},
        {e: a for e, a in q.im.items() if e < limit},
        q.den * j,
        q.n,
    )


def _apply_exp_symbol(symbol: FormApplicator, q: _IntForm, tcap: int) -> _IntForm:
    """Truncated exp(symbol) applied to the form q over the order the
    symbol's normal form is over; every symbol term carries at least one
    power of t, so the series stops after tcap rounds."""
    term = _t_capped(q, tcap)
    terms = [term]
    j = 1
    while True:
        term = _t_capped(symbol.apply_form(term), tcap, j)
        if not term:
            return _sum_forms(terms)
        terms.append(term)
        j += 1


@dataclass
class SplittingReport:
    tree: Tree
    degree_cap: int
    t_power_cap: int
    monomials_checked: int
    proof: bool  # degree_cap >= 2 * t_power_cap: the identity holds in every degree


def check_splitting(tree: Tree, degree_cap: int, t_power_cap: int) -> SplittingReport:
    """Exact comparison of exp(t d_T) with the nodewise exponential product.

    Both sides are expanded as series in t up to t_power_cap and applied to
    every monomial of total degree at most degree_cap, all at once: the
    j-th monomial carries j in one extra trailing exponent position (the
    tag), which no operator reads, so each side's image of the batch is
    the sum of its tagged images, and the two agree exactly when they agree
    on every monomial.  A mismatch raises VerificationError naming the
    monomial of the smallest tag in the difference and that tag's lowest
    t power.  A negative cap raises ValueError: it would check nothing, and
    a degree_cap with more monomials than a tag field holds raises
    ExponentRangeError.
    """
    if degree_cap < 0 or t_power_cap < 0:
        raise ValueError(f"the caps must be non-negative, got degree_cap={degree_cap}, "
                         f"t_power_cap={t_power_cap}")
    n = tree.nodes
    x_vars = tuple(f"x{i}" for i in range(1, n + 1))
    vs = ("t",) + x_vars + ("tag",)
    monomials = list(tuples_with_sum_at_most(n, degree_cap))
    try:
        batch = _tagged([_IntForm({_pack((0,) + exp): 1}, {}, 1, n + 1) for exp in monomials], 0)
    except ExponentRangeError as err:
        raise ExponentRangeError(f"degree_cap={degree_cap} is too large: {err}") from err
    form = differential_form(tricomi_operator(tree), vs)
    heat = FormApplicator({a: c.shifted(0, 1, 1) for a, c in form.items()})
    exponents = [_symbol_applicator(xi, vs) for xi in compute_splitting(tree).exponents]
    lhs = _apply_exp_symbol(heat, batch, t_power_cap)
    rhs = batch
    for xi in exponents:
        rhs = _apply_exp_symbol(xi, rhs, t_power_cap)
    if lhs != rhs:
        rows = _untagged(lhs - rhs)
        tag = min(min(tags) for tags in rows.values())
        tpow = min(_unpack(key, n + 1)[0] for key, tags in rows.items() if tag in tags)
        raise VerificationError(
            f"splitting mismatch on monomial {dict(zip(x_vars, monomials[tag]))} at t^{tpow}"
        )
    return SplittingReport(
        tree, degree_cap, t_power_cap, len(monomials), degree_cap >= 2 * t_power_cap
    )


def wave_numbers(mode, half_widths) -> list:
    """omega_j = 2*pi*k_j/a_j; ValueError where one leaves the float range."""
    try:
        omegas = [2 * math.pi * kv / a for kv, a in zip(mode, half_widths)]
        if all(map(math.isfinite, omegas)):
            return omegas
    except OverflowError:
        pass
    raise ValueError("mode wave numbers 2*pi*k/a leave the float range")


def evaluate_symbol(splitting: TricomiSplitting, mode, half_widths, t, x) -> complex:
    """Value of the total splitting exponent at D_j = 2*pi*i*k_j/a_j.

    `mode` lists the integer wave numbers, `half_widths` the box half sizes,
    `x` the spatial point.  Callers exponentiate the returned complex number.
    """
    n = splitting.tree.nodes
    if not all(a > 0 for a in half_widths):
        raise ValueError("half widths must be positive")
    values = {"t": complex(t)}
    omegas = wave_numbers(mode, half_widths)
    for j in range(n):
        values[f"D{j + 1}"] = complex(0.0, omegas[j])
        values[f"x{j + 1}"] = complex(x[j])
    total = 0j
    for xi in splitting.exponents:
        needed = {v: values[v] for v in xi.vars}
        total += xi.evaluate(needed)
    return total
