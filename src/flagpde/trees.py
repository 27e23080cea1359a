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
reads each xi_i as an operator (D_j as d/dx_j, the rest of each term as its
coefficient) and applies it, like t*d_T, through one
``operators.FormApplicator`` on integer forms over the variable order
(t, x1..xn), with the t-power cap applied as an exponent filter and each
1/j of the exponential series folded into the denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .operators import (
    Compose,
    Derivative,
    FormApplicator,
    MultiplyBy,
    Sum,
    VerificationError,
    differential_form,
)
from .poly import Polynomial, _IntForm, _reduced, _sum_forms, variable

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
    form: dict = {}
    for exp, c in symbol.terms.items():
        alpha, coeff = [], [0] * len(vs)
        for v, e in zip(symbol.vars, exp):
            if not e:
                continue
            if v.startswith("D"):
                alpha.append(("x" + v[1:], e))
            else:
                coeff[vs.index(v)] = e
        form.setdefault(tuple(sorted(alpha)), {})[tuple(coeff)] = c
    return FormApplicator({a: Polynomial(vs, terms) for a, terms in form.items()}, vs)


def _t_capped(q: _IntForm, tcap: int, j: int = 1) -> _IntForm:
    """The terms of q of t-degree at most tcap (t leads the variable order),
    divided by j."""
    return _reduced(
        {e: a for e, a in q.re.items() if e[0] <= tcap},
        {e: a for e, a in q.im.items() if e[0] <= tcap},
        q.den * j,
    )


def _apply_exp_symbol(symbol: FormApplicator, q: _IntForm, tcap: int) -> _IntForm:
    """Truncated exp(symbol) applied to the form q over symbol.vars; every
    symbol term carries at least one power of t, so the series stops after
    tcap rounds."""
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


def check_splitting(tree: Tree, degree_cap: int, t_power_cap: int) -> SplittingReport:
    """Exact comparison of exp(t d_T) with the nodewise exponential product.

    Both sides are expanded as series in t up to t_power_cap and applied to
    every monomial of total degree at most degree_cap.  The first mismatch
    raises VerificationError naming the monomial and t power.
    """
    from .combinatorics import tuples_with_sum_at_most

    n = tree.nodes
    x_vars = tuple(f"x{i}" for i in range(1, n + 1))
    vs = ("t",) + x_vars
    t = variable("t")
    t_d_t = {alpha: t * c for alpha, c in differential_form(tricomi_operator(tree)).items()}
    heat = FormApplicator(t_d_t, vs)
    exponents = [_symbol_applicator(xi, vs) for xi in compute_splitting(tree).exponents]
    checked = 0
    for exp in tuples_with_sum_at_most(n, degree_cap):
        mono = _IntForm({(0,) + exp: 1}, {}, 1)
        lhs = _apply_exp_symbol(heat, mono, t_power_cap)
        rhs = mono
        for xi in exponents:
            rhs = _apply_exp_symbol(xi, rhs, t_power_cap)
        if lhs != rhs:
            diff = lhs - rhs
            tpow = min(e[0] for e in itertools.chain(diff.re, diff.im))
            raise VerificationError(
                f"splitting mismatch on monomial {dict(zip(x_vars, exp))} at t^{tpow}"
            )
        checked += 1
    return SplittingReport(tree, degree_cap, t_power_cap, checked)


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
