"""The four workloads, built as blocks of operations from the run's seed.

A block is a fixed mix of operation slots.  Each slot fixes what sets an
operation's cost (the family shape and cap, the wave number band, the tree
size, an ODE's coefficients and t), and the seed draws everything else
inside the slot's range: coefficient signs, amplitudes, initial values,
parameters, evaluation points and the order of the block.  Every seed therefore does the same amount of work per block, which
keeps figures from different seeds comparable, while the union of the slots
covers the ranges the workloads are meant to draw from.  Known-defect
inputs sit in slots of their own, so each block holds the same number of
them; their operations are run and counted like any other.

Each operation carries a label (its input, as a user would state it), the
call that is timed, and a check against an independent reference that runs
outside the timed window.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import flagpde as fp
from flagpde import cli as fp_cli
from flagpde import lie
from flagpde import linalg
from flagpde.poly import Polynomial

from . import reference as ref

# ROADMAP items behind the known-defect slots
DEFECT_ODE = "ROADMAP 2: Y-series cancels for large arguments"
DEFECT_FLAG = "ROADMAP 2: flag IVP modes k >= 4 reaching x1 = 1"
DEFECT_TREE_WAVE = "ROADMAP 3: ivp tree-wave does not solve u_tt = d_T u"
DEFECT_UNVERIFIED = "ROADMAP 4/5: family above the 200-element cutoff reported verified unchecked"

SMALL = (-3, -2, -1, 1, 2, 3)

# Flag equation shapes: orders, then for coefficient i the exponents (over
# x1..xi) of its monomials, then the cap used by the families workload.  They
# were drawn from n in {3, 4}, orders 1-3 and one or two monomials of degree
# <= 2 per coefficient, and kept where one family takes 0.05-0.3 s.
FLAG_SHAPES = (
    ((2, 2, 1), ([(2,)], [(1, 1), (0, 1)]), 5),
    ((3, 1, 3), ([(1,)], [(1, 0), (0, 2)]), 6),
    ((2, 2, 1, 1), ([(2,), (1,)], [(0, 2)], [(0, 2, 0), (0, 1, 1)]), 3),
    ((2, 1, 1, 2), ([(2,), (1,)], [(2, 0)], [(1, 0, 1)]), 4),
    ((3, 2, 2, 1), ([(1,)], [(2, 0), (0, 2)], [(0, 1, 0), (0, 0, 1)]), 4),
    ((2, 3, 1), ([(0,)], [(1, 0), (0, 1)]), 6),
    ((3, 3, 1), ([(1,)], [(0, 1)]), 6),
    ((3, 1, 2, 1), ([(1,), (0,)], [(1, 0), (0, 0)], [(0, 2, 0)]), 3),
    ((2, 1, 1), ([(2,), (0,)], [(0, 2)]), 4),
    ((2, 2, 2, 2), ([(1,), (0,)], [(0, 1), (1, 0)], [(0, 0, 1), (0, 1, 0)]), 5),
)

GENERIC_LAMBDAS = tuple(Fraction(v) for v in ("1", "2", "3", "1/2", "3/2", "5/2", "7/3", "-1/2", "-3/2", "-5/3"))
EVEN_LAMBDAS = (Fraction(-2), Fraction(-4), Fraction(-6))
ODD_LAMBDAS = (Fraction(-1), Fraction(-3), Fraction(-5))
CONSTANT_ORDERS = {  # orders 1-3, turned through block by block
    3: ((3, 2, 1), (2, 2, 2), (1, 3, 2), (2, 1, 3), (3, 3, 1), (1, 2, 2), (2, 3, 3)),
    4: ((2, 2, 2, 2), (3, 1, 2, 1), (1, 1, 1, 1), (2, 3, 1, 2), (1, 2, 3, 3), (3, 2, 2, 1), (2, 1, 1, 3)),
}
ODE_MAGNITUDES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
ODE_T_FRACTIONS = (0.1, 0.5, 0.9, 0.3, 0.7)
KG_FREQUENCIES = tuple(Fraction(v) for v in ("1/3", "1/2", "2/3", "1", "3/2", "2", "5/2"))


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    defect: str = ""


def turn(seq, index):
    """The entry of seq for a block index: cost-setting choices turn with the
    block, never with the seed."""
    seq = tuple(seq)
    return seq[index % len(seq)]


def compositions(total, parts):
    """Tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        return [(total,)]
    return [(i,) + rest for i in range(total + 1) for rest in compositions(total - i, parts - 1)]


def xvars(n, first=1):
    return tuple(f"x{i}" for i in range(first, first + n))


def pick(rng, seq):
    return seq[rng.randrange(len(seq))]


# -- equations in the reference arithmetic -----------------------------------------

def constant_equation(orders):
    return [(Fraction(1), ((i, m),)) for i, m in enumerate(orders)]


def flag_equation(orders, coeffs, vs):
    eq = [(Fraction(1), ((0, orders[0]),))]
    for i, c in enumerate(coeffs, start=1):
        eq.append((ref.from_poly(c, vs)[0], ((i, orders[i]),)))
    return eq


def laplace_equation(indices):
    return [(Fraction(1), ((i, 2),)) for i in indices]


def dissipative_equation(n):
    # vs = (t, x1..xn): u_tt + u_t - Lap u
    return [(Fraction(1), ((0, 2),)), (Fraction(1), ((0, 1),))] + [
        (Fraction(-1), ((i, 2),)) for i in range(1, n + 1)
    ]


def anisym_equation(n, lam, eps):
    # vs = (t, x1..xn): t u_tt + lam u_t - eps t Lap u
    t = {(1,) + (0,) * n: Fraction(1)}
    mt = {(1,) + (0,) * n: Fraction(-eps)}
    return [(t, ((0, 2),)), (Fraction(lam), ((0, 1),))] + [(mt, ((i, 2),)) for i in range(1, n + 1)]


def anisym_count(n, lam, cap):
    kind = fp.classify_lambda(lam)
    full = ref.n_monomials_at_most(n, cap)
    if kind == "generic":
        return full
    if kind == "negative_even":
        return 2 * full
    k = (-int(lam) - 1) // 2
    return (2 * k + 2) * ref.n_monomials_at_most(n - 1, cap) + full


def contraction_equation(n):
    # vs = (x1..xn, y1..yn)
    return [(Fraction(1), ((i, 1), (n + i, 1))) for i in range(n)]


def g2_equation():
    eq = [(Fraction(1), ((0, 2),))]
    for a, b in ((1, 4), (2, 5), (3, 6)):
        eq.append((Fraction(2), ((a, 1), (b, 1))))
    return eq


def reversed_priority(n, offset=0, then=()):
    return tuple(range(offset + n - 1, offset - 1, -1)) + tuple(then)


# -- seeded inputs shared by several workloads ----------------------------------------

def flag_spec(rng, index, orders, supports):
    """Coefficient magnitudes 1-3 turn with the block index (they move the
    cost by up to a tenth); the seed draws the signs."""
    vs = xvars(len(orders))
    coeffs, position = [], index
    for i, sup in enumerate(supports, start=1):
        terms = {}
        for e in sup:
            position += 1
            terms[e] = pick(rng, (-1, 1)) * (1 + position % 3)
        coeffs.append(Polynomial(vs[:i], terms))
    return fp.FlagEquationSpec(orders, tuple(coeffs))


def flag_label(spec, cap):
    coeffs = "; ".join(str(c) for c in spec.coefficients)
    return f"orders={spec.orders} coeffs=[{coeffs}] cap={cap}"


def flag_family_check(spec, cap):
    orders = spec.orders
    n = len(orders)
    vs = xvars(n)
    eq = flag_equation(orders, spec.coefficients, vs)
    count = orders[0] * ref.n_monomials_at_most(n - 1, cap)
    return lambda fam: ref.check_family(fam, eq, vs, count, reversed_priority(n))


def constant_cap(orders, budget):
    """Largest cap whose family stays within `budget` polynomial terms in total.

    The element of index l has prod_(i >= 2) (l_i // m_i + 1) terms, so the
    family size follows from the orders alone; this keeps the cost of the
    slot steady whatever orders the seed draws.
    """
    from flagpde.combinatorics import tuples_with_sum

    total, cap = 0, -1
    while True:
        level = sum(
            math.prod(l // m + 1 for l, m in zip(rest, orders[1:]))
            for rest in tuples_with_sum(len(orders) - 1, cap + 1)
        )
        if total + orders[0] * level > budget:
            return max(cap, 1)
        total += orders[0] * level
        cap += 1


def ode_case(rng, slot, index=0):
    """(coeffs, init, t, defect) for one ODE slot; |b| <= 100 and t <= 5 overall.

    The cost of an evaluation is set by the arguments b_p t^(p+1) (the
    series doubles its cap until it settles) and by which initial values are
    nonzero, so the coefficients and t turn with the block index; the seed
    draws the initial values, all nonzero.
    """
    def signed(magnitudes, step):
        return tuple(-m if (step >> p) & 1 else m for p, m in enumerate(magnitudes))

    def init(order):
        return tuple(Fraction(pick(rng, SMALL)) for _ in range(order))

    if slot == "canonical":
        return (Fraction(0), Fraction(-100)), (Fraction(1), Fraction(0)), 5.0, DEFECT_ODE
    if slot == "large":
        # omega * t >= 30 is past the Y-series' float range; b2 * t^2 <= 1500
        # keeps the cost of the slot steady (the canonical slot has 2500)
        b2 = turn(range(64, 101, 4), index)
        lo, hi = 30.0 / math.sqrt(b2), math.sqrt(1500 / b2)
        t = round(lo + (hi - lo) * turn(ODE_T_FRACTIONS, index), 3)
        return (Fraction(0), Fraction(-b2)), init(2), t, DEFECT_ODE
    kind, variant = slot.split("-", 1)
    if kind == "order2":
        # "order2-<third>-<w>": t in the given third of [0.8, 5] and omega * t = w <= 8,
        # below the Y-series' float range
        third, w = (int(v) for v in variant.split("-"))
        lo = 0.8 + (5 - 0.8) * third / 3
        t = round(lo + (5 - 0.8) / 3 * turn(ODE_T_FRACTIONS, index + w), 3)
        b2 = -max(1, round((w / t) ** 2))
        return signed((Fraction(1, 4),), index + w) + (Fraction(b2),), init(2), t, ""
    step = index + int(variant)
    if kind == "order3":
        t = turn((0.3, 0.45, 0.6, 0.75, 0.9, 1.0), step)
        return signed([turn(ODE_MAGNITUDES, step + p) for p in range(3)], step), init(3), t, ""
    # order 4: small |b_p t^p|, where the four-argument series settles at a low cap
    t = turn((0.1, 0.15, 0.2, 0.25), step)
    return signed([turn(ODE_MAGNITUDES, step + p) for p in range(4)], step), init(4), t, ""


def ode_label(coeffs, init, t):
    return f"--coeffs {','.join(str(b) for b in coeffs)} --init {','.join(str(c) for c in init)} --t {t:g}"


def flag_ivp_case(rng, kind, ks, velocity, grid):
    """Symbols, traces and grid for the 1-D flag IVP (x2 has half width 1).

    kind is heat (u_x1 = u_x2x2), dalembert (u_x1x1 = u_x2x2) or kg
    (u_x1x1 = u_x2x2 - mu^2 u); ks are the wave numbers present and
    velocity says whether du/dx1 at x1 = 0 is nonzero.  These set the cost,
    so callers fix them; the seed draws the amplitudes and mu.
    """
    d2 = fp.variable("D2")
    mu = Fraction(rng.randint(1, 4), 2) if kind == "kg" else Fraction(0)
    if kind == "heat":
        symbols = [d2 * d2]
    else:
        symbols = [Polynomial.zero(("D2",)), d2 * d2 - mu * mu]
    traces = []
    for _ in symbols:
        traces.append({k: (pick(rng, (-1, 1)) * round(rng.uniform(0.5, 1.0), 3), round(rng.uniform(-1.0, 1.0), 3))
                       for k in ks})
    if len(traces) > 1 and not velocity:
        traces[1] = {}
    n1, n2 = grid
    points = [(i / (n1 - 1), -1.0 + 2.0 * j / (n2 - 1)) for i in range(n1) for j in range(n2)]
    return symbols, traces, float(mu), points


def tree_text(tree):
    return f"{tree.nodes} nodes {sorted(tree.edges)}"


# -- the workloads ----------------------------------------------------------------------

class Workload:
    name = ""
    block_seconds = 1.0  # one block's timed seconds at the seed commit (2-core x86-64, Python 3.11)

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self.count = 0  # names the files a run writes

    def rng(self, index):
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def block(self, index: int, tiny: bool = False) -> list:
        """The operations of block `index`; tiny=True gives the warm-up deck,
        every operation kind once at a small size, from fixed inputs."""
        rng = random.Random(f"{self.name}:warm-up") if tiny else self.rng(index)
        ops = self.slots(rng, index, tiny)
        rng.shuffle(ops)
        return ops

    def slots(self, rng, index, tiny) -> list:
        raise NotImplementedError


class Families(Workload):
    """Exact generation: poly products and NestedRightInverse do the work."""

    name = "families"
    block_seconds = 2.4

    def slots(self, rng, index, tiny):
        ops = []
        for orders, supports, cap in FLAG_SHAPES[: 2 if tiny else len(FLAG_SHAPES)]:
            spec = flag_spec(rng, index, orders, supports)
            cap = 1 if tiny else cap
            ops.append(Op(f"flag_basis {flag_label(spec, cap)}",
                          lambda spec=spec, cap=cap: fp.flag_basis(spec, cap),
                          flag_family_check(spec, cap)))
        for n, budget in ((3, 1400), (4, 1400)):
            orders = turn(CONSTANT_ORDERS[n], index)
            cap = 1 if tiny else constant_cap(orders, budget)
            vs = xvars(n)
            count = orders[0] * ref.n_monomials_at_most(n - 1, cap)
            eq = constant_equation(orders)
            ops.append(Op(f"constant_coefficient_basis orders={orders} cap={cap}",
                          lambda o=orders, c=cap: fp.constant_coefficient_basis(o, c),
                          lambda fam, eq=eq, vs=vs, count=count, n=n:
                              ref.check_family(fam, eq, vs, count, reversed_priority(n))))
        for n, caps in ((3, (12, 13)), (4, (8, 9))):
            cap = 2 if tiny else turn(caps, index)
            vs = xvars(n)
            count = ref.n_monomials_at_most(n - 1, cap) + ref.n_monomials_at_most(n - 1, cap - 1)
            eq = laplace_equation(range(n))
            ops.append(Op(f"harmonic_basis n={n} cap={cap}",
                          lambda n=n, c=cap: fp.harmonic_basis(n, c),
                          lambda fam, eq=eq, vs=vs, count=count, n=n:
                              ref.check_family(fam, eq, vs, count, reversed_priority(n))))
        for n, caps in ((2, (11, 12)), (3, (7, 8))):
            cap = 2 if tiny else turn(caps, index + 1)
            vs = ("t",) + xvars(n)
            count = ref.n_monomials_at_most(n, cap)
            eq = dissipative_equation(n)
            ops.append(Op(f"dissipative_wave_basis n={n} cap={cap}",
                          lambda n=n, c=cap: fp.dissipative_wave_basis(n, c),
                          lambda fam, eq=eq, vs=vs, count=count, n=n:
                              ref.check_family(fam, eq, vs, count, reversed_priority(n, 1, (0,)))))
        for lambdas, cap in ((GENERIC_LAMBDAS, 8), (EVEN_LAMBDAS, 6), (ODD_LAMBDAS, 6)):
            n, lam, eps = 2, turn(lambdas, index), pick(rng, (1, -1))
            cap = 2 if tiny else cap
            ops.append(self.anisym_op(n, lam, eps, cap))
        for degree in ((3, 4) if tiny else (8, 9)):
            a = pick(rng, KG_FREQUENCIES)
            mono = turn([m for m in compositions(degree, 3)], index * 7)
            ops.append(Op(f"klein_gordon_solutions a={a} monomial={mono}",
                          lambda a=a, mono=mono: fp.klein_gordon_solutions(a, mono),
                          lambda sols, a=a: self.check_kg(a, sols)))
        for m, degree in ((2, 4 if tiny else 14), (3, 4 if tiny else 10)):
            ops.append(self.power_perturbation_op(rng, index, m, degree))
        return ops

    @staticmethod
    def anisym_op(n, lam, eps, cap):
        vs = ("t",) + xvars(n)
        eq = anisym_equation(n, lam, eps)
        count = anisym_count(n, lam, cap)
        return Op(f"anisymmetric_basis n={n} lambda={lam} epsilon={eps} cap={cap}",
                  lambda: fp.anisymmetric_basis(n, lam, eps, cap),
                  lambda fam: ref.check_family(fam, eq, vs, count, reversed_priority(n, 1, (0,))))

    @staticmethod
    def check_kg(a, sols):
        vs = ("t", "x", "y", "z")
        if len(sols) != 2:
            return f"{len(sols)} solutions, expected 2"
        pairs = []
        for s in sols:
            (p, pim), (q, qim) = ref.from_poly(s.cos_part, vs), ref.from_poly(s.sin_part, vs)
            if pim or qim or s.frequency != a:
                return "solution parts are not real or frequency differs"
            pairs.append((p, q))
        return ref.check_kg_pair(a, pairs, vs)

    @staticmethod
    def power_perturbation_op(rng, index, m, degree):
        """u with T0^m u = sum_p T0^(m-p) T_p u for T0 = d/dt and constant T_p in x, y.

        The derivative orders of the T_p and the monomials of g turn with the
        block index; the seed draws their coefficients.
        """
        vs = ("t", "x", "y")
        orders = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        perturbations, parts = [], []
        for p in range(m):
            terms = []
            for j in range(2):
                a, b = turn(orders, index + 2 * p + 3 * j)
                terms.append((Fraction(pick(rng, SMALL)), a, b))
            parts.append(terms)
            ops_ = [fp.Compose(fp.Scale(c), *[fp.Derivative(v, k) for v, k in (("x", a), ("y", b)) if k])
                    for c, a, b in terms]
            perturbations.append(fp.Sum(ops_))
        t, x, y = (fp.variable(v) for v in vs)
        g = Polynomial.zero(("x", "y"))
        for j in range(3):
            i = (index + 5 * j) % (degree + 1)
            g = g + pick(rng, SMALL) * x**i * y ** (degree - i)
        h = t ** (index % m)
        eq = [(Fraction(1), ((0, m),))]
        for p, terms in enumerate(parts, start=1):
            for c, a, b in terms:
                eq.append((-c, tuple(o for o in ((0, m - p), (1, a), (2, b)) if o[1])))
        text = "; ".join(" + ".join(f"{c}*dx^{a}dy^{b}" for c, a, b in terms) for terms in parts)

        def check(u):
            re, im = ref.from_poly(u, vs)
            if not re or im:
                return "solution is zero or not real"
            return None if ref.annihilated(eq, (re,)) else "residual of T0^m - sum T0^(m-p) T_p is not zero"

        return Op(f"power_perturbation_solve m={m} T=[{text}] h={h} g={g}",
                  lambda: fp.power_perturbation_solve(fp.Derivative("t"), fp.Integrate("t"),
                                                      perturbations, m, h, g),
                  check)


class Certify(Workload):
    """Exact checking of objects built with the block: linalg over Fraction dominates."""

    name = "certify"
    block_seconds = 2.3

    def slots(self, rng, index, tiny):
        ops = []
        # independence of families built here, outside the timed call
        for k in (0, 5):
            orders, supports, _ = FLAG_SHAPES[k]
            spec = flag_spec(rng, index, orders, supports)
            cap = 1 if tiny else 5
            ops.append(self.independence_op(f"flag_basis {flag_label(spec, cap)}",
                                             fp.flag_basis(spec, cap), reversed_priority(len(orders))))
        n, cap = 4, (2 if tiny else turn((5, 6), index))
        ops.append(self.independence_op(f"harmonic_basis n={n} cap={cap}", fp.harmonic_basis(n, cap),
                                        reversed_priority(n)))
        lam, cap = turn(GENERIC_LAMBDAS + EVEN_LAMBDAS, index), (2 if tiny else 7)
        ops.append(self.independence_op(f"anisymmetric_basis n=2 lambda={lam} epsilon=1 cap={cap}",
                                        fp.anisymmetric_basis(2, lam, 1, cap), reversed_priority(2, 1, (0,))))
        # kernels on graded slices against their closed-form dimensions
        d = 3 if tiny else turn((9, 10), index)
        ops.append(self.kernel_op(f"Laplacian n=3 degree {d}", xvars(3), laplace_equation(range(3)),
                                  fp.Sum(fp.Derivative(v, 2) for v in xvars(3)),
                                  linalg.monomials_of_degree(xvars(3), d), ref.harmonic_dim(3, d)))
        d = 2 if tiny else turn((5, 6), index + 1)
        ops.append(self.kernel_op(f"Laplacian n=4 degree {d}", xvars(4), laplace_equation(range(4)),
                                  fp.Sum(fp.Derivative(v, 2) for v in xvars(4)),
                                  linalg.monomials_of_degree(xvars(4), d), ref.harmonic_dim(4, d)))
        d = 3 if tiny else turn((10, 9), index)
        wave_vs = ("t", "x", "y")
        wave = fp.Sum((fp.Derivative("t", 2), fp.Compose(fp.Scale(Fraction(-1)), fp.Derivative("x", 2)),
                       fp.Compose(fp.Scale(Fraction(-1)), fp.Derivative("y", 2))))
        wave_eq = [(Fraction(1), ((0, 2),)), (Fraction(-1), ((1, 2),)), (Fraction(-1), ((2, 2),))]
        ops.append(self.kernel_op(f"wave operator (t,x,y) degree {d}", wave_vs, wave_eq, wave,
                                  linalg.monomials_of_degree(wave_vs, d), ref.harmonic_dim(3, d)))
        n = 3
        l1, l2 = (1, 1) if tiny else turn(((2, 2), (2, 3), (3, 2), (3, 3)), index)
        cvs = xvars(n) + tuple(f"y{i}" for i in range(1, n + 1))
        ops.append(self.kernel_op(f"contraction n={n} bidegree ({l1},{l2})", cvs, contraction_equation(n),
                                  lie.sl_laplacian(n),
                                  linalg.bidegree_monomials(xvars(n), cvs[n:], l1, l2),
                                  ref.contraction_free_dim(n, l1, l2)))
        # exactness of the nodewise splitting
        for n, caps in ((3, (4, 4)), (4, (3, 3)), (5, (3, 3))):
            tree = turn(fp.trees.all_trees(2 if tiny else n), 7 * index + n)
            cap, tcap = (2, 2) if tiny else caps
            want = ref.n_monomials_at_most(tree.nodes, cap)
            ops.append(Op(f"check_splitting tree {tree_text(tree)} cap={cap} tcap={tcap}",
                          lambda tree=tree, cap=cap, tcap=tcap: fp.check_splitting(tree, cap, tcap),
                          lambda rep, want=want: None if rep.monomials_checked == want
                          else f"{rep.monomials_checked} monomials checked, closed form {want}"))
        if not tiny:
            n_sl = 2 + index % 2
            ops.append(Op(f"commutation_checks n_sl={n_sl} max_degree=2",
                          lambda n_sl=n_sl: fp.commutation_checks(n_sl, 2), self.check_commutation))
        # singular vectors: many small operations on single monomials
        for rep in range(1 if tiny else 2):
            k = turn(range(3, 11), index + 3 * rep)
            ops.append(self.singular_op("so3", lie.so_singular_config(3), lie.so_highest_harmonic(3, k), [k]))
            k = turn(range(2, 7), index + 2 * rep)
            ops.append(self.singular_op("so4", lie.so_singular_config(4), lie.so_highest_harmonic(4, k), [k, 0]))
            k = turn(range(1, 5), index + rep)
            ops.append(self.singular_op("g2", lie.g2_singular_config(), fp.variable("x4") ** k, [k, 0]))
            n, l1, l2 = turn([(n, a, b) for n in (2, 3) for a in (1, 2, 3) for b in (1, 2, 3)], 5 * index + rep)
            positives = [(f"E{i}{j}", lie.sl_generator(n, i, j))
                         for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            config = lie.SingularConfig(positives, [(f"h{i}", h) for i, h in enumerate(lie.sl_cartan(n), 1)])
            top = fp.variable("x1") ** l1 * fp.variable(f"y{n}") ** l2
            weight = [l1 + l2] if n == 2 else [l1] + [0] * (n - 3) + [l2]
            ops.append(self.singular_op(f"sl{n} l1={l1} l2={l2}", config, top, weight, f"x1^{l1} y{n}^{l2}"))
        return ops

    @staticmethod
    def independence_op(label, family, priority):
        vs = tuple(dict.fromkeys(v for e in family.elements for v in e.solution.vars))
        parts = [ref.from_poly(e.solution, vs) for e in family.elements]
        expected = ref.leading_distinct(parts, priority)

        def check(result):
            if not expected:
                return "reference: leading monomials not distinct"
            return None if result is True else f"returned {result!r}"

        return Op(f"verify_independence {label} ({len(family)} elements)",
                  family.verify_independence, check)

    @staticmethod
    def kernel_op(label, vs, eq, op, slice_, dim):
        def check(kernel):
            if len(kernel) != dim:
                return f"kernel dimension {len(kernel)}, closed form {dim}"
            parts = [ref.from_poly(p, vs) for p in kernel]
            if not all(ref.annihilated(eq, pq) for pq in parts):
                return "kernel element not annihilated"
            return None if ref.independent_mod_p(parts) else "kernel elements dependent"

        return Op(f"kernel_on_slice {label}", lambda: linalg.kernel_on_slice(op, slice_), check)

    @staticmethod
    def check_commutation(report):
        bad = [k for k, v in report.items() if v is False]
        if bad:
            return f"identities failed: {bad}"
        if report.get("laplacian reading") != 1:
            return f"laplacian reading {report.get('laplacian reading')}, expected 1"
        return None

    @staticmethod
    def singular_op(name, config, f, weight, text=None):
        def check(res):
            if not res.ok:
                return f"not singular: {[n for n, _ in res.failures]}"
            return None if list(res.weight) == weight else f"weight {res.weight}, closed form {weight}"

        return Op(f"verify_singular {name} f={text or f}", lambda: fp.verify_singular(config, f), check)


class Numeric(Workload):
    """The float evaluators: ivp does the work, the exact layers almost none."""

    name = "numeric"
    block_seconds = 4.8

    def slots(self, rng, index, tiny):
        ops = []
        for kind, ks, velocity, grid, defect in self.flag_slots(index)[:: 4 if tiny else 1]:
            if tiny and defect:
                continue
            ops.append(self.flag_op(rng, kind, ks, velocity, grid, defect))
        for slot in self.ode_slots(index)[:: 4 if tiny else 1]:
            coeffs, init, t, defect = ode_case(rng, slot, index)
            if tiny and defect:
                continue
            ops.append(Op(f"solve_constant_ode {ode_label(coeffs, init, t)}",
                          lambda c=coeffs, i=init, t=t: fp.solve_constant_ode(fp.OdeProblem(c, i), t),
                          lambda v, c=coeffs, i=init, t=t: ref.check_ode(v, c, i, t), defect))
        for tree, mode, velocity in self.tree_slots(tiny):
            ops.append(self.tree_op(rng, tree, mode, velocity))
        return ops

    # What sets an operation's cost turns with the block index, never with
    # the seed, so every seed runs the same costs in the same blocks.

    @staticmethod
    def flag_slots(index):
        """(kind, wave numbers, velocity data, grid, defect): wave numbers 1-8.

        Grids reach x1 = 1, where the float Y-series keeps 1e-9 up to k = 3
        for d'Alembert and k = 2 for Klein-Gordon (mu shifts the frequency up).
        """
        low, high = 1 + index % 3, 4 + index % 5
        return (
            ("heat", (1 + index % 4,), False, (3, 3), ""),
            ("heat", (5 + index % 4, 2), False, (3, 3), ""),
            ("heat", (8, 3), False, (4, 3), ""),
            ("dalembert", (low,), True, (3, 2), ""),
            ("dalembert", (4 - low,), False, (3, 2), ""),
            ("dalembert", (2, 1), False, (3, 2), ""),
            ("kg", (1 + index % 2,), False, (3, 2), ""),
            ("kg", (2 - index % 2,), True, (3, 2), ""),
            ("kg", (1, 2), False, (3, 2), ""),
            ("dalembert", (high,), False, (2, 2), DEFECT_FLAG),
            ("kg", (5,), True, (2, 2), DEFECT_FLAG),
        )

    @staticmethod
    def ode_slots(index):
        """Orders 2-4, |b| <= 100, t <= 5; order 2 turns omega * t through 1-8."""
        order2 = tuple(f"order2-{s % 3}-{1 + (s + index) % 8}" for s in range(9))
        return order2 + ("order3-0", "order3-1", "order4-0", "large", "canonical")

    @staticmethod
    def tree_slots(tiny):
        """(tree, mode, velocity data) on trees with at most three nodes.

        Carrier growth, and so cost, depends on the tree and on which wave
        numbers are nonzero, so both are fixed per slot; chain3 on mode
        (1, 1, 1) builds 121 carriers of up to 7,381 terms.
        """
        one, two = fp.Tree(1, []), fp.Tree(2, [(1, 2)])
        if tiny:
            return [(one, (2,), True), (two, (1, 1), False)]
        star, chain = fp.Tree(3, [(1, 2), (1, 3)]), fp.Tree(3, [(1, 2), (2, 3)])
        return ([(one, (k,), k % 2 == 1) for k in (1, 2, 3, 3)]
                + [(two, mode, velocity) for mode in ((1, 1), (2, 1)) for velocity in (True, False)]
                + [(star, (1, 1, 1), False)] * 3 + [(chain, (1, 1, 1), False)])

    @staticmethod
    def flag_op(rng, kind, ks, velocity, grid, defect):
        symbols, traces, mu, points = flag_ivp_case(rng, kind, ks, velocity, grid)
        data = [fp.TrigData((1.0,), {(k,): cs for k, cs in tr.items()}) for tr in traces]
        label = (f"solve_flag_ivp {kind}{f' mu={mu:g}' if mu else ''} "
                 f"modes={[{k: tuple(round(v, 3) for v in cs) for k, cs in tr.items()} for tr in traces]} "
                 f"grid={grid[0]}x{grid[1]}")
        return Op(label, lambda: fp.solve_flag_ivp(symbols, data, points),
                  lambda sol: ref.check_flag_values(kind, mu, 1.0, traces, points, sol.values), defect)

    @staticmethod
    def tree_op(rng, tree, mode, velocity):
        n = tree.nodes
        hw = (1.0,) * n
        g0 = {mode: (round(rng.uniform(0.5, 1.0), 3), 0.0)}
        g1 = {mode: (round(rng.uniform(-0.5, 0.5), 3), 0.0)} if velocity else {}
        t = round(rng.uniform(0.02, 0.2), 3)
        points = [tuple(round(rng.uniform(-0.5, 0.5), 3) for _ in range(n)) for _ in range(2)]

        def check(sol):
            for pt, v in zip(points, sol.values):
                if v != sol.at(t, pt):
                    return "returned values differ from the solution's own evaluation"
            return ref.check_tree_wave(sol.at, n, sorted(tree.edges), hw, g0, g1, t, points[0])

        return Op(f"solve_tree_wave_series tree {tree_text(tree)} g0={g0} g1={g1} t={t}",
                  lambda: fp.solve_tree_wave_series(tree, fp.TrigData(hw, g0), fp.TrigData(hw, g1), t, points),
                  check)


class Cli(Workload):
    """Whole commands through flagpde.cli.main with --out into a scratch directory."""

    name = "cli"
    block_seconds = 2.6

    def slots(self, rng, index, tiny):
        ops = []
        for k in (index % len(FLAG_SHAPES), (index + 5) % len(FLAG_SHAPES)):
            orders, supports, cap = FLAG_SHAPES[k]
            spec = flag_spec(rng, index, orders, supports)
            cap = 1 if tiny else max(1, cap - 2)
            self.count += 1
            path = self.write(f"spec-{self.count}.json", {
                "orders": list(orders),
                "coefficients": [c.to_json_terms() for c in spec.coefficients],
            })
            n = len(orders)
            eq = flag_equation(orders, spec.coefficients, xvars(n))
            count = orders[0] * ref.n_monomials_at_most(n - 1, cap)
            ops.append(self.family_op(["basis", "flag", "--spec", path, "--cap", str(cap)],
                                      xvars(n), eq, count, reversed_priority(n), label=flag_label(spec, cap)))
        for rep in range(1 if tiny else 2):
            step = 2 * index + rep
            n, cap = 3, (2 if tiny else turn((5, 6), step))
            ops.append(self.harmonic_op(n, cap))
            n, cap = 2, (2 if tiny else turn((6, 7), step + 1))
            ops.append(self.family_op(["basis", "dissipative", "--n", str(n), "--cap", str(cap)],
                                      ("t",) + xvars(n), dissipative_equation(n), ref.n_monomials_at_most(n, cap),
                                      reversed_priority(n, 1, (0,))))
            lam, eps = turn(GENERIC_LAMBDAS + EVEN_LAMBDAS + ODD_LAMBDAS, step), pick(rng, (1, -1))
            n, cap = 2, (2 if tiny else 4)
            ops.append(self.family_op(["basis", "anisym", f"--lambda={lam}", "--epsilon", str(eps), "--n", str(n),
                                       "--cap", str(cap)], ("t",) + xvars(n), anisym_equation(n, lam, eps),
                                      anisym_count(n, lam, cap), reversed_priority(n, 1, (0,))))
            ops.append(self.kg_op(pick(rng, KG_FREQUENCIES), turn(compositions(2 if tiny else 6, 3), 5 * step)))
            tree = turn(fp.trees.all_trees(2) if tiny else fp.trees.all_trees(3) + fp.trees.all_trees(4), step)
            ops.append(self.splitting_op(tree, 2 if tiny else 3, 2 if tiny else 3))
            ops.append(self.sl_op(*((2, 1, 1) if tiny else turn(
                [(n, a, b) for n in (2, 3) for a in (1, 2) for b in (1, 2)], step))))
            n, k = (3, 2) if tiny else turn([(n, k) for n in (3, 4) for k in (4, 5, 6)], step)
            ops.append(self.module_op(["lie", "harmonic", "--n", str(n), "--k", str(k)], xvars(n),
                                      laplace_equation(range(n)), ref.harmonic_dim(n, k)))
        k = 1 if tiny else turn((2, 3), index)
        ops.append(self.module_op(["lie", "g2", "--k", str(k)], tuple(f"x{i}" for i in range(1, 8)), g2_equation(),
                                  ref.harmonic_dim(7, k), singular=[k, 0]))
        if not tiny:
            # above the 200-element cutoff the CLI skips the independence check
            ops.append(self.harmonic_op(*((4, 9), (3, 10))[index % 2], defect=DEFECT_UNVERIFIED))
        low = 1 + index % 3
        for kind, ks, velocity, grid, defect in (
                ("dalembert", (low,), True, (3, 2), ""), ("kg", (1 + index % 2,), False, (3, 2), ""),
                ("heat", (1 + index % 8,), False, (3, 3), ""),
                ("dalembert", (4 + index % 3,), False, (2, 2), DEFECT_FLAG)):
            if tiny and defect:
                continue
            ops.append(self.ivp_flag_op(rng, kind, ks, velocity, grid, defect))
        ops.append(self.tree_wave_op(rng, fp.Tree(1, []) if tiny or index % 2 else fp.Tree(2, [(1, 2)])))
        if not tiny:
            ops.append(self.tree_wave_op(rng, fp.Tree(3, [(1, 2), (2, 3)])))
        order2 = tuple(f"order2-{s}-{1 + (3 * s + index) % 8}" for s in range(3))
        for slot in order2 + ("order3-0", "canonical"):
            coeffs, init, t, defect = ode_case(rng, slot, index)
            if tiny and defect:
                continue
            ops.append(self.ode_op(coeffs, init, t, defect))
        return ops

    # -- plumbing ------------------------------------------------------------------

    def write(self, name, data):
        path = os.path.join(self.tmpdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def command(self, argv, check, defect="", label=None):
        self.count += 1
        out = os.path.join(self.tmpdir, f"out-{self.count}.json")
        argv = argv + ["--out", out]
        shown = " ".join(a if not a.startswith(self.tmpdir) else os.path.basename(a) for a in argv[:-2])

        def run():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return fp_cli.main(argv)

        def checked(code):
            try:
                if code != 0:
                    return f"exit code {code}"
                with open(out) as fh:
                    return check(json.load(fh)["result"])
            finally:
                if os.path.exists(out):
                    os.remove(out)

        return Op(f"flagpde {shown}" + (f"  [{label}]" if label else ""), run, checked, defect)

    def family_op(self, argv, vs, eq, count, priority, defect="", label=None):
        def check(result):
            if result.get("verified") is not True:
                return "not reported verified"
            reason = ref.check_json_family(result["elements"], eq, vs, count, priority)
            if reason is None and count > 200 and not independence_recorded(result):
                return f"{count} elements reported verified, independence check skipped"
            return reason

        return self.command(argv, check, defect, label)

    def module_op(self, argv, vs, eq, count, singular=None):
        def check(result):
            elements = result["elements"]
            if len(elements) != count:
                return f"{len(elements)} elements, closed form {count}"
            parts = [ref.from_json_terms(e["solution"], vs) for e in elements]
            if not all(ref.annihilated(eq, pq) for pq in parts):
                return "element not annihilated"
            if not ref.independent_mod_p(parts):
                return "elements dependent"
            if singular is not None and [Fraction(w) for w in result["singularWeight"]] != singular:
                return f"singular weight {result['singularWeight']}, closed form {singular}"
            return None if result.get("verified") is True and result.get("annihilated") is True else "not verified"

        return self.command(argv, check)

    def harmonic_op(self, n, cap, defect=""):
        count = ref.n_monomials_at_most(n - 1, cap) + ref.n_monomials_at_most(n - 1, cap - 1)
        return self.family_op(["basis", "harmonic", "--n", str(n), "--cap", str(cap)], xvars(n),
                              laplace_equation(range(n)), count, reversed_priority(n), defect)

    def sl_op(self, n, l1, l2):
        vs = xvars(n) + tuple(f"y{i}" for i in range(1, n + 1))
        weight = [l1 + l2] if n == 2 else [l1] + [0] * (n - 3) + [l2]
        return self.module_op(["lie", "sl", "--n", str(n), "--l1", str(l1), "--l2", str(l2)], vs,
                              contraction_equation(n), ref.contraction_free_dim(n, l1, l2), singular=weight)

    def kg_op(self, a, mono):
        vs = ("t", "x", "y", "z")

        def check(result):
            pairs = [(ref.from_json_terms(s["cos"], vs)[0], ref.from_json_terms(s["sin"], vs)[0])
                     for s in result["solutions"]]
            if len(pairs) != 2 or result.get("verified") is not True:
                return "expected two verified solutions"
            return ref.check_kg_pair(a, pairs, vs)

        return self.command(["solve", "klein-gordon", "--a", str(a), "--monomial", ",".join(map(str, mono))], check)

    def splitting_op(self, tree, cap, tcap):
        path = self.write(f"tree-{self.count}.json", tree.to_json())
        want = ref.n_monomials_at_most(tree.nodes, cap)

        def check(result):
            if result.get("verified") is not True:
                return "not reported verified"
            got = result["monomialsChecked"]
            return None if got == want else f"{got} monomials checked, closed form {want}"

        return self.command(["tree", "check-splitting", "--tree", path, "--cap", str(cap), "--tcap", str(tcap)],
                            check, label=tree_text(tree))

    def ivp_flag_op(self, rng, kind, ks, velocity, grid, defect):
        symbols, traces, mu, _ = flag_ivp_case(rng, kind, ks, velocity, grid)
        sym = self.write(f"symbols-{self.count}.json", {"symbols": [s.to_json_terms() for s in symbols]})
        data = self.write(f"data-{self.count}.json", {
            "halfWidths": [1.0],
            "conditions": [{"modes": [{"k": [k], "cos": c, "sin": s} for k, (c, s) in tr.items()]}
                           for tr in traces],
        })

        def check(result):
            if result["verification"].get("passed") is not True:
                return "not reported passed"
            points = [tuple(p) for p in result["grid"]]
            return ref.check_flag_values(kind, mu, 1.0, traces, points, result["values"])

        label = f"{kind}{f' mu={mu:g}' if mu else ''} modes {sorted({k for tr in traces for k in tr})}"
        return self.command(["ivp", "flag", "--orders", str(len(symbols)), "--symbols", sym, "--data", data,
                             "--grid", f"{grid[0]}x{grid[1]}"], check, defect, label)

    def tree_wave_op(self, rng, tree):
        n = tree.nodes
        hw = tuple(float(rng.choice((1, 2))) for _ in range(n))
        g0 = {tuple(rng.randint(0 if i else 1, 2) for i in range(n)): (round(rng.uniform(0.5, 1.0), 3), 0.0)}
        g1 = {}
        if n < 3 and rng.random() < 0.5:
            g1 = {tuple([1] + [0] * (n - 1)): (round(rng.uniform(-0.5, 0.5), 3), 0.0)}
        t = round(rng.uniform(0.02, 0.2), 3)
        tree_path = self.write(f"wtree-{self.count}.json", tree.to_json())
        data = self.write(f"wdata-{self.count}.json", {
            "halfWidths": list(hw),
            "g0": {"modes": [{"k": list(k), "cos": c, "sin": s} for k, (c, s) in g0.items()]},
            "g1": {"modes": [{"k": list(k), "cos": c, "sin": s} for k, (c, s) in g1.items()]},
        })
        grid = "x".join(["2"] * n)
        at = rng.randrange(2**n)

        def check(result):
            pt, value = tuple(result["grid"][at]), result["values"][at]
            # the function the command evaluates, sampled on the stencil around pt
            sol = fp.solve_tree_wave_ivp(tree, fp.TrigData(hw, g0), fp.TrigData(hw, g1), t, [pt])
            if abs(sol.values[0] - value) > 1e-9 * (1 + abs(value)):
                return "grid value differs from the solver evaluated at the same point"
            return ref.check_tree_wave(sol.at, n, sorted(tree.edges), hw, g0, g1, t, pt)

        return self.command(["ivp", "tree-wave", "--tree", tree_path, "--data", data, "--t", str(t),
                             "--grid", grid], check, DEFECT_TREE_WAVE,
                            f"{tree_text(tree)} g0={g0} g1={g1}")

    def ode_op(self, coeffs, init, t, defect):
        def check(result):
            reason = ref.check_ode(result["value"], coeffs, init, t)
            if reason and result.get("verified") is True:
                return reason + ' with "verified": true'
            return reason

        return self.command(["ode", f"--coeffs={','.join(map(str, coeffs))}", f"--init={','.join(map(str, init))}",
                             "--t", str(t)], check, defect)


def independence_recorded(result):
    """True when the payload records an independence check that passed."""
    return any(c.get("name") == "independence" and c.get("status") == "passed"
               for c in result.get("checks", ()))


WORKLOADS = {w.name: w for w in (Families, Certify, Numeric, Cli)}
