"""Composable linear operators on the exact polynomial ring.

Operators are immutable expression trees over six generators: Derivative,
Integrate, MultiplyBy, Scale (scalar multiple of the identity), Sum and
Compose (applied right to left).  Application is exact and linear.  Two
extra lazily-evaluated nodes live here as well:

* ``DampedIntegration(a, t)``: the right inverse of a*d/dt + d^2/dt^2
  obtained by integrating the geometric expansion sum_r a^(-r-1) (-d/dt)^r.
* ``NestedRightInverse(entries)``: the right inverse of a triangular
  operator c1*D1^m1 + c2*D2^m2 + ... in which each coefficient may only
  involve variables of the earlier blocks; it evaluates the standard
  perturbation series per input, in Horner form, rather than expanding an
  operator formula.

Every node acts on integer forms (``poly._IntForm``: integer numerators
over one common denominator, the layout of FLINT's fmpq_mpoly) through
``apply_form(q, vars)``: Derivative and Integrate are the form's d^m/dx^m
and m-fold antiderivative, MultiplyBy a product with its multiplier put
over each variable order once, Scale a scalar multiple, Sum and Compose
folds, and DampedIntegration its finite expansion.
``LinearOperator.apply`` is written once: it puts p over p.vars followed
by the operator's variables in tree order, runs ``apply_form`` and
converts the image out once.  ``apply_trig`` stays per node.

A polynomial-coefficient differential operator has the normal form
sum_alpha c_alpha d^alpha (``differential_form``), unique in the Weyl
algebra; ``FormApplicator`` applies it to integer forms, and every
residual check of the library runs the returned polynomial through it.

The module also hosts the series engine: given T1 with right inverse T1inv
and a perturbation T2 that is locally nilpotent relative to a filtration,
``solve_by_series`` produces the kernel element sum_i (-T1inv T2)^i (h*g)
and ``right_inverse_series`` the preimage sum_i (-T1inv T2)^i T1inv (f).
Both keep their running terms as forms over one variable order, convert
the sum out once, and assert their defining identity exactly on the
returned polynomial.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .combinatorics import falling
from .poly import (
    GaussianRational,
    Polynomial,
    TrigPolynomial,
    _int_form,
    _IntForm,
    _nonzero,
    _reduced,
    _sum_forms,
    coeff_imag,
    coeff_inverse,
    coeff_real,
)

__all__ = [
    "Compose",
    "DampedIntegration",
    "Derivative",
    "FormApplicator",
    "Integrate",
    "KernelPreconditionError",
    "MultiplyBy",
    "NestedRightInverse",
    "NotAFlagSystemError",
    "OperatorHypothesisError",
    "Scale",
    "SeriesConfig",
    "SeriesTerminationError",
    "Sum",
    "VerificationError",
    "apply_operator",
    "differential_form",
    "form_applicator",
    "forms_commute",
    "identity",
    "op_from_json",
    "op_to_json",
    "operator_variables",
    "operators_agree_on_sample",
    "random_polynomial",
    "right_inverse_series",
    "same_action",
    "solve_by_series",
]


class SeriesTerminationError(RuntimeError):
    """The perturbation series failed to reach zero within the safety bound."""


class KernelPreconditionError(ValueError):
    """The seed h is not annihilated by the unperturbed operator."""


class NotAFlagSystemError(ValueError):
    """A coefficient depends on variables of a later block."""


class OperatorHypothesisError(ValueError):
    """A sampled commutation hypothesis failed."""


class VerificationError(RuntimeError):
    """An exact post-condition of a solver did not hold."""


class LinearOperator:
    """A node of an operator tree.

    Every node acts on integer forms (``poly._IntForm``) through
    ``apply_form(q, vars)``, where ``vars`` is a variable order holding p's
    variables and all of the operator's.  ``apply`` is written once: it puts
    p over p.vars followed by the operator's variables in tree order, runs
    ``apply_form`` and converts the result out once.
    """

    def apply(self, p: Polynomial) -> Polynomial:
        vs, laurent = _chain_order([p], [self])
        return self.apply_form(_int_form(p, vs), vs).to_poly(vs, laurent)

    def apply_form(self, q: _IntForm, vars: tuple) -> _IntForm:
        raise NotImplementedError

    def apply_trig(self, u: TrigPolynomial) -> TrigPolynomial:
        raise NotImplementedError

    def annihilates(self, p) -> bool:
        return self(p).is_zero()

    def __call__(self, p):
        if isinstance(p, TrigPolynomial):
            return self.apply_trig(p)
        return self.apply(p)


@dataclass(frozen=True, eq=True)
class Derivative(LinearOperator):
    var: str
    order: int = 1

    def apply_form(self, q, vars):
        return q.diff(vars.index(self.var), self.order) if self.order else q

    def apply_trig(self, u):
        if self.var == u.time_var:
            out = u
            for _ in range(self.order):
                out = out.diff_time()
            return out
        return u.map_parts(lambda q: q.diff(self.var, self.order))


@dataclass(frozen=True, eq=True)
class Integrate(LinearOperator):
    var: str
    order: int = 1

    def apply_form(self, q, vars):
        return q.integrate(vars.index(self.var), self.order) if self.order else q

    def apply_trig(self, u):
        raise TypeError("integration is not defined on the trig-polynomial ring")


class MultiplyBy(LinearOperator):
    """Multiplication by a polynomial, put over each variable order once."""

    __slots__ = ("poly", "_forms")

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self._forms = {}

    def apply_form(self, q, vars):
        f = self._forms.get(vars)
        if f is None:
            f = self._forms[vars] = _int_form(self.poly, vars)
        return f * q

    def apply_trig(self, u):
        return u.map_parts(lambda q: self.poly * q)

    def __eq__(self, other):
        return isinstance(other, MultiplyBy) and self.poly == other.poly

    def __repr__(self):
        return f"MultiplyBy({self.poly})"


class Scale(LinearOperator):
    """Scalar multiple of the identity operator."""

    __slots__ = ("scalar",)

    def __init__(self, scalar):
        self.scalar = scalar

    def apply_form(self, q, vars):
        return q.scaled(self.scalar) if self.scalar else _IntForm.zero()

    def apply_trig(self, u):
        return u.map_parts(lambda q: q * self.scalar)

    def __eq__(self, other):
        return isinstance(other, Scale) and self.scalar == other.scalar

    def __repr__(self):
        return f"Scale({self.scalar})"


class Sum(LinearOperator):
    __slots__ = ("ops",)

    def __init__(self, ops):
        self.ops = tuple(ops)

    def apply_form(self, q, vars):
        return _sum_forms([op.apply_form(q, vars) for op in self.ops])

    def apply_trig(self, u):
        out = None
        for op in self.ops:
            piece = op.apply_trig(u)
            out = piece if out is None else out + piece
        if out is None:
            return u.map_parts(lambda q: Polynomial.zero(q.vars, q.laurent))
        return out

    def __eq__(self, other):
        return isinstance(other, Sum) and self.ops == other.ops

    def __repr__(self):
        return f"Sum({list(self.ops)})"


class Compose(LinearOperator):
    """Composition, applied right to left: Compose(A, B)(p) = A(B(p))."""

    __slots__ = ("ops",)

    def __init__(self, *ops):
        if len(ops) == 1 and isinstance(ops[0], (list, tuple)):
            ops = tuple(ops[0])
        self.ops = tuple(ops)

    def apply_form(self, q, vars):
        for op in reversed(self.ops):
            q = op.apply_form(q, vars)
        return q

    def apply_trig(self, u):
        for op in reversed(self.ops):
            u = op.apply_trig(u)
        return u

    def __eq__(self, other):
        return isinstance(other, Compose) and self.ops == other.ops

    def __repr__(self):
        return f"Compose({list(self.ops)})"


def identity() -> LinearOperator:
    return Compose()


class DampedIntegration(LinearOperator):
    """Right inverse of a*d/dt + (d/dt)^2 for a nonzero exact scalar a.

    Applies the finite expansion sum_r a^(-r-1) (-d/dt)^r (the input is a
    polynomial, so the sum stops at its t-degree) and then integrates once.
    A negative power of t raises ValueError, since the sum would not end.
    """

    __slots__ = ("a", "tvar")

    def __init__(self, a, tvar: str = "t"):
        if not a:
            raise ValueError("degenerate dissipation")
        if isinstance(a, int):
            a = Fraction(a)
        self.a = a
        self.tvar = tvar

    def apply_form(self, q, vars):
        pos = vars.index(self.tvar)
        if any(exp[pos] < 0 for exp in itertools.chain(q.re, q.im)):
            # the derivatives of a negative power never vanish
            raise ValueError(f"damped integration: negative power of {self.tvar}")
        ainv = coeff_inverse(self.a)
        factor = ainv
        pieces = []
        while q:
            pieces.append(q.scaled(factor))
            q = q.diff(pos, 1)
            factor = -factor * ainv
        return _sum_forms(pieces).integrate(pos, 1)

    def __eq__(self, other):
        return (
            isinstance(other, DampedIntegration)
            and self.a == other.a
            and self.tvar == other.tvar
        )

    def __repr__(self):
        return f"DampedIntegration({self.a}, {self.tvar!r})"


class NestedRightInverse(LinearOperator):
    """Right inverse of c1*Dv1^m1 + c2*Dv2^m2 + ... built block by block.

    Entry k is a pair (coefficient, Derivative(vk, mk)).  The first
    coefficient must be a nonzero constant and the k-th coefficient may only
    involve the variables v1..v(k-1); this triangular shape guarantees the
    perturbation series terminates on every polynomial input.  Every block
    after the first needs a positive order, since D^0 never kills a term.
    A negative exponent in a block variable after the first raises
    ValueError, since its derivatives never vanish.

    Stage s inverts the first s blocks.  With R the stage s-1 inverse, f the
    s-th coefficient and D = Dvs^ms, it returns sum_i (-R f)^i R D^i(q),
    evaluated in Horner form: w_i = D^i(q) up to the last nonzero w_I, then
    acc = R(w_I) and acc = R(w_i - f*acc) for i = I-1 down to 0.  R is
    linear, so this is the same sum with I+1 calls of stage s-1 instead of
    (I+1)(I+2)/2.  The stages run on integer forms over one variable order,
    with the blocks put over each order once by ``plan``.
    """

    __slots__ = ("coeffs", "vars_", "orders", "_plans")

    def __init__(self, entries):
        coeffs, vars_, orders = [], [], []
        for coeff, deriv in entries:
            if not isinstance(deriv, Derivative):
                raise TypeError("each entry needs a Derivative as its second item")
            if isinstance(coeff, (int, Fraction, GaussianRational)):
                coeff = Polynomial.const(coeff)
            coeffs.append(coeff)
            vars_.append(deriv.var)
            orders.append(deriv.order)
        if len(set(vars_)) != len(vars_):
            raise NotAFlagSystemError("not a flag system: repeated block variable")
        if not coeffs:
            raise ValueError("at least one block is required")
        if orders[0] < 0 or any(m < 1 for m in orders[1:]):
            raise ValueError(
                "block orders must be positive after the first block and non-negative in it"
            )
        if coeffs[0].support_vars():
            raise NotAFlagSystemError("not a flag system: leading coefficient must be constant")
        if coeffs[0].is_zero():
            raise NotAFlagSystemError("not a flag system: leading coefficient is zero")
        for k, c in enumerate(coeffs[1:], start=2):
            allowed = set(vars_[: k - 1])
            extra = c.support_vars() - allowed
            if extra:
                raise NotAFlagSystemError(
                    f"not a flag system: coefficient {k} depends on {sorted(extra)}"
                )
        self.coeffs = tuple(coeffs)
        self.vars_ = tuple(vars_)
        self.orders = tuple(orders)
        self._plans = {}

    def as_operator(self) -> LinearOperator:
        """The triangular operator this object inverts."""
        return Sum(
            Compose(MultiplyBy(c), Derivative(v, m))
            for c, v, m in zip(self.coeffs, self.vars_, self.orders)
        )

    def apply(self, p):
        # kept on the class so that perfbench/trace.py can wrap it by name
        return LinearOperator.apply(self, p)

    def plan(self, vars: tuple) -> list:
        """The blocks over the variable order `vars`, made once per order: per
        block the position of its variable, its order, its coefficient as an
        integer form (the inverse of the constant for the first block) and
        whether some coefficient has a negative exponent in its variable."""
        plan = self._plans.get(vars)
        if plan is None:
            forms = [_int_form(c, vars) for c in self.coeffs[1:]]
            negative = {
                i for f in forms for exp in itertools.chain(f.re, f.im)
                for i, e in enumerate(exp) if e < 0
            }
            lead = coeff_inverse(self.coeffs[0].constant_term())
            plan = [(vars.index(self.vars_[0]), self.orders[0], lead, False)]
            for f, v, m in zip(forms, self.vars_[1:], self.orders[1:]):
                pos = vars.index(v)
                plan.append((pos, m, f, pos in negative))
            self._plans[vars] = plan
        return plan

    def apply_form(self, q, vars):
        plan = self.plan(vars)
        if any(min(exp) < 0 for exp in itertools.chain(q.re, q.im)):
            # negative powers in the input: check their block variables at every stage
            terms = list(itertools.chain(q.re, q.im))
            plan = plan[:1] + [
                (pos, m, f, neg or any(exp[pos] < 0 for exp in terms))
                for pos, m, f, neg in plan[1:]
            ]
        return self._stage(len(plan), q, plan)

    def _stage(self, s: int, q: _IntForm, plan) -> _IntForm:
        pos, m, f, is_laurent = plan[s - 1]
        if s == 1:
            out = q.integrate(pos, m)
            return out if f == 1 else out.scaled(f)
        if is_laurent and any(exp[pos] < 0 for exp in itertools.chain(q.re, q.im)):
            # the derivatives of a negative power never vanish
            raise ValueError(
                f"nested right inverse: negative exponent in block variable {self.vars_[s - 1]}"
            )
        ws = []
        w = q
        while w:
            ws.append(w)
            w = w.diff(pos, m)
        if not ws:
            return q
        acc = self._stage(s - 1, ws.pop(), plan)
        while ws:
            acc = self._stage(s - 1, ws.pop() - f * acc, plan)
        return acc

    def __repr__(self):
        blocks = ", ".join(
            f"({c})*d{v}^{m}" for c, v, m in zip(self.coeffs, self.vars_, self.orders)
        )
        return f"NestedRightInverse[{blocks}]"


def apply_operator(op: LinearOperator, p):
    """Apply an operator to a Polynomial or TrigPolynomial."""
    return op(p)


def _variables_in_order(op: LinearOperator):
    """The variables of op in tree order, with repeats."""
    if isinstance(op, (Derivative, Integrate)):
        yield op.var
    elif isinstance(op, MultiplyBy):
        yield from op.poly.vars
    elif isinstance(op, (Sum, Compose)):
        for sub in op.ops:
            yield from _variables_in_order(sub)
    elif isinstance(op, DampedIntegration):
        yield op.tvar
    elif isinstance(op, NestedRightInverse):
        yield from op.vars_
        for c in op.coeffs:
            yield from c.vars
    elif not isinstance(op, Scale):
        raise TypeError(f"unknown operator node {type(op)!r}")


def _laurent(op: LinearOperator) -> frozenset:
    """The Laurent variables of the polynomials inside op."""
    if isinstance(op, MultiplyBy):
        return op.poly.laurent
    if isinstance(op, (Sum, Compose)):
        return frozenset().union(*(_laurent(sub) for sub in op.ops))
    if isinstance(op, NestedRightInverse):
        return frozenset().union(*(c.laurent for c in op.coeffs))
    return frozenset()


def operator_variables(op: LinearOperator) -> frozenset:
    return frozenset(_variables_in_order(op))


def differential_form(op: LinearOperator):
    """op as sum_alpha c_alpha(x) d^alpha, or None outside that class.

    Returns {alpha: c_alpha}: alpha is a tuple of (variable, order) pairs
    sorted by variable, () for the identity, and c_alpha a nonzero
    Polynomial.  Derivative, MultiplyBy, Scale, Sum and Compose are covered;
    Compose moves each derivative right past the coefficients after it by
    the Leibniz rule.  Any other node (integrations, right inverses) gives
    None.
    """
    if isinstance(op, Derivative):
        return {((op.var, op.order),) if op.order else (): Polynomial.const(1)}
    if isinstance(op, MultiplyBy):
        return {} if op.poly.is_zero() else {(): op.poly}
    if isinstance(op, Scale):
        c = Polynomial.const(op.scalar)
        return {} if c.is_zero() else {(): c}
    if isinstance(op, Sum):
        out = {}
        for sub in op.ops:
            form = differential_form(sub)
            if form is None:
                return None
            for alpha, c in form.items():
                _add_form_term(out, alpha, c)
        return out
    if isinstance(op, Compose):
        out = {(): Polynomial.const(1)}
        for sub in reversed(op.ops):
            form = differential_form(sub)
            if form is None:
                return None
            out = _compose_forms(form, out)
        return out
    return None


def _add_form_term(form: dict, alpha: tuple, c: Polynomial):
    if alpha in form:
        c = form[alpha] + c
    if c.is_zero():
        form.pop(alpha, None)
    else:
        form[alpha] = c


def _compose_forms(a: dict, b: dict) -> dict:
    """The form of A after B: c_alpha d^alpha (c_beta d^beta u) expanded by
    d^alpha (f w) = sum_(gamma <= alpha) C(alpha, gamma) d^gamma f d^(alpha-gamma) w."""
    out = {}
    for alpha, ca in a.items():
        # per gamma <= alpha: the derivatives taken of c_beta, those left on
        # w, and C(alpha, gamma); all independent of beta
        splits = []
        for gamma in itertools.product(*(range(m + 1) for _, m in alpha)):
            pairs = list(zip(alpha, gamma))
            splits.append((
                [(v, g) for (v, _), g in pairs if g],
                [(v, m - g) for (v, m), g in pairs if m > g],
                math.prod(math.comb(m, g) for (_, m), g in pairs),
            ))
        for beta, cb in b.items():
            for on_coeff, on_w, weight in splits:
                coeff = cb
                for v, g in on_coeff:
                    coeff = coeff.diff(v, g)
                if coeff.is_zero():
                    continue
                orders = dict(beta)
                for v, m in on_w:
                    orders[v] = orders.get(v, 0) + m
                _add_form_term(out, tuple(sorted(orders.items())), _times(ca, coeff, weight))
    return out


def _times(p: Polynomial, q: Polynomial, weight: int) -> Polynomial:
    """p * q * weight, scaling when p or q is a constant without variables
    (a polynomial product would realign the variables first)."""
    if not p.vars:
        return q * (p.constant_term() * weight)
    if not q.vars:
        return p * (q.constant_term() * weight)
    return p * q * weight if weight != 1 else p * q


def forms_commute(form_a: dict, form_b: dict) -> bool:
    """True when [A, B] = 0, given the normal forms of A and B."""
    return _compose_forms(form_a, form_b) == _compose_forms(form_b, form_a)


def same_action(a: LinearOperator, b: LinearOperator) -> bool:
    """True when a and b agree on every polynomial: equal normal forms."""
    return differential_form(a) == differential_form(b)


# (part of p, part of the coefficients, real (0) or imaginary (1) sum, sign):
# with c = c_re + i c_im and p = p_re + i p_im,
# c p = (c_re p_re - c_im p_im) + i (c_re p_im + c_im p_re)
_ROUTES = ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1))


class FormApplicator:
    """A normal form sum_j c_j d^alpha_j applied to polynomials whose
    variables are all in one fixed order.

    The coefficients are put over the order once as integer forms
    (poly._IntForm) on D, their common denominator.  With d that of the
    input q, D d op(q) = sum_j (D c_j) d^alpha_j (d q) is accumulated with
    integer falling factorials, one dict per real and imaginary part, over
    the denominator D d.  A block whose coefficient is a constant adds no
    exponents.
    """

    __slots__ = ("vars", "laurent", "_den", "_routes")

    def __init__(self, form: dict, vars):
        self.vars = vs = tuple(vars)
        self.laurent = frozenset().union(*(c.laurent for c in form.values()))
        coeffs = [_int_form(c, vs) for c in form.values()]
        self._den = den = math.lcm(*(c.den for c in coeffs))
        const = (0,) * len(vs)
        # per route: the part of the input it reads, the sum it feeds, and
        # per block (derivative orders, signed coefficient terms, constant?)
        self._routes = []
        for part, side, target, sign in _ROUTES:
            blocks = []
            for alpha, c in zip(form, coeffs):
                k = sign * (den // c.den)
                cterms = [(exp, a * k) for exp, a in (c.im if side else c.re).items()]
                if cterms:
                    orders = tuple((vs.index(v), m) for v, m in alpha)
                    blocks.append((orders, cterms, all(exp == const for exp, _ in cterms)))
            if blocks:
                self._routes.append((part, target, blocks))

    def apply_form(self, q: _IntForm) -> _IntForm:
        """The image of the form q over this applicator's variable order."""
        sums = ({}, {})
        perm = math.perm
        for part, target, blocks in self._routes:
            terms = (q.im if part else q.re).items()
            if not terms:
                continue
            out = sums[target]
            get = out.get
            for orders, cterms, constant in blocks:
                for exp, k in terms:
                    if orders:
                        shifted = list(exp)
                        for i, m in orders:
                            e = exp[i]
                            k *= perm(e, m) if e >= 0 else falling(e, m)
                            shifted[i] = e - m
                        if not k:
                            continue
                        shifted = tuple(shifted)
                    else:
                        shifted = exp
                    if constant:
                        for _, c in cterms:
                            out[shifted] = get(shifted, 0) + c * k
                    else:
                        for cexp, c in cterms:
                            key = tuple(map(add, shifted, cexp))
                            out[key] = get(key, 0) + c * k
        return _reduced(_nonzero(sums[0]), _nonzero(sums[1]), q.den * self._den)

    def __call__(self, p: Polynomial) -> Polynomial:
        image = self.apply_form(_int_form(p, self.vars))
        return image.to_poly(self.vars, self.laurent | p.laurent)

    def annihilates(self, p: Polynomial) -> bool:
        return not self.apply_form(_int_form(p, self.vars))


def form_applicator(op: LinearOperator, polys):
    """op on the given polys: a FormApplicator over their variables and op's
    when op has a differential form and every p is a Polynomial, else op
    itself (integrations, right inverses, trig polynomials)."""
    form = differential_form(op)
    if form is None or not all(isinstance(p, Polynomial) for p in polys):
        return op
    vs = tuple(dict.fromkeys(itertools.chain(
        (v for p in polys for v in p.vars),
        (v for c in form.values() for v in c.vars),
        (v for alpha in form for v, _ in alpha),
    )))
    return FormApplicator(form, vs)


def max_derivative_order(op: LinearOperator) -> int:
    if isinstance(op, Derivative):
        return op.order
    if isinstance(op, (Sum, Compose)):
        return max((max_derivative_order(sub) for sub in op.ops), default=0)
    return 0


def random_polynomial(rng: random.Random, vars, max_terms=5, max_degree=3, laurent=()):
    """A small random exact polynomial, used for sampled operator identities."""
    vars = tuple(vars)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in vars)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if not c:
            c = Fraction(1)
        terms[exp] = terms.get(exp, Fraction(0)) + c
    terms = {e: c for e, c in terms.items() if c}
    return Polynomial(vars, terms, laurent)


def operators_agree_on_sample(op_a, op_b, vars, seed=0, samples=5) -> bool:
    rng = random.Random(seed)
    vars = tuple(vars) or ("x",)
    for _ in range(samples):
        p = random_polynomial(rng, vars)
        if op_a(p) != op_b(p):
            return False
    return True


@dataclass
class SeriesConfig:
    """Hypotheses for the perturbation series: T1 with right inverse, plus T2.

    On construction the right-inverse law T1(T1inv(p)) = p is checked on a
    sample of random polynomials drawn from `seed`.  Termination is detected
    by the series hitting the exact zero polynomial; ``iteration_bound`` is
    only a safety valve.
    """

    t1: LinearOperator
    t1_inverse: LinearOperator
    t2: LinearOperator
    seed: int = 0

    def __post_init__(self):
        vars = operator_variables(self.t1) | operator_variables(self.t1_inverse)
        composed = Compose(self.t1, self.t1_inverse)
        if not operators_agree_on_sample(composed, identity(), vars, seed=self.seed):
            raise OperatorHypothesisError(
                "t1_inverse is not a right inverse of t1 on the sampled polynomials"
            )

    def iteration_bound(self, seed) -> int:
        """The safety bound for a seed given as a Polynomial or an integer form."""
        return 2 + seed.total_degree() * max(1, max_derivative_order(self.t2))


def _chain_order(polys, ops):
    """The variable order and Laurent set of a computation that starts from
    `polys` and applies `ops`: the variables of each polynomial, then those
    of each operator in tree order."""
    vs = tuple(dict.fromkeys(itertools.chain(
        *(p.vars for p in polys), *(_variables_in_order(op) for op in ops)
    )))
    return vs, frozenset().union(*(p.laurent for p in polys), *(_laurent(op) for op in ops))


def _series(cfg: SeriesConfig, term: _IntForm, vs: tuple) -> _IntForm:
    """sum_i (-T1inv T2)^i (term) on integer forms over the order vs."""
    terms = [term]
    for _ in range(cfg.iteration_bound(term)):
        if not term:
            break
        term = -cfg.t1_inverse.apply_form(cfg.t2.apply_form(term, vs), vs)
        terms.append(term)
    else:
        if term:
            raise SeriesTerminationError("series did not nilpotate")
    return _sum_forms(terms)


def solve_by_series(cfg: SeriesConfig, h: Polynomial, g: Polynomial) -> Polynomial:
    """Kernel element sum_i (-T1inv T2)^i (h*g) of T1 + T2, verified exactly."""
    if not cfg.t1(h).is_zero():
        raise KernelPreconditionError("kernel precondition violated")
    seed = h * g
    vs, laurent = _chain_order([seed], [cfg.t2, cfg.t1_inverse])
    total = _series(cfg, _int_form(seed, vs), vs).to_poly(vs, laurent)
    op = Sum((cfg.t1, cfg.t2))
    if not form_applicator(op, [total]).annihilates(total):
        raise VerificationError(f"series output is not annihilated; residual {op(total)}")
    return total


def right_inverse_series(cfg: SeriesConfig, f: Polynomial) -> Polynomial:
    """Preimage of f under T1 + T2 via sum_i (-T1inv T2)^i T1inv, verified exactly."""
    vs, laurent = _chain_order([f], [cfg.t1_inverse, cfg.t2])
    first = cfg.t1_inverse.apply_form(_int_form(f, vs), vs)
    total = _series(cfg, first, vs).to_poly(vs, laurent)
    residual = form_applicator(Sum((cfg.t1, cfg.t2)), [total, f])(total) - f
    if not residual.is_zero():
        raise VerificationError(f"right inverse output mismatch; residual {residual}")
    return total


# -- JSON form ----------------------------------------------------------------

def op_to_json(op: LinearOperator):
    if isinstance(op, Derivative):
        return {"op": "derivative", "var": op.var, "order": op.order}
    if isinstance(op, Integrate):
        return {"op": "integrate", "var": op.var, "order": op.order}
    if isinstance(op, MultiplyBy):
        return {
            "op": "mulpoly",
            "variables": list(op.poly.vars),
            "laurent": sorted(op.poly.laurent),
            "terms": op.poly.to_json_terms(),
        }
    if isinstance(op, Scale):
        return {
            "op": "scale",
            "re": str(coeff_real(op.scalar)),
            "im": str(coeff_imag(op.scalar)),
        }
    if isinstance(op, Sum):
        return {"op": "sum", "terms": [op_to_json(sub) for sub in op.ops]}
    if isinstance(op, Compose):
        return {"op": "compose", "factors": [op_to_json(sub) for sub in op.ops]}
    if isinstance(op, DampedIntegration):
        return {
            "op": "damped_integration",
            "var": op.tvar,
            "re": str(coeff_real(op.a)),
            "im": str(coeff_imag(op.a)),
        }
    raise TypeError(f"operator {type(op)!r} has no JSON form")


def op_from_json(data) -> LinearOperator:
    kind = data["op"]
    if kind == "derivative":
        return Derivative(data["var"], data.get("order", 1))
    if kind == "integrate":
        return Integrate(data["var"], data.get("order", 1))
    if kind == "mulpoly":
        poly = Polynomial.from_json_terms(
            data["terms"], data.get("variables"), data.get("laurent", ())
        )
        return MultiplyBy(poly)
    if kind == "scale":
        c = GaussianRational(Fraction(data["re"]), Fraction(data.get("im", "0")))
        return Scale(c.re if not c.im else c)
    if kind == "sum":
        return Sum(op_from_json(t) for t in data["terms"])
    if kind == "compose":
        return Compose([op_from_json(t) for t in data["factors"]])
    if kind == "damped_integration":
        c = GaussianRational(Fraction(data["re"]), Fraction(data.get("im", "0")))
        return DampedIntegration(c.re if not c.im else c, data["var"])
    raise ValueError(f"unknown operator tag {kind!r}")
