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

A polynomial-coefficient differential operator has the normal form
sum_alpha c_alpha d^alpha (``differential_form``), unique in the Weyl
algebra; ``FormApplicator`` applies it to polynomials in integers.

The module also hosts the series engine: given T1 with right inverse T1inv
and a perturbation T2 that is locally nilpotent relative to a filtration,
``solve_by_series`` produces the kernel element sum_i (-T1inv T2)^i (h*g)
and ``right_inverse_series`` the preimage sum_i (-T1inv T2)^i T1inv (f).
Both assert their defining identity exactly before returning.
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
    def apply(self, p: Polynomial) -> Polynomial:
        raise NotImplementedError

    def apply_trig(self, u: TrigPolynomial) -> TrigPolynomial:
        raise NotImplementedError

    def __call__(self, p):
        if isinstance(p, TrigPolynomial):
            return self.apply_trig(p)
        return self.apply(p)


@dataclass(frozen=True, eq=True)
class Derivative(LinearOperator):
    var: str
    order: int = 1

    def apply(self, p):
        return p.diff(self.var, self.order)

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

    def apply(self, p):
        return p.integrate_n(self.var, self.order)

    def apply_trig(self, u):
        raise TypeError("integration is not defined on the trig-polynomial ring")


class MultiplyBy(LinearOperator):
    __slots__ = ("poly",)

    def __init__(self, poly: Polynomial):
        self.poly = poly

    def apply(self, p):
        return self.poly * p

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

    def apply(self, p):
        return p * self.scalar

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

    def apply(self, p):
        out = Polynomial.zero(p.vars, p.laurent)
        for op in self.ops:
            out = out + op.apply(p)
        return out

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

    def apply(self, p):
        for op in reversed(self.ops):
            p = op.apply(p)
        return p

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
    """

    __slots__ = ("a", "tvar")

    def __init__(self, a, tvar: str = "t"):
        if not a:
            raise ValueError("degenerate dissipation")
        if isinstance(a, int):
            a = Fraction(a)
        self.a = a
        self.tvar = tvar

    def apply(self, p):
        ainv = coeff_inverse(self.a)
        acc = Polynomial.zero(p.vars, p.laurent)
        term = p
        factor = ainv
        while not term.is_zero():
            acc = acc + term * factor
            term = -term.diff(self.tvar)
            factor = factor * ainv
        return acc.integrate(self.tvar)

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
    perturbation series terminates on every polynomial input.  A negative
    exponent in a block variable after the first raises ValueError, since
    its derivatives never vanish.

    Stage s inverts the first s blocks.  With R the stage s-1 inverse, f the
    s-th coefficient and D = Dvs^ms, it returns sum_i (-R f)^i R D^i(q),
    evaluated in Horner form: w_i = D^i(q) up to the last nonzero w_I, then
    acc = R(w_I) and acc = R(w_i - f*acc) for i = I-1 down to 0.  R is
    linear, so this is the same sum with I+1 calls of stage s-1 instead of
    (I+1)(I+2)/2.  The stages run on integer forms (``poly._IntForm``) over
    one variable order: ``apply`` converts its input in and the result out
    once, and ``apply_form`` works on forms throughout, with the blocks put
    over the variable order once by ``plan``.
    """

    __slots__ = ("coeffs", "vars_", "orders")

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

    def as_operator(self) -> LinearOperator:
        """The triangular operator this object inverts."""
        return Sum(
            Compose(MultiplyBy(c), Derivative(v, m))
            for c, v, m in zip(self.coeffs, self.vars_, self.orders)
        )

    def apply(self, p):
        vs = tuple(dict.fromkeys(itertools.chain(
            p.vars, self.vars_, (v for c in self.coeffs for v in c.vars)
        )))
        laurent = p.laurent.union(*(c.laurent for c in self.coeffs))
        return self.apply_form(_int_form(p, vs), self.plan(vs, laurent)).to_poly(vs, laurent)

    def plan(self, vars: tuple, laurent: frozenset) -> list:
        """The blocks over the variable order `vars`, which holds every block
        variable: per block the position of its variable, its order, its
        coefficient as an integer form (the inverse of the constant for the
        first block) and whether its variable is in `laurent`, the variables
        that may carry negative exponents."""
        lead = coeff_inverse(self.coeffs[0].constant_term())
        plan = [(vars.index(self.vars_[0]), self.orders[0], lead, False)]
        for c, v, m in zip(self.coeffs[1:], self.vars_[1:], self.orders[1:]):
            plan.append((vars.index(v), m, _int_form(c, vars), v in laurent))
        return plan

    def apply_form(self, q: _IntForm, plan: list) -> _IntForm:
        """apply on the integer form q, over the variable order of `plan`."""
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


def operator_variables(op: LinearOperator) -> frozenset:
    if isinstance(op, (Derivative, Integrate)):
        return frozenset((op.var,))
    if isinstance(op, MultiplyBy):
        return frozenset(op.poly.vars)
    if isinstance(op, Scale):
        return frozenset()
    if isinstance(op, (Sum, Compose)):
        out = frozenset()
        for sub in op.ops:
            out |= operator_variables(sub)
        return out
    if isinstance(op, DampedIntegration):
        return frozenset((op.tvar,))
    if isinstance(op, NestedRightInverse):
        out = frozenset(op.vars_)
        for c in op.coeffs:
            out |= frozenset(c.vars)
        return out
    raise TypeError(f"unknown operator node {type(op)!r}")


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
    input p, D d op(p) = sum_j (D c_j) d^alpha_j (d p) is accumulated with
    integer falling factorials, one dict per real and imaginary part, and
    each nonzero entry is divided by D d once.
    """

    __slots__ = ("vars", "laurent", "_den", "_blocks")

    def __init__(self, form: dict, vars):
        self.vars = vs = tuple(vars)
        self.laurent = frozenset().union(*(c.laurent for c in form.values()))
        coeffs = [_int_form(c, vs) for c in form.values()]
        self._den = den = math.lcm(*(c.den for c in coeffs))
        self._blocks = []
        for alpha, c in zip(form, coeffs):
            k = den // c.den
            self._blocks.append((
                tuple((vs.index(v), m) for v, m in alpha),
                ([(exp, a * k) for exp, a in c.re.items()], [(exp, a * k) for exp, a in c.im.items()]),
            ))

    def __call__(self, p: Polynomial) -> Polynomial:
        q = _int_form(p, self.vars)
        parts = (list(q.re.items()), list(q.im.items()))
        sums = ({}, {})
        for part, side, target, sign in _ROUTES:
            out = sums[target]
            get = out.get
            for orders, cparts in self._blocks:
                cterms = cparts[side]
                if not cterms:
                    continue
                for exp, a in parts[part]:
                    k = sign * a
                    if orders:
                        shifted = list(exp)
                        for i, m in orders:
                            k *= falling(exp[i], m)
                            shifted[i] = exp[i] - m
                        if not k:
                            continue
                    else:
                        shifted = exp
                    for cexp, c in cterms:
                        key = tuple(map(add, shifted, cexp))
                        out[key] = get(key, 0) + c * k
        image = _IntForm(*sums, q.den * self._den)
        return image.to_poly(self.vars, self.laurent | p.laurent)


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

    def iteration_bound(self, seed_poly: Polynomial) -> int:
        return 2 + seed_poly.total_degree() * max(1, max_derivative_order(self.t2))


def solve_by_series(cfg: SeriesConfig, h: Polynomial, g: Polynomial) -> Polynomial:
    """Kernel element sum_i (-T1inv T2)^i (h*g) of T1 + T2, verified exactly."""
    if not cfg.t1(h).is_zero():
        raise KernelPreconditionError("kernel precondition violated")
    seed = h * g
    total = seed
    term = seed
    bound = cfg.iteration_bound(seed)
    for _ in range(bound):
        if term.is_zero():
            break
        term = -cfg.t1_inverse(cfg.t2(term))
        total = total + term
    else:
        if not term.is_zero():
            raise SeriesTerminationError("series did not nilpotate")
    residual = cfg.t1(total) + cfg.t2(total)
    if not residual.is_zero():
        raise VerificationError(f"series output is not annihilated; residual {residual}")
    return total


def right_inverse_series(cfg: SeriesConfig, f: Polynomial) -> Polynomial:
    """Preimage of f under T1 + T2 via sum_i (-T1inv T2)^i T1inv, verified exactly."""
    term = cfg.t1_inverse(f)
    total = term
    bound = cfg.iteration_bound(term)
    for _ in range(bound):
        if term.is_zero():
            break
        term = -cfg.t1_inverse(cfg.t2(term))
        total = total + term
    else:
        if not term.is_zero():
            raise SeriesTerminationError("series did not nilpotate")
    residual = cfg.t1(total) + cfg.t2(total) - f
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
