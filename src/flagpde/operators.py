"""Composable linear operators on the exact polynomial ring.

Operators are immutable expression trees over six generators: Derivative,
Integrate, MultiplyBy, Scale (scalar multiple of the identity), Sum and
Compose (applied right to left).  Application is exact and linear.  One
node is its own normal form:

* ``LinearVectorField(entries)``: the first-order operator
  sum c * x_i d/dx_j of a matrix, from its entries {(x_i, x_j): c}; its
  normal form is one block d/dx_j per column with the linear coefficient
  sum_i c * x_i, and it is applied through one ``FormApplicator`` per
  variable order, built on first use and kept on the node.

Two extra lazily-evaluated nodes live here as well:

* ``DampedIntegration(a, t)``: the right inverse of a*d/dt + d^2/dt^2
  obtained by integrating the geometric expansion sum_r a^(-r-1) (-d/dt)^r.
* ``NestedRightInverse(entries)``: the right inverse of a triangular
  operator c1*D1^m1 + c2*D2^m2 + ... in which each coefficient may only
  involve variables of the earlier blocks; it evaluates the standard
  perturbation series per input, in Horner form, rather than expanding an
  operator formula.

Every node acts on integer forms (``poly._IntForm``: integer numerators
over one common denominator, the layout of FLINT's fmpq_mpoly, and what a
Polynomial holds) through ``apply_form(q, vars)``: Derivative and
Integrate are the form's d^m/dx^m and m-fold antiderivative, MultiplyBy a
product with its multiplier put over the order, Scale a scalar multiple,
Sum and Compose folds, LinearVectorField its FormApplicator, and
DampedIntegration its finite expansion.
``LinearOperator.apply`` is written once: it puts p's form over p.vars
followed by the operator's variables in tree order and runs ``apply_form``.
``apply_trig`` is written once, on the normal form below, through
``TrigApplicator``.

A polynomial-coefficient differential operator has the normal form
sum_alpha c_alpha d^alpha (``differential_form``), unique in the Weyl
algebra, with integer-form coefficients over one variable order that the
caller fixes; ``forms_commute`` and ``operators_agree_on_sample`` compare
such forms, ``forms_commute`` through the commutator alone, without the
Leibniz terms of A after B and B after A that cancel.
``operators_agree_on_sample`` is the one agreement check: operators
without a normal form it compares as integer forms on every monomial of
degree <= 2, and ``SeriesConfig`` proves its right-inverse law through
it.

An operator is applied in one of two ways.  ``op(p)`` (``apply``,
``apply_trig``) is the one-shot tree fold on a Polynomial or a
TrigPolynomial; ``bases.twisted_flag_solve`` and ``dissipative.epd_transform``
check their residuals that way, and ``lie.verify_singular`` runs each
operator's ``apply_form`` over one order per call.
``form_map(op, vars)`` maps integer forms over a caller's order: one
``FormApplicator`` when op has a normal form, else op's own
``apply_form``.  ``FormApplicator`` lives in ``poly``, the one module
that reads exponent keys, and is re-exported here.  The end-to-end family
annihilation check (``bases.BasisFamily.verify_annihilation``),
``solve_by_series``, ``right_inverse_series`` and
``bases.power_perturbation_solve`` check their residuals through it over
the order ``_chain_order`` gives, and it serves an operator that a call
applies again and again, or to a whole tagged batch at once
(``linalg.kernel_on_slice``).

The module also hosts the series engine: given T1 with right inverse T1inv
and a perturbation T2 that is locally nilpotent relative to a filtration,
``solve_by_series`` produces the kernel element sum_i (-T1inv T2)^i (h*g)
and ``right_inverse_series`` the preimage sum_i (-T1inv T2)^i T1inv (f).
Both keep their running terms as forms over one variable order, sum them
once, and assert their defining identity exactly on the returned
polynomial.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from types import MappingProxyType

from .combinatorics import tuples_with_sum_at_most
from .poly import (FormApplicator, GaussianRational, Polynomial, TrigPolynomial, _int_form, _IntForm, _pack,
                   _parts, _reduced, _sum_forms, _unit, _unpack, coeff_inverse)

__all__ = [
    "Compose",
    "DampedIntegration",
    "Derivative",
    "FormApplicator",
    "Integrate",
    "KernelPreconditionError",
    "LinearVectorField",
    "MultiplyBy",
    "NestedRightInverse",
    "NotAFlagSystemError",
    "OperatorHypothesisError",
    "Scale",
    "SeriesConfig",
    "SeriesTerminationError",
    "Sum",
    "TrigApplicator",
    "VerificationError",
    "differential_form",
    "form_map",
    "forms_commute",
    "identity",
    "op_from_json",
    "op_to_json",
    "operator_variables",
    "operators_agree_on_sample",
    "right_inverse_series",
    "solve_by_series",
]


class SeriesTerminationError(RuntimeError):
    """The perturbation series failed to reach zero within the safety bound."""


class KernelPreconditionError(ValueError):
    """The seed h is not annihilated by the unperturbed operator."""


class NotAFlagSystemError(ValueError):
    """A coefficient depends on variables of a later block."""


class OperatorHypothesisError(ValueError):
    """An operator hypothesis (a commutation or right-inverse law) failed."""


class VerificationError(RuntimeError):
    """An exact post-condition of a solver did not hold."""


class LinearOperator:
    """A node of an operator tree.

    Every node acts on integer forms (``poly._IntForm``) through
    ``apply_form(q, vars)``, where ``vars`` is a variable order holding p's
    variables and all of the operator's.  ``apply`` is written once: it puts
    p's form over p.vars followed by the operator's variables in tree order
    and runs ``apply_form``.
    """

    def apply(self, p: Polynomial) -> Polynomial:
        vs, laurent = _chain_order([p], [self])
        return self.apply_form(_int_form(p, vs), vs).to_poly(vs, laurent)

    def apply_form(self, q: _IntForm, vars: tuple) -> _IntForm:
        raise NotImplementedError

    def apply_trig(self, u: TrigPolynomial) -> TrigPolynomial:
        """The operator on P cos(at) + Q sin(at), through its normal form
        (``TrigApplicator``).  An operator without a normal form raises
        TypeError."""
        return TrigApplicator(self, u.frequency, u.time_var, (u.cos_part, u.sin_part))(u)

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


@dataclass(frozen=True, eq=True)
class Integrate(LinearOperator):
    var: str
    order: int = 1

    def apply_form(self, q, vars):
        return q.integrate(vars.index(self.var), self.order) if self.order else q


class MultiplyBy(LinearOperator):
    """Multiplication by a polynomial."""

    __slots__ = ("poly",)

    def __init__(self, poly: Polynomial):
        self.poly = poly

    def form(self, vars: tuple) -> _IntForm:
        return _int_form(self.poly, vars)

    def apply_form(self, q, vars):
        return self.form(vars) * q

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
        return q.scaled(self.scalar) if self.scalar else _IntForm.zero(len(vars))

    def __eq__(self, other):
        return isinstance(other, Scale) and self.scalar == other.scalar

    def __repr__(self):
        return f"Scale({self.scalar})"


class Sum(LinearOperator):
    __slots__ = ("ops",)

    def __init__(self, ops):
        self.ops = tuple(ops)

    def apply_form(self, q, vars):
        if not self.ops:
            return _IntForm.zero(len(vars))
        return _sum_forms([op.apply_form(q, vars) for op in self.ops])

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

    def __eq__(self, other):
        return isinstance(other, Compose) and self.ops == other.ops

    def __repr__(self):
        return f"Compose({list(self.ops)})"


def identity() -> LinearOperator:
    return Compose()


class LinearVectorField(LinearOperator):
    """The first-order operator sum c * x_i d/dx_j of a matrix, from its
    entries {(x_i, x_j): c} with exact scalars c; zero entries are dropped.

    It is its own normal form: column x_j contributes the block d/dx_j with
    the linear coefficient sum_i c * x_i (``form``), so it is applied through
    one FormApplicator per variable order, built on first use and kept for
    the last ``_ORDERS_KEPT`` orders.  ``variables`` lists the variables of
    the entries once each, in entry order.  The node is read-only:
    ``entries`` is a read-only mapping and setting an attribute raises, so
    one node can be shared (``lie`` builds its fixed generators once per
    process)."""

    __slots__ = ("entries", "variables", "_applicators")
    _ORDERS_KEPT = 8

    def __init__(self, entries):
        entries = MappingProxyType({key: c for key, c in dict(entries).items() if c})
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "variables", tuple(dict.fromkeys(v for pair in entries for v in pair)))
        object.__setattr__(self, "_applicators", {})

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def form(self, vars: tuple) -> dict:
        """The normal form over vars: {((position of x_j, 1),): sum_i c * x_i}."""
        n = len(vars)
        zero = _pack((0,) * n)
        columns = {}
        for (xi, xj), c in self.entries.items():
            columns.setdefault(vars.index(xj), []).append((zero + _unit(n, vars.index(xi)), *_parts(c)))
        out = {}
        for j, terms in columns.items():
            den = math.lcm(*(part.denominator for _, re, im in terms for part in (re, im)))
            re = {key: re.numerator * (den // re.denominator) for key, re, _ in terms if re}
            im = {key: im.numerator * (den // im.denominator) for key, _, im in terms if im}
            out[((j, 1),)] = _reduced(re, im, den, n)
        return out

    def apply_form(self, q, vars):
        applicators = self._applicators
        applicator = applicators.get(vars)
        if applicator is None:
            if len(applicators) >= self._ORDERS_KEPT:
                del applicators[next(iter(applicators))]
            applicator = applicators[vars] = FormApplicator(self.form(vars))
        return applicator.apply_form(q)

    def __eq__(self, other):
        return isinstance(other, LinearVectorField) and self.entries == other.entries

    def __repr__(self):
        return f"LinearVectorField({dict(self.entries)})"


class DampedIntegration(LinearOperator):
    """Right inverse of a*d/dt + (d/dt)^2 for a nonzero exact scalar a.

    Applies the finite expansion sum_r a^(-r-1) (-d/dt)^r (the input is a
    polynomial, so the sum stops at its t-degree) and then integrates once.
    A negative power of t raises ValueError, since the sum would not end.
    """

    __slots__ = ("a", "tvar", "_ainv")

    def __init__(self, a, tvar: str = "t"):
        if not a:
            raise ValueError("degenerate dissipation")
        if isinstance(a, int):
            a = Fraction(a)
        self.a = a
        self.tvar = tvar
        self._ainv = coeff_inverse(a)

    def apply_form(self, q, vars):
        pos = vars.index(self.tvar)
        if pos in q.negative_positions():
            # the derivatives of a negative power never vanish
            raise ValueError(f"damped integration: negative power of {self.tvar}")
        if not q:
            return q
        ainv = self._ainv
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
    ValueError, since its derivatives never vanish.  The constructor is the
    one place that coerces the coefficients and checks this shape.

    Stage s inverts the first s blocks, so one inverse serves every prefix
    (``bases.flag_basis``).  No stage reads a variable outside its blocks
    and coefficients, so one application over the variables and a trailing
    tag maps a tagged batch (``poly._tagged``) of the forms of many
    prefixes at once: ``flag_basis`` makes one per level of a stage.  With
    R the stage s-1 inverse, f the s-th coefficient and D = Dvs^ms, it
    returns sum_i (-R f)^i R D^i(q), evaluated in Horner form:
    w_i = D^i(q) up to the last nonzero w_I, then
    acc = R(w_I) and acc = R(w_i - f*acc) for i = I-1 down to 0.  R is
    linear, so this is the same sum with I+1 calls of stage s-1 instead of
    (I+1)(I+2)/2.  The stages run on integer forms over one variable order,
    with the blocks put over each order once by ``plan``.  The Horner chain
    (the derivatives, the steps w_i - f*acc and the first-stage integrals)
    skips the gcd pass of each step, and ``_apply_stage`` reduces its result
    once, so no unreduced form leaves this class.
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
        for k in range(1, len(coeffs)):
            extra = coeffs[k].support_vars() - set(vars_[:k])
            if extra:
                raise NotAFlagSystemError(
                    f"not a flag system: the coefficient of the {vars_[k]} block"
                    f" depends on {sorted(extra)}"
                )
        self.coeffs = tuple(coeffs)
        self.vars_ = tuple(vars_)
        self.orders = tuple(orders)
        self._plans = {}

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
            negative = set().union(*(f.negative_positions() for f in forms))
            lead = coeff_inverse(self.coeffs[0].constant_term())
            plan = [(vars.index(self.vars_[0]), self.orders[0], lead, False)]
            for f, v, m in zip(forms, self.vars_[1:], self.orders[1:]):
                pos = vars.index(v)
                plan.append((pos, m, f, pos in negative))
            self._plans[vars] = plan
        return plan

    def apply_form(self, q, vars):
        return self._apply_stage(len(self.coeffs), q, vars)

    def _apply_stage(self, s: int, q: _IntForm, vars: tuple) -> _IntForm:
        """The inverse of the first s blocks on q, reduced once."""
        plan = self.plan(vars)
        negative = q.negative_positions()
        if negative:
            # negative powers in the input: check their block variables at every stage
            plan = plan[:1] + [(pos, m, f, neg or pos in negative) for pos, m, f, neg in plan[1:]]
        out = self._stage(s, q, plan)
        return _reduced(out.re, out.im, out.den, out.n)

    def _stage(self, s: int, q: _IntForm, plan) -> _IntForm:
        """Stage s on q, left unreduced: no step of the chain takes a gcd
        pass, and ``apply_form`` reduces the result once."""
        pos, m, f, is_laurent = plan[s - 1]
        if s == 1:
            out = q.integrate(pos, m, reduce=False)
            return out if f == 1 else out.scaled(f, reduce=False)
        if is_laurent and pos in q.negative_positions():
            # the derivatives of a negative power never vanish
            raise ValueError(
                f"nested right inverse: negative exponent in block variable {self.vars_[s - 1]}"
            )
        ws = []
        w = q
        while w:
            ws.append(w)
            w = w.diff(pos, m, reduce=False)
        if not ws:
            return q
        acc = self._stage(s - 1, ws.pop(), plan)
        while ws:
            acc = self._stage(s - 1, ws.pop().minus_product(f, acc), plan)
        return acc

    def __repr__(self):
        blocks = ", ".join(
            f"({c})*d{v}^{m}" for c, v, m in zip(self.coeffs, self.vars_, self.orders)
        )
        return f"NestedRightInverse[{blocks}]"


def _variables_in_order(op: LinearOperator):
    """The variables of op in tree order, with repeats."""
    if isinstance(op, (Derivative, Integrate)):
        yield op.var
    elif isinstance(op, MultiplyBy):
        yield from op.poly.vars
    elif isinstance(op, (Sum, Compose)):
        for sub in op.ops:
            yield from _variables_in_order(sub)
    elif isinstance(op, LinearVectorField):
        yield from op.variables
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


def differential_form(op: LinearOperator, vars: tuple):
    """op as sum_alpha c_alpha(x) d^alpha, or None outside that class.

    Returns {alpha: c_alpha}: alpha is a tuple of (position in vars, order)
    pairs sorted by position, () for the identity, and c_alpha a nonzero
    integer form over vars, which holds every variable of op.  Derivative,
    MultiplyBy, LinearVectorField (its own ``form``), Scale, Sum and Compose
    are covered; Compose moves each derivative right past the coefficients
    after it by the Leibniz rule.
    Any other node (integrations, right inverses) gives None.
    """
    if isinstance(op, Derivative):
        return {((vars.index(op.var), op.order),) if op.order else (): _IntForm.one(len(vars))}
    if isinstance(op, MultiplyBy):
        return {} if op.poly.is_zero() else {(): op.form(vars)}
    if isinstance(op, LinearVectorField):
        return op.form(vars)
    if isinstance(op, Scale):
        return {(): _IntForm.one(len(vars)).scaled(op.scalar)} if op.scalar else {}
    if isinstance(op, Sum):
        out = {}
        for sub in op.ops:
            form = differential_form(sub, vars)
            if form is None:
                return None
            for alpha, c in form.items():
                _add_form_term(out, alpha, c)
        return out
    if isinstance(op, Compose):
        # the last factor's form starts the fold: composing with the identity adds nothing
        out = None
        for sub in reversed(op.ops):
            form = differential_form(sub, vars)
            if form is None:
                return None
            out = form if out is None else _compose_forms(form, out)
        return {(): _IntForm.one(len(vars))} if out is None else out
    return None


def _add_form_term(form: dict, alpha: tuple, c: _IntForm):
    if alpha in form:
        c = form[alpha] + c
    if not c:
        form.pop(alpha, None)
    else:
        form[alpha] = c


def _compose_forms(a: dict, b: dict) -> dict:
    """The form of A after B: c_alpha d^alpha (c_beta d^beta u) expanded by
    d^alpha (f w) = sum_(gamma <= alpha) C(alpha, gamma) d^gamma f d^(alpha-gamma) w."""
    out = {}
    _add_composition(out, a, b, sign=1, leading=True)
    return out


def _add_composition(out: dict, a: dict, b: dict, sign: int, leading: bool):
    """Add sign times the Leibniz terms of A after B into the form dict out;
    without `leading` the gamma = 0 terms c_alpha c_beta d^(alpha+beta) are
    left out."""
    for alpha, ca in a.items():
        # per gamma <= alpha: the derivatives taken of c_beta, those left on
        # w, and sign C(alpha, gamma) c_alpha; all independent of beta
        splits = []
        gammas = itertools.product(*(range(m + 1) for _, m in alpha))
        for gamma in gammas if leading else itertools.islice(gammas, 1, None):
            pairs = list(zip(alpha, gamma))
            weight = sign * math.prod(math.comb(m, g) for (_, m), g in pairs)
            splits.append((
                [(i, g) for (i, _), g in pairs if g],
                [(i, m - g) for (i, m), g in pairs if m > g],
                ca.scaled(weight) if weight != 1 else ca,
            ))
        for beta, cb in b.items():
            for on_coeff, on_w, weighted in splits:
                coeff = cb
                for i, g in on_coeff:
                    coeff = coeff.diff(i, g)
                if not coeff:
                    continue
                orders = dict(beta)
                for i, m in on_w:
                    orders[i] = orders.get(i, 0) + m
                _add_form_term(out, tuple(sorted(orders.items())), weighted * coeff)


def forms_commute(form_a: dict, form_b: dict) -> bool:
    """True when [A, B] = 0, given their normal forms over one order.

    The commutator is accumulated in one form dict from the Leibniz terms
    of A after B minus those of B after A with gamma != 0: the gamma = 0
    terms c_alpha c_beta d^(alpha+beta) of the two sides are equal, since
    the coefficients commute, and cancel.  So this is the same proof in
    every degree without building either product in full."""
    out = {}
    _add_composition(out, form_a, form_b, sign=1, leading=False)
    _add_composition(out, form_b, form_a, sign=-1, leading=False)
    return not out


class TrigApplicator:
    """An operator on P cos(at) + Q sin(at) for one frequency a and time
    variable t, through its normal form, built once.

    On (P, Q), d/dt acts as dt + aJ with J(P, Q) = (Q, -P), J^2 = -1 and
    J commuting with dt and every coefficient.  Expanding each dt^k by
    the binomial theorem splits the form into M0 (even powers of J) and
    M1 (odd), and L(P cos + Q sin) = (M0 P + M1 Q) cos + (M0 Q - M1 P) sin.
    M0 and M1 are FormApplicators over the variables of the given polys,
    then the operator's, the order the outputs are over; the parts of
    every trig polynomial applied must lie over those.  An operator
    without a normal form raises TypeError.
    """

    __slots__ = ("frequency", "time_var", "_vars", "_laurent", "_m0", "_m1")

    def __init__(self, op: LinearOperator, frequency, time_var: str, polys):
        vs, laurent = _chain_order(polys, [op])
        form = differential_form(op, vs)
        if form is None:
            raise TypeError(f"{op!r} is not defined on the trig-polynomial ring")
        self.frequency = a = Fraction(frequency)
        self.time_var = time_var
        self._vars, self._laurent = vs, laurent
        t = vs.index(time_var) if time_var in vs else None
        halves = ({}, {})
        for alpha, c in form.items():
            k = dict(alpha).get(t, 0)
            rest = tuple(o for o in alpha if o[0] != t)
            for j in range(k + 1):
                # C(k, j) a^j J^j dt^(k-j), with J^j = (-1)^(j // 2) J^(j % 2)
                weight = math.comb(k, j) * a**j * (-1) ** (j // 2)
                beta = tuple(sorted(rest + ((t, k - j),))) if j < k else rest
                _add_form_term(halves[j % 2], beta, c.scaled(weight))
        self._m0, self._m1 = (FormApplicator(h) for h in halves)

    def __call__(self, u: TrigPolynomial) -> TrigPolynomial:
        if (u.frequency, u.time_var) != (self.frequency, self.time_var):
            raise ValueError(f"built for frequency {self.frequency} in {self.time_var}, "
                             f"got {u.frequency} in {u.time_var}")
        m0, m1, vs = self._m0, self._m1, self._vars
        parts = (u.cos_part, u.sin_part)
        laurent = self._laurent.union(*(part.laurent for part in parts))
        p, q = (_int_form(part, vs) for part in parts)
        cos = (m0.apply_form(p) + m1.apply_form(q)).to_poly(vs, laurent)
        sin = (m0.apply_form(q) - m1.apply_form(p)).to_poly(vs, laurent)
        return TrigPolynomial(cos, sin, u.frequency, u.time_var)


def form_map(op: LinearOperator, vars: tuple):
    """op as a map of integer forms over the order `vars`, which holds all of
    op's variables: one FormApplicator's ``apply_form`` when op has a
    differential form, else op's own ``apply_form`` over vars.  Its images
    are reduced, so a residual check tests one for zero or compares it with
    another form over vars.  A caller builds it once per call; no map is
    kept on the operator."""
    form = differential_form(op, vars)
    if form is None:
        return lambda q: op.apply_form(q, vars)
    return FormApplicator(form).apply_form


def max_derivative_order(op: LinearOperator) -> int:
    if isinstance(op, Derivative):
        return op.order
    if isinstance(op, (Sum, Compose)):
        return max((max_derivative_order(sub) for sub in op.ops), default=0)
    return 0


def operators_agree_on_sample(op_a, op_b, vars) -> bool:
    """Whether op_a and op_b act alike, decided exactly: by equal normal
    forms, a proof in every degree, when both have one; else (integrations,
    right inverses) on every monomial of total degree <= 2 over the sorted
    vars (x when there are none), as integer forms over those variables
    followed by the operators' own."""
    vs, _ = _chain_order([], [op_a, op_b])
    form_a = differential_form(op_a, vs)
    form_b = differential_form(op_b, vs) if form_a is not None else None
    if form_b is not None:
        return form_a == form_b
    sample = tuple(sorted(vars)) or ("x",)
    vs = tuple(dict.fromkeys(sample + vs))
    pad = (0,) * (len(vs) - len(sample))
    apply_a, apply_b = form_map(op_a, vs), form_map(op_b, vs)
    return all(
        apply_a(m) == apply_b(m)
        for m in (_IntForm({_pack(exp + pad): 1}, {}, 1, len(vs))
                  for exp in tuples_with_sum_at_most(len(sample), 2))
    )


@dataclass
class SeriesConfig:
    """Hypotheses for the perturbation series: T1 with right inverse, plus T2.

    On construction the right-inverse law T1(T1inv(p)) = p is checked
    exactly by ``operators_agree_on_sample``, over the variables of both:
    by normal forms when T1 T1inv has one, else on every monomial of degree
    <= 2.  The series solvers then verify every output.  Termination is
    detected by the series hitting the exact zero polynomial, and a series
    still nonzero after ``iteration_bound`` steps raises.
    """

    t1: LinearOperator
    t1_inverse: LinearOperator
    t2: LinearOperator

    def __post_init__(self):
        t1, inverse = self.t1, self.t1_inverse
        vars_ = operator_variables(t1) | operator_variables(inverse)
        if not operators_agree_on_sample(Compose(t1, inverse), identity(), vars_):
            raise OperatorHypothesisError("t1_inverse is not a right inverse of t1")

    def iteration_bound(self, seed: Polynomial) -> int:
        """The step bound of the series from seed: the larger of
        2 + deg(seed) * (largest derivative order in T2) and, where T2 has a
        flag weighting (``_flag_weights``), 2 + the weighted degree of seed,
        which bounds the steps of every seed without a negative exponent on
        a weighted variable."""
        bound = 2 + seed.total_degree() * max(1, max_derivative_order(self.t2))
        if self._weights:
            w = [self._weights.get(v, 0) for v in seed.vars]
            n = len(w)
            keys = itertools.chain(seed.form.re, seed.form.im)
            bound = max(bound, 2 + max((sum(a * e for a, e in zip(w, _unpack(key, n))) for key in keys), default=0))
        return bound

    @functools.cached_property
    def _weights(self):
        return _flag_weights(self.t2, operator_variables(self.t1_inverse))


def _flag_weights(t2: LinearOperator, fixed: frozenset):
    """{variable: weight} under which each step of the series lowers the
    weighted degree sum_v w_v * (exponent of v) by at least 1, or None.

    T1inv reads only the variables in fixed, which weigh 0, so it leaves the
    weighted degree alone.  T2 must be of flag shape: each block of its
    normal form is one pure derivative d^m/dx_i^m, at most one per variable
    and none of a fixed one, and the blocks can be ordered so that each
    coefficient holds no variable of its own or a later block, and no
    negative power of an earlier one.  Then w_i = ceil((1 + max_e sum_j
    e_j w_j) / m) over the coefficient's terms x^e, so each term of T2 lowers
    the weighted degree by at least 1, and the variables without a block
    weigh 0."""
    vs = tuple(dict.fromkeys(_variables_in_order(t2)))
    form = differential_form(t2, vs)
    if not form:
        return None
    n, blocks = len(vs), {}
    for alpha, c in form.items():
        if len(alpha) != 1 or vs[alpha[0][0]] in fixed:
            return None
        (i, m), = alpha
        if i in blocks:
            return None
        blocks[i] = (m, [_unpack(key, n) for key in itertools.chain(c.re, c.im)])
    weights = [0] * n
    while blocks:
        ready = [i for i, (_, exps) in blocks.items() if not any(e[j] for e in exps for j in blocks)]
        if not ready:
            return None
        for i in ready:
            m, exps = blocks.pop(i)
            if any(e[j] < 0 for e in exps for j in range(n) if weights[j]):
                return None
            top = max(sum(a * w for a, w in zip(e, weights)) for e in exps)
            weights[i] = (top + m) // m
    return {v: w for v, w in zip(vs, weights) if w}


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
    for _ in range(cfg.iteration_bound(term.to_poly(vs, frozenset()))):
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
    vs, _ = _chain_order([total], [op])
    if form_map(op, vs)(_int_form(total, vs)):
        raise VerificationError(f"series output is not annihilated; residual {op(total)}")
    return total


def right_inverse_series(cfg: SeriesConfig, f: Polynomial) -> Polynomial:
    """Preimage of f under T1 + T2 via sum_i (-T1inv T2)^i T1inv, verified exactly."""
    vs, laurent = _chain_order([f], [cfg.t1_inverse, cfg.t2])
    first = cfg.t1_inverse.apply_form(_int_form(f, vs), vs)
    total = _series(cfg, first, vs).to_poly(vs, laurent)
    op = Sum((cfg.t1, cfg.t2))
    vs, _ = _chain_order([total, f], [op])
    if form_map(op, vs)(_int_form(total, vs)) != _int_form(f, vs):
        raise VerificationError(f"right inverse output mismatch; residual {op(total) - f}")
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
        re, im = _parts(op.scalar)
        return {"op": "scale", "re": str(re), "im": str(im)}
    if isinstance(op, Sum):
        return {"op": "sum", "terms": [op_to_json(sub) for sub in op.ops]}
    if isinstance(op, Compose):
        return {"op": "compose", "factors": [op_to_json(sub) for sub in op.ops]}
    if isinstance(op, DampedIntegration):
        re, im = _parts(op.a)
        return {"op": "damped_integration", "var": op.tvar, "re": str(re), "im": str(im)}
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
