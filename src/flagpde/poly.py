"""Exact sparse polynomial arithmetic over the rationals and Gaussian rationals.

A polynomial is one integer form (``_IntForm``): integer numerators for
the real and the imaginary part of each term, keyed by exponent tuples over
the polynomial's variable order, over one positive common denominator that
shares no factor with them all, the layout of FLINT's fmpq_poly.  Every
ring step (sum, difference, product, scalar multiple, power, derivative,
antiderivative, substitution, real and imaginary part, equality) runs on
forms; operands over different variable orders are aligned by one remap of
their exponent tuples.  No step divides in floating point, and floats and
bools are refused as coefficients and exponents.

``Polynomial.terms`` is a read-only view, built on each read, that maps
every exponent tuple to its exact coefficient in the smallest type: an
``int`` when integral, else a ``fractions.Fraction``, and a
``GaussianRational`` (re + im*sqrt(-1) with rational parts) only when the
imaginary part is nonzero.  Printing and serialization read that view.

Exponents are non-negative unless the variable was declared Laurent at
construction time, in which case negative powers are allowed everywhere
except under integration across the -1 exponent.

The zero polynomial has no terms.  All values are immutable by
convention: operations never mutate their operands and always return
reduced forms, so equal polynomials over one variable order have equal
forms.  Canonical term order is graded lexicographic, descending, with
respect to the polynomial's declared variable order; serialization uses
that order so equal polynomials print and dump identically.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from operator import add as _add
from typing import Iterable, Mapping, Union

from .combinatorics import falling

__all__ = [
    "Fraction",
    "GaussianRational",
    "IMAG",
    "NonIntegrableTermError",
    "Polynomial",
    "TrigPolynomial",
    "constant",
    "variable",
]


class NonIntegrableTermError(ValueError):
    """Raised when integration meets an exponent of -1 in the target variable."""


_INEXACT = (float, complex, bool)


class GaussianRational:
    """An exact element re + im*sqrt(-1) of the Gaussian rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Fraction(0.1) would keep the binary expansion of the float
        if isinstance(re, _INEXACT) or isinstance(im, _INEXACT):
            raise TypeError(f"not an exact Gaussian part: {re!r}, {im!r}")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other):
        o = _as_gaussian(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_gaussian(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _as_gaussian(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _as_gaussian(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_gaussian(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _as_gaussian(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = _as_gaussian(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        norm = self.abs2()
        if not norm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


IMAG = GaussianRational(0, 1)

Coefficient = Union[int, Fraction, GaussianRational]


def _as_gaussian(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def _parts(value):
    """The real and imaginary parts of an exact scalar, each an int or a Fraction."""
    if type(value) is int or isinstance(value, Fraction):
        return value, 0
    if isinstance(value, GaussianRational):
        return value.re, value.im
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 0
    raise TypeError(f"not an exact coefficient: {value!r}")


def _is_scalar(value) -> bool:
    return isinstance(value, (int, Fraction, GaussianRational)) and not isinstance(value, bool)


def _collapsed(a: int, b: int, den: int):
    """(a + b sqrt(-1))/den as the smallest exact type: an int when integral,
    else a Fraction, a GaussianRational only when b is nonzero."""
    if b:
        return GaussianRational(Fraction(a, den), Fraction(b, den))
    q, r = divmod(a, den)
    return Fraction(a, den) if r else q


def _ratio_text(a: int, den: int) -> str:
    """a/den in lowest terms as str(Fraction(a, den)) writes it."""
    if den == 1:
        return str(a)
    g = math.gcd(a, den)
    return str(a // g) if g == den else f"{a // g}/{den // g}"


def coeff_inverse(value):
    if isinstance(value, GaussianRational):
        return value.inverse()
    return Fraction(1) / value


class Polynomial:
    """An exact polynomial: an integer form (``_IntForm``) over the variable
    order `vars`, with negative exponents allowed for the variables in
    `laurent`.  ``terms`` is a view of it with exact coefficients."""

    __slots__ = ("vars", "laurent", "form")

    def __init__(
        self,
        vars: Iterable[str] = (),
        terms: Mapping[tuple, Coefficient] | None = None,
        laurent: Iterable[str] = (),
    ):
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variables in {vs}")
        lr = frozenset(laurent)
        entries = []
        den = 1
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(vs):
                raise ValueError(f"exponent {exp} does not match variables {vs}")
            for v, e in zip(vs, exp):
                if type(e) is not int:
                    raise TypeError(f"not an integer exponent: {e!r}")
                if e < 0 and v not in lr:
                    raise ValueError(f"negative exponent for non-Laurent variable {v}")
            re, im = _parts(c)
            if re or im:
                entries.append((exp, re, im))
                den = math.lcm(den, re.denominator, im.denominator)
        # the lcm of the reduced denominators leaves numerators and den coprime
        form = _IntForm(
            {exp: re.numerator * (den // re.denominator) for exp, re, _ in entries if re},
            {exp: im.numerator * (den // im.denominator) for exp, _, im in entries if im},
            den,
        )
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "laurent", lr)
        object.__setattr__(self, "form", form)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(vars: Iterable[str] = (), laurent: Iterable[str] = ()) -> "Polynomial":
        return Polynomial(vars, {}, laurent)

    @staticmethod
    def const(value: Coefficient, vars: Iterable[str] = (), laurent=()) -> "Polynomial":
        vs = tuple(vars)
        return Polynomial(vs, {(0,) * len(vs): value}, laurent)

    # -- basic queries --------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, built from the form on each read,
        each coefficient collapsed to an int, a Fraction or a GaussianRational."""
        re, im, den = self.form.re, self.form.im, self.form.den
        if den == 1 and not im:
            return dict(re)
        out = {exp: _collapsed(a, im.get(exp, 0), den) for exp, a in re.items()}
        for exp, b in im.items():
            if exp not in re:
                out[exp] = _collapsed(0, b, den)
        return out

    def is_zero(self) -> bool:
        return not self.form

    def total_degree(self) -> int:
        """Maximum term degree (0 for the zero polynomial)."""
        return self.form.total_degree()

    def support_vars(self) -> frozenset:
        """Variables that occur with a nonzero exponent in some term."""
        used = set()
        for exp in itertools.chain(self.form.re, self.form.im):
            for v, e in zip(self.vars, exp):
                if e:
                    used.add(v)
        return frozenset(used)

    def constant_term(self):
        return self.coefficient({})

    def coefficient(self, exponents: Mapping[str, int]):
        """Coefficient of the monomial given as a {var: exponent} mapping."""
        for v, e in exponents.items():
            if e and v not in self.vars:
                return 0
        key = tuple(exponents.get(v, 0) for v in self.vars)
        f = self.form
        return _collapsed(f.re.get(key, 0), f.im.get(key, 0), f.den)

    # -- alignment ------------------------------------------------------------

    def _aligned_with(self, other: "Polynomial"):
        lr = self.laurent | other.laurent
        if self.vars == other.vars:
            return self.vars, lr, self.form, other.form
        vs = self.vars + tuple(v for v in other.vars if v not in self.vars)
        return vs, lr, _int_form(self, vs), _int_form(other, vs)

    def _coerced(self, other):
        """other as a Polynomial, a scalar as a constant over self's variables;
        None for any other type."""
        if isinstance(other, Polynomial):
            return other
        if _is_scalar(other):
            return Polynomial.const(other, self.vars, self.laurent)
        return None

    def with_variables(self, vars: Iterable[str], laurent=()) -> "Polynomial":
        """Re-express over a superset of variables (order taken from `vars`)."""
        vs = tuple(vars)
        missing = [v for v in self.vars if v not in vs]
        if missing:
            raise ValueError(f"target variable set misses {missing}")
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variables in {vs}")
        return _int_form(self, vs).to_poly(vs, self.laurent | frozenset(laurent))

    def with_laurent(self, *names: str) -> "Polynomial":
        return self.form.to_poly(self.vars, self.laurent | frozenset(names))

    # -- ring operations ------------------------------------------------------

    def _combined(self, other, step):
        """step on the aligned forms of self and other (a scalar taken as a constant)."""
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        vs, lr, a, b = self._aligned_with(other)
        return step(a, b).to_poly(vs, lr)

    def __add__(self, other):
        return self._combined(other, _IntForm.__add__)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combined(other, _IntForm.__sub__)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return (-self.form).to_poly(self.vars, self.laurent)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            vs, lr, a, b = self._aligned_with(other)
            return (a * b).to_poly(vs, lr)
        if _is_scalar(other):
            return self.form.scaled(other).to_poly(self.vars, self.laurent)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_scalar(other):
            return self * coeff_inverse(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = _IntForm.one(len(self.vars))
        for _ in range(exponent):
            out = out * self.form
        return out.to_poly(self.vars, self.laurent)

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        _, _, a, b = self._aligned_with(other)
        return a == b

    def __hash__(self):
        raise TypeError("Polynomial is not hashable")

    # -- calculus -------------------------------------------------------------

    def diff(self, var: str, order: int = 1) -> "Polynomial":
        """Exact formal partial derivative; Laurent exponents follow the power rule."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        if order == 0:
            return self
        if var not in self.vars:
            return _IntForm.zero().to_poly(self.vars, self.laurent)
        return self.form.diff(self.vars.index(var), order).to_poly(self.vars, self.laurent)

    def integrate(self, var: str) -> "Polynomial":
        """Definite-style antiderivative in `var` with zero constant of integration.

        Each monomial x^a maps to x^(a+1)/(a+1); an exponent of -1 in `var`
        has no polynomial antiderivative and raises NonIntegrableTermError.
        """
        return self._integrated(var, 1)

    def integrate_n(self, var: str, order: int) -> "Polynomial":
        """`order` antiderivatives in `var` in one step: x^a maps to
        x^(a+order) a!/(a+order)!, and an exponent a with
        -order <= a <= -1 raises NonIntegrableTermError."""
        return self._integrated(var, order) if order > 0 else self

    def _integrated(self, var, order):
        p = self if var in self.vars else self.with_variables(self.vars + (var,))
        return p.form.integrate(p.vars.index(var), order).to_poly(p.vars, p.laurent)

    # -- substitution and evaluation -------------------------------------------

    def substitute(self, var: str, value) -> "Polynomial":
        """Replace `var` by an exact scalar or another Polynomial."""
        if var not in self.vars:
            return self
        if not (_is_scalar(value) or isinstance(value, Polynomial)):
            raise TypeError(f"cannot substitute value of type {type(value)!r}")
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        lr = self.laurent - {var}
        # the terms by their exponent of var, over the remaining variables
        groups = {}
        for k, part in enumerate((self.form.re, self.form.im)):
            for exp, a in part.items():
                groups.setdefault(exp[i], ({}, {}))[k][exp[:i] + exp[i + 1 :]] = a
        pieces = [(e, _IntForm(re, im, self.form.den)) for e, (re, im) in groups.items()]
        if _is_scalar(value):
            if not value and any(e < 0 for e, _ in pieces):
                raise ZeroDivisionError("substituting zero into a negative power")
            vs = rest
            forms = [f.scaled(value**e if e >= 0 else coeff_inverse(value) ** -e) for e, f in pieces]
        else:
            if any(e < 0 for e, _ in pieces):
                raise ValueError("cannot substitute a polynomial into a negative power")
            vs = rest + tuple(v for v in value.vars if v not in rest)
            lr |= value.laurent
            base, powers = _int_form(value, vs), [_IntForm.one(len(vs))]
            for _ in range(max((e for e, _ in pieces), default=0)):
                powers.append(powers[-1] * base)
            pad = (0,) * (len(vs) - len(rest))
            forms = [_remapped(f, lambda exp: exp + pad) * powers[e] for e, f in pieces]
        return _sum_forms(forms).to_poly(vs, lr)

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every variable must be assigned."""
        point = []
        for v in self.vars:
            if v not in values:
                raise KeyError(f"no value for variable {v}")
            point.append(complex(values[v]))
        # the numerators over den, in the order of the `terms` view; a / den
        # rounds correctly, as float() of the view's coefficient does
        re, im, den = self.form.re, self.form.im, self.form.den
        total = 0j
        for exp in itertools.chain(re, (e for e in im if e not in re)):
            term = complex(re.get(exp, 0) / den, im.get(exp, 0) / den)
            for val, e in zip(point, exp):
                if e:
                    term *= val**e
            total += term
        return total

    def real_part(self) -> "Polynomial":
        return _reduced(self.form.re, {}, self.form.den).to_poly(self.vars, self.laurent)

    def imag_part(self) -> "Polynomial":
        return _reduced(self.form.im, {}, self.form.den).to_poly(self.vars, self.laurent)

    # -- canonical form and serialization ---------------------------------------

    def sorted_terms(self):
        """Terms in canonical graded-lexicographic descending order."""
        # exponents are unique keys, so no two terms tie
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def text_terms(self) -> list:
        """(exponent tuple, real part, imaginary part) per term in canonical
        order, each part written as str(Fraction) writes it.  The order is
        total degree descending, ties lexicographically descending: a
        lexicographic sort followed by a stable sort on the degree."""
        re, im, den = self.form.re, self.form.im, self.form.den
        keys = sorted(re.keys() | im.keys() if im else re, reverse=True)
        keys.sort(key=sum, reverse=True)
        if not im:
            return [(exp, _ratio_text(re[exp], den), "0") for exp in keys]
        return [
            (exp, _ratio_text(re.get(exp, 0), den), _ratio_text(im.get(exp, 0), den)) for exp in keys
        ]

    def to_json_terms(self):
        return [
            {"exp": {v: e for v, e in zip(self.vars, exp) if e}, "re": re, "im": im}
            for exp, re, im in self.text_terms()
        ]

    @staticmethod
    def from_json_terms(data, variables=None, laurent=()) -> "Polynomial":
        names = set()
        for entry in data:
            names.update(entry.get("exp", {}))
        if variables is None:
            variables = tuple(sorted(names))
        else:
            variables = tuple(variables)
            extra = names - set(variables)
            if extra:
                raise ValueError(f"terms use undeclared variables {sorted(extra)}")
        terms = {}
        for entry in data:
            exp = tuple(entry.get("exp", {}).get(v, 0) for v in variables)
            try:
                c = GaussianRational(Fraction(entry["re"]), Fraction(entry.get("im", "0")))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {entry}") from None
            c = terms.get(exp, 0) + c
            if c:
                terms[exp] = c
            else:
                terms.pop(exp, None)
        return Polynomial(variables, terms, laurent)

    def __str__(self):
        if not self.form:
            return "0"
        rendered = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e != 1 else v for v, e in zip(self.vars, exp) if e
            )
            if isinstance(c, (int, Fraction)):
                sign = "-" if c < 0 else "+"
                mag = str(abs(c))
                body = mono if mag == "1" and mono else (f"{mag}*{mono}" if mono else mag)
            else:
                sign = "+"
                body = f"{c}*{mono}" if mono else str(c)
            rendered.append((sign, body))
        head_sign, head = rendered[0]
        out = head if head_sign == "+" else f"-{head}"
        for sign, body in rendered[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"<Polynomial {self}>"


class _IntForm:
    """sum_e (re[e] + im[e]*sqrt(-1)) x^e / den over a variable order the
    caller holds fixed: integer numerator dicts over one positive common
    denominator, the layout of FLINT's fmpq_poly.

    Every Polynomial is one of these over its own variables, and every ring
    step of this module runs here.  The steps return forms without zero
    entries in which den and all the numerators have gcd 1 (one math.gcd
    pass per result), so equal values have equal fields.  ``diff``,
    ``integrate`` and ``scaled`` skip the gcd pass when called with
    reduce=False, and ``minus_product`` always does; such a form has no zero
    entries but may carry a common factor, so it must not be compared,
    wrapped or returned.  Only a chain of steps that reduces its own result
    once uses them (``operators.NestedRightInverse``).  ``_int_form`` puts a Polynomial over
    another variable order and ``to_poly`` wraps a form as one.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re: dict, im: dict, den: int):
        self.re = re
        self.im = im
        self.den = den

    @staticmethod
    def zero() -> "_IntForm":
        return _IntForm({}, {}, 1)

    @staticmethod
    def one(width: int) -> "_IntForm":
        return _IntForm({(0,) * width: 1}, {}, 1)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def total_degree(self) -> int:
        """Maximum term degree (0 for the zero form)."""
        return max((sum(exp) for exp in itertools.chain(self.re, self.im)), default=0)

    def __eq__(self, other):
        # ring steps return reduced forms, so equal values have equal fields
        if not isinstance(other, _IntForm):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    __hash__ = None

    def to_poly(self, vars: tuple, laurent: frozenset) -> Polynomial:
        """The Polynomial over `vars` that holds this form, which must be
        reduced and over vars: the constructor of every ring step."""
        p = object.__new__(Polynomial)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "laurent", laurent)
        object.__setattr__(p, "form", self)
        return p

    def __neg__(self):
        return _IntForm(
            {e: -a for e, a in self.re.items()}, {e: -a for e, a in self.im.items()}, self.den
        )

    def __add__(self, other: "_IntForm") -> "_IntForm":
        return self._combine(other, 1)

    def __sub__(self, other: "_IntForm") -> "_IntForm":
        return self._combine(other, -1)

    def _combine(self, other, sign):
        d = math.lcm(self.den, other.den)
        ka, kb = d // self.den, sign * (d // other.den)
        return _reduced(
            _scaled_sum(self.re, ka, other.re, kb), _scaled_sum(self.im, ka, other.im, kb), d
        )

    def __mul__(self, other: "_IntForm") -> "_IntForm":
        re, im = {}, {}
        _add_product(re, im, self, other, 1)
        return _reduced(_nonzero(re), _nonzero(im), self.den * other.den)

    def minus_product(self, f: "_IntForm", g: "_IntForm") -> "_IntForm":
        """self - f*g in one pass: the product's numerators are added into
        self's at the lcm of the denominators.  The result is cleared of zero
        entries but left unreduced, for a chain that reduces once."""
        pden = f.den * g.den
        d = math.lcm(self.den, pden)
        k = d // self.den
        re = {e: a * k for e, a in self.re.items()}
        im = {e: a * k for e, a in self.im.items()}
        _add_product(re, im, f, g, -(d // pden))
        return _IntForm(_nonzero(re), _nonzero(im), d)

    def scaled(self, value, reduce: bool = True) -> "_IntForm":
        """The form times an exact scalar."""
        vr, vi = _parts(value)
        cd = math.lcm(vr.denominator, vi.denominator)
        cr, ci = vr.numerator * (cd // vr.denominator), vi.numerator * (cd // vi.denominator)
        re = {e: a * cr for e, a in self.re.items()} if cr else {}
        im = {e: a * cr for e, a in self.im.items()} if cr else {}
        if ci:
            re = _scaled_sum(re, 1, self.im, -ci)
            im = _scaled_sum(im, 1, self.re, ci)
        return (_reduced if reduce else _IntForm)(re, im, self.den * cd)

    def shifted(self, i: int, k: int, factor: int) -> "_IntForm":
        """The form times factor * x_i^k."""
        return _reduced(
            {e[:i] + (e[i] + k,) + e[i + 1 :]: a * factor for e, a in self.re.items()},
            {e[:i] + (e[i] + k,) + e[i + 1 :]: a * factor for e, a in self.im.items()},
            self.den,
        )

    def diff(self, i: int, m: int, reduce: bool = True) -> "_IntForm":
        """d^m/dx_i^m, each exponent e giving the integer e (e-1) ... (e-m+1)."""
        parts = []
        for d in (self.re, self.im):
            out = {}
            for exp, a in d.items():
                e = exp[i]
                k = math.perm(e, m) if e >= 0 else falling(e, m)
                if k:
                    out[exp[:i] + (e - m,) + exp[i + 1 :]] = a * k
            parts.append(out)
        return (_reduced if reduce else _IntForm)(parts[0], parts[1], self.den)

    def integrate(self, i: int, m: int, reduce: bool = True) -> "_IntForm":
        """m-fold antiderivative in x_i with zero constants: x^e maps to
        x^(e+m) e!/(e+m)!, the rising products (e+1)...(e+m) folded into the
        denominator through their lcm.  An exponent e with -m <= e <= -1
        reaches x^-1 on the way and raises NonIntegrableTermError."""
        rising = {}
        for exp in itertools.chain(self.re, self.im):
            e = exp[i]
            if e not in rising:
                if -m <= e <= -1:
                    raise NonIntegrableTermError("non-integrable Laurent term")
                rising[e] = math.perm(e + m, m) if e >= 0 else falling(e + m, m)
        scale = math.lcm(*rising.values()) if rising else 1
        for e, r in rising.items():
            rising[e] = scale // r
        return (_reduced if reduce else _IntForm)(
            {e[:i] + (e[i] + m,) + e[i + 1 :]: a * rising[e[i]] for e, a in self.re.items()},
            {e[:i] + (e[i] + m,) + e[i + 1 :]: a * rising[e[i]] for e, a in self.im.items()},
            self.den * scale,
        )


def _add_product(re: dict, im: dict, x: _IntForm, y: _IntForm, k: int):
    """Add k times the numerators of x*y into the dicts re and im."""
    # (a + i b)(c + i d) = (ac - bd) + i (ad + bc); an empty part skips its routes
    for xs, ys, out, sign in (
        (x.re, y.re, re, k),
        (x.im, y.im, re, -k),
        (x.re, y.im, im, k),
        (x.im, y.re, im, k),
    ):
        if not xs or not ys:
            continue
        get = out.get
        for ea, ca in xs.items():
            ca *= sign
            for eb, cb in ys.items():
                key = tuple(map(_add, ea, eb))
                out[key] = get(key, 0) + ca * cb


def _scaled_sum(x: dict, kx: int, y: dict, ky: int) -> dict:
    """kx * x + ky * y without zero entries."""
    out = {e: a * kx for e, a in x.items()} if kx != 1 else dict(x)
    get = out.get
    for e, b in y.items():
        s = get(e, 0) + b * ky
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _sum_forms(forms) -> _IntForm:
    """The sum of forms over one variable order, every numerator brought to
    the lcm of their denominators and the result reduced once."""
    forms = [f for f in forms if f]
    if len(forms) < 2:
        return forms[0] if forms else _IntForm.zero()
    d = math.lcm(*(f.den for f in forms))
    re, im = {}, {}
    for f in forms:
        k = d // f.den
        for out, part in ((re, f.re), (im, f.im)):
            get = out.get
            for e, a in part.items():
                out[e] = get(e, 0) + a * k
    return _reduced(_nonzero(re), _nonzero(im), d)


def _shifted_sum(pieces, i: int) -> _IntForm:
    """sum factor * x_i^k * form over the (form, k, factor) pieces, forms over
    one variable order, in one pass at the lcm of their denominators and
    reduced once."""
    d = math.lcm(*(f.den for f, _, _ in pieces))
    re, im = {}, {}
    for f, k, factor in pieces:
        scale = factor * (d // f.den)
        for out, part in ((re, f.re), (im, f.im)):
            get = out.get
            for e, a in part.items():
                key = e[:i] + (e[i] + k,) + e[i + 1 :]
                out[key] = get(key, 0) + a * scale
    return _reduced(_nonzero(re), _nonzero(im), d)


def _nonzero(d: dict) -> dict:
    return {e: a for e, a in d.items() if a}


def _reduced(re: dict, im: dict, den: int) -> _IntForm:
    """The form with numerators and denominator divided by their gcd."""
    if den == 1 or not (re or im):
        return _IntForm(re, im, 1)
    g = math.gcd(den, *re.values(), *im.values())
    if g != 1:
        re = {e: a // g for e, a in re.items()}
        im = {e: a // g for e, a in im.items()}
        den //= g
    return _IntForm(re, im, den)


def _remapped(form: _IntForm, move) -> _IntForm:
    """The form with every exponent tuple e replaced by move(e)."""
    return _IntForm(
        {move(e): a for e, a in form.re.items()}, {move(e): b for e, b in form.im.items()}, form.den
    )


def _int_form(p: Polynomial, vars: tuple) -> _IntForm:
    """p's form over the variable order `vars`: the form itself when p is
    over vars already, else one remap of its exponent tuples.  A variable
    of p missing from `vars` must have exponent 0 throughout."""
    if p.vars == vars:
        return p.form
    n = len(p.vars)
    if vars[:n] == p.vars:
        pad = (0,) * (len(vars) - n)
        return _remapped(p.form, lambda exp: exp + pad)
    idx = [vars.index(v) if v in vars else None for v in p.vars]
    width = len(vars)

    def move(exp):
        nexp = [0] * width
        for pos, v, e in zip(idx, p.vars, exp):
            if pos is not None:
                nexp[pos] = e
            elif e:
                raise ValueError(f"variable {v} is not in {vars}")
        return tuple(nexp)

    return _remapped(p.form, move)


def variable(name: str, laurent: bool = False) -> Polynomial:
    return Polynomial((name,), {(1,): 1}, (name,) if laurent else ())


def constant(value: Coefficient) -> Polynomial:
    return Polynomial.const(value)


class TrigPolynomial:
    """A function cos_part*cos(a*t) + sin_part*sin(a*t) with polynomial parts.

    The frequency a is a fixed rational.  The ring is closed under d/dt,
    which mixes the two parts with a frequency factor (``diff_time``), and
    so under every polynomial-coefficient differential operator;
    ``operators.LinearOperator.apply_trig`` applies one through its normal
    form.
    """

    __slots__ = ("cos_part", "sin_part", "frequency", "time_var")

    def __init__(self, cos_part: Polynomial, sin_part: Polynomial, frequency, time_var: str = "t"):
        object.__setattr__(self, "cos_part", cos_part)
        object.__setattr__(self, "sin_part", sin_part)
        object.__setattr__(self, "frequency", Fraction(frequency))
        object.__setattr__(self, "time_var", time_var)

    def __setattr__(self, name, value):
        raise AttributeError("TrigPolynomial is immutable")

    def is_zero(self) -> bool:
        return self.cos_part.is_zero() and self.sin_part.is_zero()

    def diff_time(self) -> "TrigPolynomial":
        # d/dt [P cos(at) + Q sin(at)] = (P' + aQ) cos(at) + (Q' - aP) sin(at)
        a = self.frequency
        t = self.time_var
        return TrigPolynomial(
            self.cos_part.diff(t) + a * self.sin_part,
            self.sin_part.diff(t) - a * self.cos_part,
            a,
            t,
        )

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        if self.frequency != other.frequency or self.time_var != other.time_var:
            raise ValueError("mismatched trig frequency or time variable")
        return TrigPolynomial(
            self.cos_part + other.cos_part,
            self.sin_part + other.sin_part,
            self.frequency,
            self.time_var,
        )

    def __neg__(self):
        return TrigPolynomial(-self.cos_part, -self.sin_part, self.frequency, self.time_var)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        return (
            self.frequency == other.frequency
            and self.time_var == other.time_var
            and self.cos_part == other.cos_part
            and self.sin_part == other.sin_part
        )

    def __hash__(self):
        raise TypeError("TrigPolynomial is not hashable")

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        t = complex(values[self.time_var])
        a = float(self.frequency)
        return self.cos_part.evaluate(values) * cmath.cos(a * t) + self.sin_part.evaluate(
            values
        ) * cmath.sin(a * t)

    def __str__(self):
        a = self.frequency
        return f"({self.cos_part})*cos({a}*{self.time_var}) + ({self.sin_part})*sin({a}*{self.time_var})"

    def __repr__(self):
        return f"<TrigPolynomial {self}>"
