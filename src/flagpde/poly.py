"""Exact sparse polynomial arithmetic over the rationals and Gaussian rationals.

A polynomial is stored as a dictionary mapping exponent tuples to exact
coefficients.  An integral coefficient is a Python ``int``, any other
rational one a ``fractions.Fraction``; a coefficient is promoted to
``GaussianRational`` (re + im*sqrt(-1) with rational parts) only when an
imaginary part actually appears.  Every result is collapsed back to the
smallest of these types: a Fraction with denominator 1 becomes its
numerator and a Gaussian coefficient whose imaginary part cancels becomes
its real part.  Floats and bools are refused, and no operation divides
coefficients in floating point.

Exponents are non-negative unless the variable was declared Laurent at
construction time, in which case negative powers are allowed everywhere
except under integration across the -1 exponent.

The zero polynomial has an empty term map.  All values are immutable by
convention: operations never mutate their operands and always return
canonical results (no stored zero coefficients).  Canonical term order is
graded lexicographic, descending, with respect to the polynomial's declared
variable order; serialization uses that order so equal polynomials print
and dump identically.
"""

from __future__ import annotations

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


def _norm_coeff(value: Coefficient):
    """Collapse to the smallest exact type: int when integral, else Fraction,
    GaussianRational only when the imaginary part is nonzero."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, GaussianRational):
        return _norm_coeff(value.re) if not value.im else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"not an exact coefficient: {value!r}")


def _quotient(value, d: int):
    """value / d for a nonzero int d, exact and collapsed."""
    if type(value) is int:
        q, r = divmod(value, d)
        return Fraction(value, d) if r else q
    return _norm_coeff(value / d)


def coeff_real(value):
    return value.re if isinstance(value, GaussianRational) else value


def coeff_imag(value):
    return value.im if isinstance(value, GaussianRational) else 0


def coeff_inverse(value):
    if isinstance(value, GaussianRational):
        return value.inverse()
    return Fraction(1) / value


def coeff_complex(value) -> complex:
    if isinstance(value, GaussianRational):
        return complex(value)
    return complex(float(value), 0.0)


class Polynomial:
    __slots__ = ("vars", "laurent", "terms")

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
        tm = {}
        if terms:
            for exp, c in terms.items():
                c = _norm_coeff(c)
                if not c:
                    continue
                exp = tuple(exp)
                if len(exp) != len(vs):
                    raise ValueError(f"exponent {exp} does not match variables {vs}")
                for v, e in zip(vs, exp):
                    if e < 0 and v not in lr:
                        raise ValueError(f"negative exponent for non-Laurent variable {v}")
                tm[exp] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "laurent", lr)
        object.__setattr__(self, "terms", tm)

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

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum term degree (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.vars or not self.terms:
            return 0
        i = self.vars.index(var)
        return max(exp[i] for exp in self.terms)

    def support_vars(self) -> frozenset:
        """Variables that occur with a nonzero exponent in some term."""
        used = set()
        for exp in self.terms:
            for v, e in zip(self.vars, exp):
                if e:
                    used.add(v)
        return frozenset(used)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def coefficient(self, exponents: Mapping[str, int]):
        """Coefficient of the monomial given as a {var: exponent} mapping."""
        key = tuple(exponents.get(v, 0) for v in self.vars)
        for v, e in exponents.items():
            if e and v not in self.vars:
                return 0
        return self.terms.get(key, 0)

    # -- alignment ------------------------------------------------------------

    def _aligned_with(self, other: "Polynomial"):
        if self.vars == other.vars:
            lr = self.laurent | other.laurent
            return self.vars, lr, self.terms, other.terms
        vs = self.vars + tuple(v for v in other.vars if v not in self.vars)
        lr = self.laurent | other.laurent
        return vs, lr, _remap(self, vs), _remap(other, vs)

    def with_variables(self, vars: Iterable[str], laurent=()) -> "Polynomial":
        """Re-express over a superset of variables (order taken from `vars`)."""
        vs = tuple(vars)
        missing = [v for v in self.vars if v not in vs]
        if missing:
            raise ValueError(f"target variable set misses {missing}")
        return Polynomial(vs, _remap(self, vs), self.laurent | frozenset(laurent))

    def with_laurent(self, *names: str) -> "Polynomial":
        return Polynomial(self.vars, self.terms, self.laurent | set(names))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction, GaussianRational)):
                other = Polynomial.const(other, self.vars, self.laurent)
            else:
                return NotImplemented
        vs, lr, ta, tb = self._aligned_with(other)
        out = dict(ta)
        get = out.get
        for exp, c in tb.items():
            s = get(exp, 0) + c
            if type(s) is not int:
                s = _norm_coeff(s)
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _make(vs, lr, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -_norm_coeff(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(self.vars, self.laurent, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction, GaussianRational)):
                c = _norm_coeff(other)
                if not c:
                    return Polynomial.zero(self.vars, self.laurent)
                return _make(
                    self.vars, self.laurent, {e: _norm_coeff(k * c) for e, k in self.terms.items()}
                )
            return NotImplemented
        vs, lr, ta, tb = self._aligned_with(other)
        out = {}
        get = out.get
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                exp = tuple(map(_add, ea, eb))
                s = get(exp, 0) + ca * cb
                if type(s) is not int:
                    s = _norm_coeff(s)
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return _make(vs, lr, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * coeff_inverse(_norm_coeff(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = Polynomial.const(1, self.vars, self.laurent)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.const(other, self.vars, self.laurent)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _, _, ta, tb = self._aligned_with(other)
        return ta == tb

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
            return _make(self.vars, self.laurent, {})
        i = self.vars.index(var)
        out = {}
        for exp, c in self.terms.items():
            e = exp[i]
            k = falling(e, order)
            if not k:
                continue
            nexp = exp[:i] + (e - order,) + exp[i + 1 :]
            out[nexp] = _norm_coeff(c * k)
        return _make(self.vars, self.laurent, out)

    def integrate(self, var: str) -> "Polynomial":
        """Definite-style antiderivative in `var` with zero constant of integration.

        Each monomial x^a maps to x^(a+1)/(a+1); an exponent of -1 in `var`
        has no polynomial antiderivative and raises NonIntegrableTermError.
        """
        p = self if var in self.vars else self.with_variables(self.vars + (var,))
        i = p.vars.index(var)
        out = {}
        for exp, c in p.terms.items():
            e = exp[i]
            if e == -1:
                raise NonIntegrableTermError("non-integrable Laurent term")
            nexp = exp[:i] + (e + 1,) + exp[i + 1 :]
            out[nexp] = _quotient(c, e + 1)
        return _make(p.vars, p.laurent, out)

    def integrate_n(self, var: str, order: int) -> "Polynomial":
        out = self
        for _ in range(order):
            out = out.integrate(var)
        return out

    # -- substitution and evaluation -------------------------------------------

    def substitute(self, var: str, value) -> "Polynomial":
        """Replace `var` by an exact scalar or another Polynomial."""
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        rest_vars = self.vars[:i] + self.vars[i + 1 :]
        if isinstance(value, (int, Fraction, GaussianRational)):
            value = _norm_coeff(value)
            out = {}
            for exp, c in self.terms.items():
                e = exp[i]
                if e < 0:
                    if not value:
                        raise ZeroDivisionError("substituting zero into a negative power")
                    factor = coeff_inverse(value) ** (-e)
                else:
                    factor = value**e
                nexp = exp[:i] + exp[i + 1 :]
                s = _norm_coeff(out.get(nexp, 0) + c * factor)
                if s:
                    out[nexp] = s
                else:
                    out.pop(nexp, None)
            return _make(rest_vars, self.laurent - {var}, out)
        if isinstance(value, Polynomial):
            acc = Polynomial.zero(rest_vars, self.laurent - {var})
            powers = {0: Polynomial.const(1, value.vars, value.laurent)}
            for exp, c in self.terms.items():
                e = exp[i]
                if e < 0:
                    raise ValueError("cannot substitute a polynomial into a negative power")
                if e not in powers:
                    powers[e] = value**e
                mono = _make(rest_vars, self.laurent - {var}, {exp[:i] + exp[i + 1 :]: c})
                acc = acc + mono * powers[e]
            return acc
        raise TypeError(f"cannot substitute value of type {type(value)!r}")

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every variable must be assigned."""
        point = []
        for v in self.vars:
            if v not in values:
                raise KeyError(f"no value for variable {v}")
            point.append(complex(values[v]))
        total = 0j
        for exp, c in self.terms.items():
            term = coeff_complex(c)
            for val, e in zip(point, exp):
                if e:
                    term *= val**e
            total += term
        return total

    def real_part(self) -> "Polynomial":
        out = {e: _norm_coeff(coeff_real(c)) for e, c in self.terms.items()}
        return _make(self.vars, self.laurent, {e: c for e, c in out.items() if c})

    def imag_part(self) -> "Polynomial":
        out = {e: _norm_coeff(coeff_imag(c)) for e, c in self.terms.items()}
        return _make(self.vars, self.laurent, {e: c for e, c in out.items() if c})

    # -- canonical form and serialization ---------------------------------------

    def sorted_terms(self):
        """Terms in canonical graded-lexicographic descending order."""
        return sorted(
            self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def to_json_terms(self):
        out = []
        for exp, c in self.sorted_terms():
            entry = {
                "exp": {v: e for v, e in zip(self.vars, exp) if e},
                "re": str(coeff_real(c)),
                "im": str(coeff_imag(c)),
            }
            out.append(entry)
        return out

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
            c = GaussianRational(Fraction(entry["re"]), Fraction(entry.get("im", "0")))
            c = _norm_coeff(terms.get(exp, 0) + c)
            if c:
                terms[exp] = c
            else:
                terms.pop(exp, None)
        return Polynomial(variables, terms, laurent)

    def __str__(self):
        if not self.terms:
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


def _make(vars, laurent, terms) -> Polynomial:
    """Internal fast constructor; terms are assumed canonical already."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "vars", vars)
    object.__setattr__(p, "laurent", laurent)
    object.__setattr__(p, "terms", terms)
    return p


def _remap(p: Polynomial, vars: tuple) -> dict:
    idx = [vars.index(v) for v in p.vars]
    width = len(vars)
    out = {}
    for exp, c in p.terms.items():
        nexp = [0] * width
        for pos, e in zip(idx, exp):
            nexp[pos] = e
        out[tuple(nexp)] = c
    return out


class _IntForm:
    """sum_e (re[e] + im[e]*sqrt(-1)) x^e / den over a variable order the
    caller holds fixed: integer numerator dicts over one positive common
    denominator, the layout of FLINT's fmpq_poly.

    The ring steps return forms without zero entries in which den and all
    the numerators have gcd 1 (one math.gcd pass per result); conversion in
    and out is `_int_form` and `to_poly`.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re: dict, im: dict, den: int):
        self.re = re
        self.im = im
        self.den = den

    @staticmethod
    def zero() -> "_IntForm":
        return _IntForm({}, {}, 1)

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
        """The Polynomial over `vars`, each coefficient formed once as an exact
        quotient and collapsed as _norm_coeff does."""
        re, im, den = self.re, self.im, self.den
        terms = {exp: _quotient(a, den) for exp, a in re.items() if a}
        for exp, b in im.items():
            if b:
                terms[exp] = GaussianRational(Fraction(re.get(exp, 0), den), Fraction(b, den))
        return _make(vars, laurent, terms)

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
        # (a + i b)(c + i d) = (ac - bd) + i (ad + bc); an empty part skips its routes
        for x, y, out, sign in (
            (self.re, other.re, re, 1),
            (self.im, other.im, re, -1),
            (self.re, other.im, im, 1),
            (self.im, other.re, im, 1),
        ):
            if not x or not y:
                continue
            get = out.get
            for ea, ca in x.items():
                ca *= sign
                for eb, cb in y.items():
                    key = tuple(map(_add, ea, eb))
                    out[key] = get(key, 0) + ca * cb
        return _reduced(_nonzero(re), _nonzero(im), self.den * other.den)

    def scaled(self, value) -> "_IntForm":
        """The form times a nonzero exact scalar."""
        vr, vi = (value.re, value.im) if isinstance(value, GaussianRational) else (value, 0)
        cd = math.lcm(vr.denominator, vi.denominator)
        cr, ci = vr.numerator * (cd // vr.denominator), vi.numerator * (cd // vi.denominator)
        re = {e: a * cr for e, a in self.re.items()}
        im = {e: a * cr for e, a in self.im.items()}
        if ci:
            re = _scaled_sum(re, 1, self.im, -ci)
            im = _scaled_sum(im, 1, self.re, ci)
        return _reduced(re, im, self.den * cd)

    def shifted(self, i: int, k: int, factor: int) -> "_IntForm":
        """The form times factor * x_i^k."""
        return _reduced(
            {e[:i] + (e[i] + k,) + e[i + 1 :]: a * factor for e, a in self.re.items()},
            {e[:i] + (e[i] + k,) + e[i + 1 :]: a * factor for e, a in self.im.items()},
            self.den,
        )

    def diff(self, i: int, m: int) -> "_IntForm":
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
        return _reduced(parts[0], parts[1], self.den)

    def integrate(self, i: int, m: int) -> "_IntForm":
        """m-fold antiderivative in x_i with zero constants: x^e maps to
        x^(e+m) e!/(e+m)!, the rising products (e+1)...(e+m) folded into the
        denominator through their lcm."""
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
        return _reduced(
            {e[:i] + (e[i] + m,) + e[i + 1 :]: a * rising[e[i]] for e, a in self.re.items()},
            {e[:i] + (e[i] + m,) + e[i + 1 :]: a * rising[e[i]] for e, a in self.im.items()},
            self.den * scale,
        )


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


def _int_form(p: Polynomial, vars: tuple) -> _IntForm:
    """p over the variable order `vars`: every coefficient's real and
    imaginary part times the least common denominator of them all.  A
    variable of p missing from `vars` must have exponent 0 throughout."""
    if p.vars == vars:
        terms = p.terms
    elif all(v in vars for v in p.vars):
        terms = _remap(p, vars)
    else:
        idx = [vars.index(v) if v in vars else None for v in p.vars]
        width = len(vars)
        terms = {}
        for exp, c in p.terms.items():
            nexp = [0] * width
            for pos, v, e in zip(idx, p.vars, exp):
                if pos is not None:
                    nexp[pos] = e
                elif e:
                    raise ValueError(f"variable {v} is not in {vars}")
            terms[tuple(nexp)] = c
    den = 1
    for c in terms.values():
        if type(c) is not int:
            if isinstance(c, GaussianRational):
                den = math.lcm(den, c.re.denominator, c.im.denominator)
            else:
                den = math.lcm(den, c.denominator)
    re, im = {}, {}
    for exp, c in terms.items():
        if type(c) is int:
            re[exp] = c * den
        elif isinstance(c, GaussianRational):
            if c.re:
                re[exp] = c.re.numerator * (den // c.re.denominator)
            im[exp] = c.im.numerator * (den // c.im.denominator)
        else:
            re[exp] = c.numerator * (den // c.denominator)
    return _IntForm(re, im, den)


def variable(name: str, laurent: bool = False) -> Polynomial:
    return Polynomial((name,), {(1,): 1}, (name,) if laurent else ())


def constant(value: Coefficient) -> Polynomial:
    return Polynomial.const(value)


class TrigPolynomial:
    """A function cos_part*cos(a*t) + sin_part*sin(a*t) with polynomial parts.

    The frequency a is a fixed rational; the ring is closed under d/dt
    (which mixes the two parts with a frequency factor) and under every
    purely spatial polynomial-coefficient operator applied componentwise.
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

    def map_parts(self, f) -> "TrigPolynomial":
        return TrigPolynomial(f(self.cos_part), f(self.sin_part), self.frequency, self.time_var)

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
        return self.map_parts(lambda p: -p)

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
        import cmath

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
