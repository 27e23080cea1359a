"""Exact sparse polynomial arithmetic over the rationals and Gaussian rationals.

A polynomial is one integer form (``_IntForm``): integer numerators for
the real and the imaginary part of each term, keyed by packed exponent
keys over the polynomial's variable order, over one positive common
denominator that shares no factor with them all, the layout of FLINT's
fmpq_poly.  Every ring step (sum, difference, product, scalar multiple,
power, derivative, antiderivative, substitution, real and imaginary part,
equality) runs on forms; operands over different variable orders are
aligned by one remap of their keys.  No step divides in floating point,
and floats and bools are refused as coefficients and exponents.

A packed key holds the exponents of a term over n variables in n fields of
``_W`` bits, the first variable in the highest field, each field holding
e + ``_BIAS``, so a key is sum_i (e_i + _BIAS) << _W*(n-1-i) (Kronecker
substitution, as in Monagan and Pearce's sparse multiplication).  A
product of monomials is then one int sum ka + kb - bias(n), and a shift of
x_i by k adds k << _W*(n-1-i).  Keys in descending int order are the
exponent tuples in descending lexicographic order.  An exponent must lie
in [EXP_MIN, EXP_MAX]; the top bit of every field, its guard bit, is clear
in a valid key, and any carry or borrow out of a field sets one, so every
step checks the keys it made once per result and raises
ExponentRangeError rather than let a field wrap into its neighbour.

This module alone reads the fields of a key.  Other modules work through:
``_pack`` and ``_unpack`` (an exponent tuple to its key and back),
``_unit`` (the key step of one variable), ``_capped`` (the terms of a
form up to a power of one variable), ``_int_form``, ``_padded`` and
``_mover`` (a form over another variable order), the tag codec
``_tagged``, ``_untagged`` and ``_split_tagged`` (a batch of forms as
one form and its image split back), and ``FormApplicator``, the kernel
that maps forms by a normal form.

``Polynomial.terms`` is a read-only view, built on each read, that maps
every exponent tuple to its exact coefficient in the smallest type: an
``int`` when integral, else a ``fractions.Fraction``, and a
``GaussianRational`` (re + im*sqrt(-1) with rational parts) only when the
imaginary part is nonzero.  Printing and serialization read that view or
decode the keys they write.

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
import functools
import itertools
import math
import struct
from fractions import Fraction
from operator import and_, itemgetter, or_
from typing import Iterable, Mapping, Union

from .combinatorics import falling

__all__ = [
    "EXP_MAX",
    "EXP_MIN",
    "ExponentRangeError",
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


class ExponentRangeError(ValueError):
    """An exponent lies outside [EXP_MIN, EXP_MAX], the range a key field holds."""


# -- packed exponent keys (module docstring) --------------------------------------

# 16 bits, so that a key's bytes are its fields as big-endian unsigned shorts
_W = 16
_GUARD = 1 << (_W - 1)
_BIAS = 1 << (_W - 2)
_MASK = (1 << _W) - 1
EXP_MIN, EXP_MAX = -_BIAS, _BIAS - 1


@functools.cache
def _layout(n: int) -> tuple:
    """(bias, guard) over n fields: the key of the zero exponent, and the
    guard bits that a valid key leaves clear."""
    ones = ((1 << (_W * n)) - 1) // _MASK
    return _BIAS * ones, _GUARD * ones


@functools.cache
def _codec(n: int) -> tuple:
    """(struct of n unsigned fields, the same signed, byte length, key of the
    zero exponent): a key's fields read in C as
    fields.unpack(key.to_bytes(size, "big"))."""
    return struct.Struct(f">{n}H"), struct.Struct(f">{n}h"), 2 * n, _layout(n)[0]


def _pack(exp) -> int:
    """The key of an exponent tuple."""
    key = 0
    for e in exp:
        if not EXP_MIN <= e <= EXP_MAX:
            raise _out_of_range(e)
        key = (key << _W) + e + _BIAS
    return key


def _unpack(key: int, n: int) -> tuple:
    """The exponent tuple of a key over n variables.  A field e + _BIAS with
    its bit _W-2 flipped, and that bit copied into the one above, is the
    signed short e."""
    _, signed, size, bias = _codec(n)
    key ^= bias
    return signed.unpack((key | (key & bias) << 1).to_bytes(size, "big"))


def _unit(n: int, i: int) -> int:
    """The key step that adds 1 to the exponent of the i-th of n variables."""
    return 1 << (_W * (n - 1 - i))


def _delta(k: int, s: int) -> int:
    """The key step that adds k to the field at bit s.  A step of more than
    _GUARD would carry past the guard bit, so it raises."""
    if not -_GUARD <= k <= _GUARD:
        raise ExponentRangeError(f"an exponent step of {k} leaves [{EXP_MIN}, {EXP_MAX}]")
    return k << s


def _check_fields(seen: int, n: int):
    """Raise when seen, the bitwise or of the keys a step made over n
    variables, has a guard bit set: a sum or a step whose field left
    [EXP_MIN, EXP_MAX] raises here, once per result."""
    if seen & _layout(n)[1]:
        raise ExponentRangeError(f"an exponent leaves [{EXP_MIN}, {EXP_MAX}]")


def _out_of_range(e: int) -> ExponentRangeError:
    return ExponentRangeError(f"exponent {e} is outside [{EXP_MIN}, {EXP_MAX}]")


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
            key = 0
            for v, e in zip(vs, exp):
                if type(e) is not int:
                    raise TypeError(f"not an integer exponent: {e!r}")
                if e < 0 and v not in lr:
                    raise ValueError(f"negative exponent for non-Laurent variable {v}")
                if not EXP_MIN <= e <= EXP_MAX:
                    raise _out_of_range(e)
                key = (key << _W) + e + _BIAS
            re, im = _parts(c)
            if re or im:
                entries.append((key, re, im))
                den = math.lcm(den, re.denominator, im.denominator)
        # the lcm of the reduced denominators leaves numerators and den coprime
        form = _IntForm(
            {key: re.numerator * (den // re.denominator) for key, re, _ in entries if re},
            {key: im.numerator * (den // im.denominator) for key, _, im in entries if im},
            den,
            len(vs),
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
        n = len(self.vars)
        if den == 1 and not im:
            return {_unpack(key, n): a for key, a in re.items()}
        out = {_unpack(key, n): _collapsed(a, im.get(key, 0), den) for key, a in re.items()}
        for key, b in im.items():
            if key not in re:
                out[_unpack(key, n)] = _collapsed(0, b, den)
        return out

    def is_zero(self) -> bool:
        return not self.form

    def total_degree(self) -> int:
        """Maximum term degree (0 for the zero polynomial)."""
        return self.form.total_degree()

    def support_vars(self) -> frozenset:
        """Variables that occur with a nonzero exponent in some term."""
        # a field of key ^ bias is nonzero exactly where the exponent is
        bias = _layout(len(self.vars))[0]
        used = functools.reduce(or_, (key ^ bias for key in itertools.chain(self.form.re, self.form.im)), 0)
        return frozenset(v for v, e in zip(self.vars, _unpack(used, len(self.vars))) if e != -_BIAS)

    def constant_term(self):
        return self.coefficient({})

    def coefficient(self, exponents: Mapping[str, int]):
        """Coefficient of the monomial given as a {var: exponent} mapping."""
        for v, e in exponents.items():
            if e and v not in self.vars:
                return 0
        try:
            key = _pack([exponents.get(v, 0) for v in self.vars])
        except ExponentRangeError:
            return 0
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
        # the ring is a domain, so p^n holds x_v^(n max_v) and x_v^(n min_v)
        n = len(self.vars)
        for column in zip(*(_unpack(key, n) for key in itertools.chain(self.form.re, self.form.im))):
            for e in (exponent * max(column), exponent * min(column)):
                if not EXP_MIN <= e <= EXP_MAX:
                    raise _out_of_range(e)
        out = _IntForm.one(n)
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
            return _IntForm.zero(len(self.vars)).to_poly(self.vars, self.laurent)
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
        -order <= a <= -1 raises NonIntegrableTermError.

        The library itself does not call it.  It stays because
        perfbench/trace.py wraps it by name and tests/oracles.py uses it,
        until the tracer's name list is removed (ROADMAP 20)."""
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
        # the terms by their exponent of var, over the remaining variables:
        # the fields above var's moved down one field, those below kept
        s = _W * (len(rest) - i)
        low = (1 << s) - 1
        groups = {}
        for k, part in enumerate((self.form.re, self.form.im)):
            for key, a in part.items():
                e = ((key >> s) & _MASK) - _BIAS
                groups.setdefault(e, ({}, {}))[k][((key >> (s + _W)) << s) | (key & low)] = a
        pieces = [(e, _IntForm(re, im, self.form.den, len(rest))) for e, (re, im) in groups.items()]
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
            forms = [_padded(f, len(vs) - len(rest)) * powers[e] for e, f in pieces]
        return (_sum_forms(forms) if forms else _IntForm.zero(len(vs))).to_poly(vs, lr)

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
        n = len(point)
        total = 0j
        for key in itertools.chain(re, (k for k in im if k not in re)):
            term = complex(re.get(key, 0) / den, im.get(key, 0) / den)
            for val, e in zip(point, _unpack(key, n)):
                if e:
                    term *= val**e
            total += term
        return total

    def real_part(self) -> "Polynomial":
        f = self.form
        return _reduced(f.re, {}, f.den, f.n).to_poly(self.vars, self.laurent)

    def imag_part(self) -> "Polynomial":
        f = self.form
        return _reduced(f.im, {}, f.den, f.n).to_poly(self.vars, self.laurent)

    # -- canonical form and serialization ---------------------------------------

    def sorted_terms(self):
        """Terms in canonical graded-lexicographic descending order."""
        # exponents are unique keys, so no two terms tie
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def text_terms(self) -> list:
        """(exponent tuple, real part, imaginary part) per term in canonical
        order, each part written as str(Fraction) writes it (``_text_terms``)."""
        n = len(self.vars)
        exps = {key: _unpack(key, n) for key in itertools.chain(self.form.re, self.form.im)}
        degrees = {key: sum(exp) for key, exp in exps.items()}
        return [(exps[key], re, im) for key, re, im in _text_terms(self.form, degrees)]

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
    """sum_e (re[e] + im[e]*sqrt(-1)) x^e / den over n variables in an order
    the caller holds fixed: integer numerator dicts over one positive common
    denominator, the layout of FLINT's fmpq_poly.

    The dicts are keyed by packed exponent keys (module docstring), every
    exponent in [EXP_MIN, EXP_MAX] = [-2^14, 2^14 - 1].  A step that moves
    exponents raises ExponentRangeError where a field would wrap: a product
    or a shift ors together the keys it makes and checks their guard bits
    once (``_check_fields``); ``diff`` and ``integrate``, which read the
    moved exponent anyway, test it against the range.

    Every Polynomial is one of these over its own variables, and every ring
    step of this module runs here.  The steps return forms without zero
    entries in which den and all the numerators have gcd 1 (one math.gcd
    pass per result), so equal values have equal fields.  ``diff``,
    ``integrate`` and ``scaled`` skip the gcd pass when called with
    reduce=False, and ``minus_product`` always does; such a form has no zero
    entries but may carry a common factor, so it must not be compared,
    wrapped or returned.  Only a chain of steps that reduces its own result
    once uses them (``operators.NestedRightInverse``), and the forms that
    ``_split_tagged`` splits from a batch image, which carry the image's
    denominator, feed only ``_shifted_union``, which reduces once (the chain
    powers of ``bases.flag_basis``).  ``_int_form`` puts a
    Polynomial over another variable order and ``to_poly`` wraps a form as
    one.
    """

    __slots__ = ("re", "im", "den", "n")

    def __init__(self, re: dict, im: dict, den: int, n: int):
        self.re = re
        self.im = im
        self.den = den
        self.n = n

    @staticmethod
    def zero(n: int) -> "_IntForm":
        return _IntForm({}, {}, 1, n)

    @staticmethod
    def one(n: int) -> "_IntForm":
        return _IntForm({_layout(n)[0]: 1}, {}, 1, n)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def total_degree(self) -> int:
        """Maximum term degree (0 for the zero form)."""
        n = self.n
        return max((sum(_unpack(key, n)) for key in itertools.chain(self.re, self.im)), default=0)

    def negative_positions(self) -> set:
        """The positions of the variables with a negative exponent in some
        term: a field is below _BIAS exactly when its bit _W-2 is clear."""
        n = self.n
        low = functools.reduce(and_, itertools.chain(self.re, self.im), -1)
        return {i for i in range(n) if not (low >> (_W * (n - i) - 2)) & 1}

    def free_of(self, positions) -> bool:
        """Whether every term has exponent 0 at each of the positions: the
        and and the or of the keys both read _BIAS in those fields."""
        n = self.n
        mask = sum(_MASK << (_W * (n - 1 - i)) for i in positions)
        zero = _layout(n)[0] & mask
        keys = itertools.chain(self.re, self.im)
        low = functools.reduce(and_, keys, zero)
        keys = itertools.chain(self.re, self.im)
        return low & mask == zero and functools.reduce(or_, keys, zero) & mask == zero

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
            {e: -a for e, a in self.re.items()}, {e: -a for e, a in self.im.items()}, self.den, self.n
        )

    def __add__(self, other: "_IntForm") -> "_IntForm":
        return self._combine(other, 1)

    def __sub__(self, other: "_IntForm") -> "_IntForm":
        return self._combine(other, -1)

    def _combine(self, other, sign):
        d = math.lcm(self.den, other.den)
        ka, kb = d // self.den, sign * (d // other.den)
        return _reduced(
            _scaled_sum(self.re, ka, other.re, kb), _scaled_sum(self.im, ka, other.im, kb), d, self.n
        )

    def __mul__(self, other: "_IntForm") -> "_IntForm":
        re, im = {}, {}
        _add_product(re, im, self, other, 1)
        return _reduced(_nonzero(re), _nonzero(im), self.den * other.den, self.n)

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
        return _IntForm(_nonzero(re), _nonzero(im), d, self.n)

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
        return _reduced(re, im, self.den * cd, self.n) if reduce else _IntForm(re, im, self.den * cd, self.n)

    def shifted(self, i: int, k: int, factor: int) -> "_IntForm":
        """The form times factor * x_i^k, for any form: a step or a field
        that leaves the range raises."""
        _delta(k, _W * (self.n - 1 - i))
        if not factor:
            return _IntForm.zero(self.n)
        out = _shifted_union([(self, k, factor)], i, self.n)
        _check_fields(functools.reduce(or_, itertools.chain(out.re, out.im), 0), self.n)
        return out

    def diff(self, i: int, m: int, reduce: bool = True) -> "_IntForm":
        """d^m/dx_i^m, each exponent e giving the integer e (e-1) ... (e-m+1).
        A term that survives has e >= m, or e < 0, where e - m may leave the
        range and raises."""
        n = self.n
        s = _W * (n - 1 - i)
        step, mask, bias, perm = m << s, _MASK, _BIAS, math.perm
        parts = []
        for d in (self.re, self.im):
            out = {}
            for key, a in d.items():
                e = ((key >> s) & mask) - bias
                if e >= 0:
                    k = perm(e, m)
                elif e - m < EXP_MIN:
                    raise _out_of_range(e - m)
                else:
                    k = falling(e, m)
                if k:
                    out[key - step] = a * k
            parts.append(out)
        return _reduced(parts[0], parts[1], self.den, n) if reduce else _IntForm(parts[0], parts[1], self.den, n)

    def integrate(self, i: int, m: int, reduce: bool = True) -> "_IntForm":
        """m-fold antiderivative in x_i with zero constants: x^e maps to
        x^(e+m) e!/(e+m)!, the rising products (e+1)...(e+m) folded into the
        denominator through their lcm.  An exponent e with -m <= e <= -1
        reaches x^-1 on the way and raises NonIntegrableTermError."""
        n = self.n
        s, mask = _W * (n - 1 - i), _MASK
        # per field value of x_i, its rising product; checking each e + m
        # keeps every field in range
        rising = {}
        for key in itertools.chain(self.re, self.im):
            f = (key >> s) & mask
            if f not in rising:
                e = f - _BIAS
                if -m <= e <= -1:
                    raise NonIntegrableTermError("non-integrable Laurent term")
                if e + m > EXP_MAX:
                    raise _out_of_range(e + m)
                rising[f] = math.perm(e + m, m) if e >= 0 else falling(e + m, m)
        scale = math.lcm(*rising.values())
        for f, r in rising.items():
            rising[f] = scale // r
        step = m << s
        re = {key + step: a * rising[(key >> s) & mask] for key, a in self.re.items()}
        im = {key + step: a * rising[(key >> s) & mask] for key, a in self.im.items()}
        return _reduced(re, im, self.den * scale, n) if reduce else _IntForm(re, im, self.den * scale, n)


def _add_product(re: dict, im: dict, x: _IntForm, y: _IntForm, k: int):
    """Add k times the numerators of x*y into the dicts re and im: each pair
    of terms is one key sum ka + kb - bias."""
    bias, seen = _layout(x.n)[0], 0
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
            ea -= bias
            for eb, cb in ys.items():
                key = ea + eb
                seen |= key
                out[key] = get(key, 0) + ca * cb
    _check_fields(seen, x.n)


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
    """The sum of a non-empty list of forms over one variable order, every
    numerator brought to the lcm of their denominators and the result
    reduced once."""
    n = forms[0].n
    forms = [f for f in forms if f]
    if len(forms) < 2:
        return forms[0] if forms else _IntForm.zero(n)
    d = math.lcm(*(f.den for f in forms))
    re, im = {}, {}
    for f in forms:
        k = d // f.den
        for out, part in ((re, f.re), (im, f.im)):
            get = out.get
            for e, a in part.items():
                out[e] = get(e, 0) + a * k
    return _reduced(_nonzero(re), _nonzero(im), d, n)


def _shifted_union(pieces, i: int, n: int) -> _IntForm:
    """sum factor * x_i^k * form over the (form, k, factor) pieces, forms
    over one order of n variables without zero entries, at the lcm of their
    denominators and reduced once.  The caller guarantees that no form has
    x_i, that the k are distinct with every x_i^k in range and that no
    factor is 0: the shifted pieces then have pairwise disjoint keys and
    nonzero entries, so the sum is their union, one dict update per piece
    and part, with no field check and no zero to clear."""
    s = _W * (n - 1 - i)
    d = math.lcm(*(f.den for f, _, _ in pieces))
    re, im = {}, {}
    for f, k, factor in pieces:
        scale, step = factor * (d // f.den), k << s
        re.update({e + step: a * scale for e, a in f.re.items()})
        if f.im:
            im.update({e + step: b * scale for e, b in f.im.items()})
    return _reduced(re, im, d, n)


def _nonzero(d: dict) -> dict:
    return {e: a for e, a in d.items() if a}


def _reduced(re: dict, im: dict, den: int, n: int) -> _IntForm:
    """The form over n variables with numerators and denominator divided by
    their gcd."""
    if den == 1 or not (re or im):
        return _IntForm(re, im, 1, n)
    g = math.gcd(den, *re.values(), *im.values())
    if g != 1:
        re = {e: a // g for e, a in re.items()}
        im = {e: a // g for e, a in im.items()}
        den //= g
    return _IntForm(re, im, den, n)


def _capped(q: _IntForm, i: int, cap: int, j: int = 1) -> _IntForm:
    """The terms of q whose i-th exponent is at most cap, divided by j and
    reduced: each key is kept or dropped on its i-th field alone."""
    s, top = _W * (q.n - 1 - i), cap + _BIAS
    return _reduced(
        {e: a for e, a in q.re.items() if (e >> s) & _MASK <= top},
        {e: a for e, a in q.im.items() if (e >> s) & _MASK <= top},
        q.den * j,
        q.n,
    )


def _remapped(form: _IntForm, move, n: int) -> _IntForm:
    """The form over n variables with every key k replaced by move(k)."""
    return _IntForm(
        {move(e): a for e, a in form.re.items()}, {move(e): b for e, b in form.im.items()}, form.den, n
    )


def _padded(form: _IntForm, m: int) -> _IntForm:
    """The form over its variables followed by m more, at exponent 0."""
    s, pad = _W * m, _layout(m)[0]
    return _IntForm({(key << s) + pad: a for key, a in form.re.items()},
                    {(key << s) + pad: b for key, b in form.im.items()}, form.den, form.n + m)


@functools.cache
def _mover(src: tuple, dst: tuple):
    """The key map from the variable order src to dst, where a variable of
    src missing from dst must have exponent 0: the fields of a key read in
    C, each of dst's taken from its variable in src or set to exponent 0,
    and packed again."""
    (fields, _, size, _), packed = _codec(len(src)), _codec(len(dst))[0]
    # index len(src) is a zero-exponent field appended to the read ones; take
    # gets one index more than dst has, so that it returns a tuple for any
    # dst, and the extra field is dropped
    take = itemgetter(*(src.index(v) if v in src else len(src) for v in dst), len(src))
    dropped = [(i, v) for i, v in enumerate(src) if v not in dst]

    def move(key):
        raw = fields.unpack(key.to_bytes(size, "big")) + (_BIAS,)
        for i, v in dropped:
            if raw[i] != _BIAS:
                raise ValueError(f"variable {v} is not in {dst}")
        return int.from_bytes(packed.pack(*take(raw)[:-1]), "big")

    return move


def _int_form(p: Polynomial, vars: tuple) -> _IntForm:
    """p's form over the variable order `vars`: the form itself when p is
    over vars already, else one remap of its keys.  A variable of p missing
    from `vars` must have exponent 0 throughout."""
    if p.vars == vars:
        return p.form
    n = len(p.vars)
    if vars[:n] == p.vars:
        return _padded(p.form, len(vars) - n)
    return _remapped(p.form, _mover(p.vars, vars), len(vars))


def _text_terms(form: _IntForm, degrees) -> list:
    """(key, real part, imaginary part) per term of the form in canonical
    order, each part written as str(Fraction) writes it; degrees maps each
    key to its total degree.  The order is total degree descending, ties
    lexicographically descending: a sort of the keys, whose int order is
    the lexicographic one, followed by a stable sort on the degree."""
    re, im, den = form.re, form.im, form.den
    keys = sorted(re.keys() | im.keys() if im else re, reverse=True)
    keys.sort(key=degrees.__getitem__, reverse=True)
    if not im:
        return [(key, _ratio_text(re[key], den), "0") for key in keys]
    return [
        (key, _ratio_text(re.get(key, 0), den), _ratio_text(im.get(key, 0), den)) for key in keys
    ]


# -- the tag codec ------------------------------------------------------------------

def _tagged(forms, pad: int) -> _IntForm:
    """The forms, over one order of n variables, as one batch form over
    n + pad + 1 variables at the lcm of their denominators: each key
    followed by pad zero exponents and a tag field holding the form's
    index.  An operator that reads neither the padding nor the tag maps the
    batch to the sum of its tagged images, which ``_untagged`` splits back.
    More forms than a tag field holds raise ExponentRangeError."""
    if len(forms) > EXP_MAX + 1:
        raise ExponentRangeError(f"a tag field holds at most {EXP_MAX + 1} entries, got {len(forms)}")
    d = math.lcm(*(f.den for f in forms))
    shift, base = _W * (pad + 1), _layout(pad + 1)[0]
    re, im = {}, {}
    for j, f in enumerate(forms):
        tagged, k = base + j, d // f.den
        for e, a in f.re.items():
            re[(e << shift) + tagged] = a * k
        for e, b in f.im.items():
            im[(e << shift) + tagged] = b * k
    return _reduced(re, im, d, forms[0].n + pad + 1)


def _untagged(image: _IntForm) -> dict:
    """A batch image split back by tag: {key without the tag: {tag: entry}},
    each entry a numerator, or a (re, im) pair of them when the image has
    an imaginary part."""
    re, im = image.re, image.im
    entries = {e: (re.get(e, 0), im.get(e, 0)) for e in {**re, **im}} if im else re
    rows = {}
    for key, a in entries.items():
        rows.setdefault(key >> _W, {})[(key & _MASK) - _BIAS] = a
    return rows


def _split_tagged(image: _IntForm, size: int, keep: int) -> tuple:
    """A batch image of ``_tagged`` forms (no padding) split by tag: the
    list of the forms of tags 0..size-1 over the batch's variables without
    the tag, each at the image's denominator and so possibly carrying a
    common factor (``_IntForm`` docstring), and the image cut to the tags
    below keep, still tagged, for the next step of a chain."""
    n, den, cut = image.n - 1, image.den, _BIAS + keep
    res, ims = [{} for _ in range(size)], [{} for _ in range(size)]
    kept = []
    for part, parts in ((image.re, res), (image.im, ims)):
        rest = {}
        for key, a in part.items():
            tag = key & _MASK
            parts[tag - _BIAS][key >> _W] = a
            if tag < cut:
                rest[key] = a
        kept.append(rest)
    return [_IntForm(re, im, den, n) for re, im in zip(res, ims)], _IntForm(kept[0], kept[1], den, n + 1)


def _tag_variable(vs: tuple) -> str:
    """A name for a batch's tag variable that is not among vs."""
    tag = "tag"
    while tag in vs:
        tag += "'"
    return tag


# (part of p, part of the coefficients, real (0) or imaginary (1) sum, sign):
# with c = c_re + i c_im and p = p_re + i p_im,
# c p = (c_re p_re - c_im p_im) + i (c_re p_im + c_im p_re)
_ROUTES = ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1))


class FormApplicator:
    """A normal form sum_j c_j d^alpha_j applied to integer forms over the
    variable order the form is over.

    The form is an ``operators.differential_form``.  With D the common
    denominator of the coefficients and d that of the input q, D d op(q) =
    sum_j (D c_j) d^alpha_j (d q) is accumulated with integer falling
    factorials, one dict per real and imaginary part, over the denominator
    D d.  Each coefficient term x^c of a block d^alpha is kept as one key
    step, the key of x^c less that of x^0 and the orders alpha,
    so a term of q maps to its image key by one int sum, and a field is
    read as (key >> s) & _MASK only for the falling factorials.  The image
    keys are or-ed together and checked once for a field out of range
    (``_check_fields``).  An order above _BIAS kills every term whose
    exponent in its variable is non-negative, and a Laurent term there,
    whose image leaves the range, raises ExponentRangeError.
    """

    __slots__ = ("_den", "_routes")

    def __init__(self, form: dict):
        self._den = den = math.lcm(*(c.den for c in form.values()))
        # per block: per order its field shift, the order and the field value
        # _BIAS + m that a surviving term reaches; the key of x^0 raised by
        # the orders; and its scale
        read = []
        for alpha, c in form.items():
            orders, lowered = [], _layout(c.n)[0]
            for i, m in alpha:
                orders.append((_W * (c.n - 1 - i), m, _BIAS + m))
                lowered += m << orders[-1][0]
            read.append((tuple(orders), lowered, den // c.den, c))
        # per route: the part of the input it reads, the sum it feeds, and
        # per block its orders and its signed coefficient terms as
        # (key step, numerator)
        self._routes = []
        for part, side, target, sign in _ROUTES:
            blocks = []
            for orders, lowered, k, c in read:
                cterms = [(key - lowered, a * sign * k) for key, a in (c.im if side else c.re).items()]
                if cterms:
                    blocks.append((orders, cterms))
            if blocks:
                self._routes.append((part, target, blocks))

    def apply_form(self, q: _IntForm) -> _IntForm:
        """The image of the form q, reduced.  In a block d^alpha a term with
        0 <= e_i < m for some (i, m) in alpha gives nothing and is skipped
        before any key is made."""
        sums, seen = ({}, {}), 0
        perm, mask, bias = math.perm, _MASK, _BIAS
        for part, target, blocks in self._routes:
            terms = (q.im if part else q.re).items()
            if not terms:
                continue
            out = sums[target]
            get = out.get
            for orders, cterms in blocks:
                for key, k in terms:
                    # the field holds e + bias, and 0 <= e < m kills the term
                    for s, m, top in orders:
                        f = (key >> s) & mask
                        if bias <= f < top:
                            break
                        k *= perm(f - bias, m) if f >= bias else _laurent_falling(f - bias, m)
                    else:
                        for step, c in cterms:
                            image = key + step
                            seen |= image
                            out[image] = get(image, 0) + c * k
        _check_fields(seen, q.n)
        return _reduced(_nonzero(sums[0]), _nonzero(sums[1]), q.den * self._den, q.n)


def _laurent_falling(e: int, m: int) -> int:
    """falling(e, m) for e < 0; above an order of _BIAS, x^(e-m) leaves the range."""
    if m > _BIAS:
        raise _out_of_range(e - m)
    return falling(e, m)


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
