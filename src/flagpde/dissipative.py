"""Damped wave, anisymmetric Laplace, EPD, and Klein-Gordon solution families.

The common engine is the damped derivative d = a*d/dt + d^2/dt^2 and its
right inverse (operators.DampedIntegration).  Iterating that inverse on 1
produces the family of dissipation polynomials xi(a, i), which satisfy the
exact descent d(xi_i) = xi_(i-1); they supply the time dependence of every
family in this module, with the purely imaginary a = 2*freq*sqrt(-1) in
the Klein-Gordon case.
"""

from __future__ import annotations

import math

from .bases import BasisElement, BasisFamily, _check_cap, _checked
from .combinatorics import tuples_with_sum_at_most
from .operators import (
    Compose,
    DampedIntegration,
    Derivative,
    MultiplyBy,
    Scale,
    SeriesConfig,
    Sum,
    VerificationError,
    solve_by_series,
)
from .poly import (
    Fraction,
    GaussianRational,
    Polynomial,
    TrigPolynomial,
    _int_form,
    _IntForm,
    _sum_forms,
    variable,
)

__all__ = [
    "anisymmetric_basis",
    "classify_lambda",
    "dissipation_polynomial",
    "dissipative_wave_basis",
    "epd_transform",
    "klein_gordon_solutions",
]


def dissipation_polynomial(a, i: int, tvar: str = "t") -> Polynomial:
    """The i-th iterate of the damped right inverse on 1, as a closed form.

    xi_0 = 1, xi_1 = t/a, and for i >= 2
    xi_i = t^i/(i! a^i) - t^(i-1)/((i-2)! a^(i+1))
           + sum_{r=2}^{i-1} (-1)^r prod_{s=1}^{r-1}(i+s) t^(i-r) / ((i-r-1)! r! a^(r+i)).
    The family satisfies (a d/dt + d^2/dt^2) xi_i = xi_(i-1) exactly.
    """
    if isinstance(a, int):
        a = Fraction(a)
    if not a:
        raise ValueError("degenerate dissipation")
    if i < 0:
        raise ValueError("index must be non-negative")
    ainv = (GaussianRational(1) / a) if isinstance(a, GaussianRational) else 1 / a
    if i == 0:
        return Polynomial.const(1, (tvar,))
    if i == 1:
        return Polynomial((tvar,), {(1,): ainv})
    apow = [Fraction(1)]  # apow[k] = a^(-k), up to k = 2i - 1
    for _ in range(2 * i - 1):
        apow.append(apow[-1] * ainv)
    terms = {
        (i,): apow[i] * Fraction(1, math.factorial(i)),
        (i - 1,): -apow[i + 1] * Fraction(1, math.factorial(i - 2)),
    }
    for r in range(2, i):
        # prod_{s=1}^{r-1} (i+s) = (i+r-1)!/i!
        coeff = Fraction((-1) ** r * math.perm(i + r - 1, r - 1),
                         math.factorial(i - r - 1) * math.factorial(r))
        terms[(i - r,)] = coeff * apow[r + i]
    return Polynomial((tvar,), terms)


def _laplacian(vars_):
    return Sum(Derivative(v, 2) for v in vars_)


def dissipative_wave_basis(n: int, cap: int) -> BasisFamily:
    """Solution basis of u_tt + u_t = sum_i u_(xi xi), indexed by monomials.

    The element for index l is sum_i xi(1, i)(t) * Lap^i(x^l); the Laplacian
    powers terminate and each xi supplies the matching time correction.
    """
    if n < 1:
        raise ValueError("need at least one spatial variable")
    _check_cap(cap)
    x_vars = tuple(f"x{i}" for i in range(1, n + 1))
    lap = _laplacian(x_vars)
    annihilator = Sum(
        (
            Derivative("t", 2),
            Derivative("t", 1),
            Compose(Scale(Fraction(-1)), lap),
        )
    )
    vs = ("t",) + x_vars
    xis = []  # xi(1, i) as integer forms over vs, built once per i for the whole family
    elements = []
    for ell in tuples_with_sum_at_most(n, cap):
        piece = _IntForm({(0,) + ell: 1}, {}, 1)
        pieces = []
        while piece:
            if len(pieces) == len(xis):
                xis.append(_int_form(dissipation_polynomial(Fraction(1), len(xis)), vs))
            pieces.append(xis[len(pieces)] * piece)
            piece = lap.apply_form(piece, vs)
        elements.append(BasisElement({"ell": ell}, _sum_forms(pieces).to_poly(vs, frozenset())))
    return _checked(elements, annihilator, {"cap": cap, "n": n})


def classify_lambda(lam: Fraction) -> str:
    """Case split for the anisymmetric family: generic or negative even/odd."""
    lam = Fraction(lam)
    if lam.denominator == 1 and lam <= -1:
        return "negative_even" if int(lam) % 2 == 0 else "negative_odd"
    return "generic"


def _phi_factor(lam: Fraction, i: int) -> Polynomial:
    """t^(2i) / (i! 2^i prod_{r<i} (lam + 2r + 1)); undefined denominators raise."""
    if i == 0:
        return Polynomial.const(1, ("t",))
    den = Fraction(math.factorial(i) * 2**i)
    for r in range(i):
        den *= lam + 2 * r + 1
    if not den:
        raise ZeroDivisionError("phi factor undefined at this lambda")
    return Polynomial(("t",), {(2 * i,): 1 / den})


def _psi_factor(lam: Fraction, i: int) -> Polynomial:
    """t^(2i+1-lam) / (2^i i! prod_{r=1..i} (2r + 1 - lam)) for integer lam <= -1."""
    power = 2 * i + 1 - int(lam)
    if i == 0:
        return Polynomial(("t",), {(1 - int(lam),): Fraction(1)})
    den = Fraction(2**i * math.factorial(i))
    for r in range(1, i + 1):
        den *= 2 * r + 1 - lam
    return Polynomial(("t",), {(power,): 1 / den})


def anisymmetric_basis(n: int, lam, epsilon: int, cap: int) -> BasisFamily:
    """Polynomial solutions of t u_tt + lam u_t - eps t Lap(u) = 0.

    Three regimes: for generic lam a single branch sums eps^r phi_r Lap^r
    over the seed monomials; negative even integers add an extra branch
    with the t^(1-lam) profiles; negative odd integers lam = -2k-1 restrict
    the first branch to seeds killed by Lap^(k+1) and keep the second.
    """
    lam = Fraction(lam)
    if not lam:
        raise ValueError("use plain wave module")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    _check_cap(cap)
    x_vars = tuple(f"x{i}" for i in range(1, n + 1))
    lap = _laplacian(x_vars)
    t_poly = variable("t")
    annihilator = Sum(
        (
            Compose(MultiplyBy(t_poly), Derivative("t", 2)),
            Compose(Scale(lam), Derivative("t", 1)),
            Compose(Scale(-epsilon), MultiplyBy(t_poly), lap),
        )
    )
    kind = classify_lambda(lam)

    vs = ("t",) + x_vars
    factors = {}  # (factor, i) -> eps^i factor(lam, i) as an integer form over vs

    def branch(seed, factor):
        """sum_i eps^i factor(lam, i) Lap^i(seed), until Lap^i(seed) = 0."""
        piece, pieces = _int_form(seed, vs), []
        while piece:
            key = (factor, len(pieces))
            if key not in factors:
                factors[key] = _int_form(epsilon ** key[1] * factor(lam, key[1]), vs)
            pieces.append(factors[key] * piece)
            piece = lap.apply_form(piece, vs)
        return _sum_forms(pieces).to_poly(vs, frozenset())

    monomials = [(ell, Polynomial(x_vars, {ell: 1})) for ell in tuples_with_sum_at_most(n, cap)]
    if kind == "negative_odd":
        # lam = -2k-1: the phi factors are undefined from i = k+1 on, so the
        # phi branch takes the seeds with Lap^(k+1) = 0, spanned by the
        # alternating x1-power expansions below.
        k = (-int(lam) - 1) // 2
        phi_seeds = [
            ((l1,) + tuple(rest), _iterated_kernel_seed(k + 1, l1, rest, x_vars))
            for l1 in range(2 * k + 2)
            for rest in tuples_with_sum_at_most(n - 1, cap)
        ]
    else:
        phi_seeds = monomials
    elements = [BasisElement({"ell": ell, "branch": "phi"}, branch(seed, _phi_factor))
                for ell, seed in phi_seeds]
    if kind != "generic":
        elements += [BasisElement({"ell": ell, "branch": "psi"}, branch(seed, _psi_factor))
                     for ell, seed in monomials]
    return _checked(
        elements,
        annihilator,
        {"cap": cap, "n": n, "lambda": str(lam), "epsilon": epsilon, "kind": kind},
    )


def _iterated_kernel_seed(power: int, l1: int, rest, x_vars) -> Polynomial:
    """Element of ker(Lap^power) with top part x1^l1 * x_rest^rest, l1 < 2*power.

    Alternating series sum_r (-1)^r C(power+r-1, r) x1^(l1+2r)/(l1+2r)!
    * Lap_rest^r (x_rest^rest), where Lap_rest omits x1.
    """
    rest_vars = x_vars[1:]
    rest_mono = Polynomial(rest_vars, {tuple(rest): Fraction(1)}) if rest_vars else Polynomial.const(1)
    lap_rest = Sum(Derivative(v, 2) for v in rest_vars)
    out = Polynomial.zero(x_vars)
    piece = rest_mono
    r = 0
    while not piece.is_zero():
        coeff = Fraction((-1) ** r * math.comb(power + r - 1, r), math.factorial(l1 + 2 * r))
        x1_pow = Polynomial((x_vars[0],), {(l1 + 2 * r,): coeff})
        out = out + x1_pow * piece
        piece = lap_rest(piece)
        r += 1
    return out


def epd_transform(v: Polynomial, m: int, branch: str) -> Polynomial:
    """Map a reduced-equation solution to the EPD equation by a power of t.

    branch "t^(m+1)" multiplies by t^(m+1) (reduced equation with
    lam = 2(m+1)); branch "t^(-m)" divides by t^m (lam = -2m, Laurent t).
    The EPD identity t^2 u_tt - t^2 Lap(u) - m(m+1) u = 0 is asserted.
    """
    if branch not in ("t^(m+1)", "t^(-m)"):
        raise ValueError('branch must be "t^(m+1)" or "t^(-m)"')
    x_vars = tuple(x for x in v.vars if x != "t")
    lap = _laplacian(x_vars)
    t_poly = variable("t")
    lam = Fraction(2 * (m + 1)) if branch == "t^(m+1)" else Fraction(-2 * m)
    reduced = (
        t_poly * v.diff("t", 2)
        + lam * v.diff("t")
        - t_poly * lap(v)
    )
    if not reduced.is_zero():
        raise ValueError("input not a reduced-equation solution")
    exponent = m + 1 if branch == "t^(m+1)" else -m
    v = v.with_laurent("t") if exponent < 0 else v
    tv = v if "t" in v.vars else v.with_variables(("t",) + v.vars, v.laurent)
    power = Polynomial(("t",), {(exponent,): Fraction(1)}, ("t",) if exponent < 0 else ())
    u = power * tv
    t2 = t_poly * t_poly
    residual = t2 * u.diff("t", 2) - t2 * lap(u) - Fraction(m * (m + 1)) * u
    if not residual.is_zero():
        raise VerificationError("EPD transform output fails the defining identity")
    return u


def klein_gordon_solutions(a, monomial, seed: int = 0):
    """Two real trig-polynomial solutions of the generalized Klein-Gordon equation

        u_tt - u_xx - x u_yy - y u_zz + a^2 u = 0

    for a nonzero rational frequency a.  The complex series solution of the
    gauged equation v_tt + 2ia v_t = v_xx + x v_yy + y v_zz is computed from
    the seed monomial x^m1 y^m2 z^m3, then e^(iat) v is split into its real
    and imaginary parts.  Both outputs are verified exactly in the trig ring.
    """
    a = Fraction(a)
    if not a:
        raise ValueError("degenerate frequency")
    m1, m2, m3 = monomial
    x, y = variable("x"), variable("y")
    tricomi = Sum(
        (
            Derivative("x", 2),
            Compose(MultiplyBy(x), Derivative("y", 2)),
            Compose(MultiplyBy(y), Derivative("z", 2)),
        )
    )
    two_ia = GaussianRational(0, 2 * a)
    t1 = Sum((Derivative("t", 2), Compose(Scale(two_ia), Derivative("t", 1))))
    t1_inv = DampedIntegration(two_ia, "t")
    t2 = Compose(Scale(Fraction(-1)), tricomi)
    cfg = SeriesConfig(t1, t1_inv, t2, seed=seed)
    seed = Polynomial(("x", "y", "z"), {(m1, m2, m3): Fraction(1)})
    v = solve_by_series(cfg, Polynomial.const(1, ("t",)), seed)

    v_re, v_im = v.real_part(), v.imag_part()
    first = TrigPolynomial(v_re, -v_im, a)            # Re(e^(iat) v)
    second = TrigPolynomial(v_im, v_re, a)            # Im(e^(iat) v)

    kg = Sum(
        (
            Derivative("t", 2),
            Compose(Scale(Fraction(-1)), Derivative("x", 2)),
            Compose(MultiplyBy(-x), Derivative("y", 2)),
            Compose(MultiplyBy(-y), Derivative("z", 2)),
            Scale(a * a),
        )
    )
    for sol in (first, second):
        if not kg.apply_trig(sol).is_zero():
            raise VerificationError("Klein-Gordon output fails the defining identity")
    return first, second
