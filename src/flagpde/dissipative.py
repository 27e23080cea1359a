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

from .bases import (
    BasisElement,
    BasisFamily,
    _check_cap,
    _checked,
    _laplacian_tables,
    _laplacian_terms,
)
from .combinatorics import tuples_with_sum_at_most
from .operators import (
    Compose,
    DampedIntegration,
    Derivative,
    MultiplyBy,
    Scale,
    SeriesConfig,
    Sum,
    TrigApplicator,
    VerificationError,
    solve_by_series,
)
from .poly import (
    Fraction,
    GaussianRational,
    Polynomial,
    TrigPolynomial,
    _IntForm,
    _nonzero,
    _reduced,
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
    The powers come from their closed form (``_laplacian_power_sum``), and
    each xi(1, i) is built once per family.
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
    tables = _laplacian_tables(cap)
    profile = _profile_table(lambda i: dissipation_polynomial(Fraction(1), i))
    elements = [
        BasisElement({"ell": ell}, _laplacian_power_sum({ell: 1}, 1, tables, profile).to_poly(vs, frozenset()))
        for ell in tuples_with_sum_at_most(n, cap)
    ]
    return _checked(elements, annihilator, {"cap": cap, "n": n})


def _profile_table(read):
    """The t-profiles p_R(t) of a Laplacian-power family, as a function of R.

    read(R) is p_R as a Polynomial in t; it is read once per R, in order and
    only up to the largest R asked for.  The value for R is the pairs
    (t exponent, numerator * R!) over the denominator of p_R: the R! of the
    closed form of Lap^R sits here, once per family.
    """
    table = []

    def profile(big_r):
        while len(table) <= big_r:
            r = len(table)
            form = read(r).form
            fact = math.factorial(r)
            table.append(([(e[0], a * fact) for e, a in form.re.items()], form.den))
        return table[big_r]

    return profile


def _laplacian_power_sum(seed: dict, den: int, tables, profile, max_power=None) -> _IntForm:
    """sum_R p_R(t) Lap^R(seed) over (t, x1..xn), reduced once, for a seed
    {x exponent: integer numerator} over den, the tables of
    ``bases._laplacian_tables`` and the profiles of ``_profile_table``.

    Lap^R comes from its closed form (``bases._laplacian_terms``, with the
    factor R! in the profile).  The x-part of each R is summed over the seed
    terms, and R runs up to the last R with Lap^R(seed) != 0 (every later
    power vanishes too); no other profile is read.  A seed known to lie in
    ker Lap^(max_power+1) passes max_power, and the terms of the powers
    above it, which cancel, are not built.  The seeds are
    homogeneous, so the x-parts of distinct R have distinct degrees, and
    each term of the outer product of an x-part with its profile is a term
    of the result.
    """
    xparts = []
    for seed_exp, a in seed.items():
        for big_r, num, exp in _laplacian_terms(seed_exp, tables, max_power):
            while len(xparts) <= big_r:
                xparts.append({})
            part = xparts[big_r]
            part[exp] = part.get(exp, 0) + a * num
    if len(seed) > 1:
        xparts = [_nonzero(part) for part in xparts]
        if not all(xparts):
            xparts = xparts[: xparts.index({})]
    d = math.lcm(*(profile(r)[1] for r in range(len(xparts))))
    re = {}
    for r, part in enumerate(xparts):
        pairs, pden = profile(r)
        k = d // pden
        for j, c in pairs:
            c *= k
            j = (j,)
            re.update({j + exp: c * a for exp, a in part.items()})
    return _reduced(re, {}, d * den)


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
    if n < 1:
        raise ValueError("need at least one spatial variable")
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
    # the odd-lambda phi seeds reach x1^(2k+1+cap), lam = -2k-1
    tables = _laplacian_tables(cap - int(lam) if kind == "negative_odd" else cap)

    def branch(seeds, factor, name, max_power=None):
        """One element per (ell, (seed, den)) pair: sum_R eps^R factor(lam, R)
        Lap^R(seed), with the profiles of factor read once per family."""
        profile = _profile_table(lambda r: epsilon**r * factor(lam, r))
        return [
            BasisElement(
                {"ell": ell, "branch": name},
                _laplacian_power_sum(seed, den, tables, profile, max_power).to_poly(vs, frozenset()),
            )
            for ell, (seed, den) in seeds
        ]

    monomials = [(ell, ({ell: 1}, 1)) for ell in tuples_with_sum_at_most(n, cap)]
    if kind == "negative_odd":
        # lam = -2k-1: the phi factors are undefined from R = k+1 on, so the
        # phi branch takes the seeds with Lap^(k+1) = 0, spanned by the
        # alternating x1-power expansions below.
        k = (-int(lam) - 1) // 2
        phi_seeds = [
            ((l1,) + rest, _iterated_kernel_seed(k + 1, l1, rest, tables))
            for l1 in range(2 * k + 2)
            for rest in tuples_with_sum_at_most(n - 1, cap)
        ]
        elements = branch(phi_seeds, _phi_factor, "phi", k)
    else:
        elements = branch(monomials, _phi_factor, "phi")
    if kind != "generic":
        elements += branch(monomials, _psi_factor, "psi")
    return _checked(
        elements,
        annihilator,
        {"cap": cap, "n": n, "lambda": str(lam), "epsilon": epsilon, "kind": kind},
    )


def _iterated_kernel_seed(power: int, l1: int, rest: tuple, tables):
    """Element of ker(Lap^power) with top part x1^l1 * x_rest^rest, l1 < 2*power,
    as ({x exponent: integer numerator}, denominator) over (x1..xn), from the
    tables of ``bases._laplacian_tables``.

    Alternating series sum_r (-1)^r C(power+r-1, r) x1^(l1+2r)/(l1+2r)!
    * Lap_rest^r (x_rest^rest), with Lap_rest the Laplacian that omits x1.
    By the closed form of Lap_rest^r, the coefficient of
    x1^(l1+2r) x_rest^(rest-2q), r = |q|, is (-1)^r perm(power+r-1, r)
    prod_i perm(rest_i, 2 q_i)/q_i! over (l1+2r)!; all of them are put over
    (l1 + 2 r_max)!, r_max = sum_i floor(rest_i/2).
    """
    top = l1 + 2 * sum(l // 2 for l in rest)
    seed = {}
    for r, num, exp in _laplacian_terms(rest, tables):
        num *= math.perm(power + r - 1, r) * math.perm(top, top - l1 - 2 * r)
        seed[(l1 + 2 * r,) + exp] = -num if r & 1 else num
    return seed, math.factorial(top)


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


def klein_gordon_solutions(a, monomial):
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
    cfg = SeriesConfig(t1, t1_inv, t2)
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
    check = TrigApplicator(kg, a, "t", (v_re, v_im))
    for sol in (first, second):
        if not check(sol).is_zero():
            raise VerificationError("Klein-Gordon output fails the defining identity")
    return first, second
