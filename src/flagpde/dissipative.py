"""Damped wave, anisymmetric Laplace, EPD, and Klein-Gordon solution families.

The common engine is the damped derivative d = a*d/dt + d^2/dt^2 and its
right inverse (operators.DampedIntegration).  Iterating that inverse on 1
produces the family of dissipation polynomials xi(a, i), which satisfy the
exact descent d(xi_i) = xi_(i-1); they supply the time dependence of every
family in this module, with the purely imaginary a = 2*freq*sqrt(-1) in
the Klein-Gordon case.  The damped-wave and anisymmetric families are
series sum_R p_R L^R(x^l) built and proved solutions by
``bases._SeriesLemma``: over the corner t with L the Laplacian, except the
phi branch of a negative odd lambda = -2k-1, a series over the corner
(t, x1) with L the Laplacian of x2..xn.
"""

from __future__ import annotations

import functools
import math

from .bases import (
    BasisElement,
    BasisFamily,
    _check_cap,
    _checked,
    _SeriesLemma,
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


def dissipation_polynomial(a, i: int) -> Polynomial:
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
        return Polynomial.const(1, ("t",))
    if i == 1:
        return Polynomial(("t",), {(1,): ainv})
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
    return Polynomial(("t",), terms)


def _laplacian(vars_):
    return Sum(Derivative(v, 2) for v in vars_)


def dissipative_wave_basis(n: int, cap: int) -> BasisFamily:
    """Solution basis of u_tt + u_t = sum_i u_(xi xi), indexed by monomials.

    The element for index l is sum_i xi(1, i)(t) * Lap^i(x^l), the series
    of ``bases._SeriesLemma.element`` with profile xi(1, i) and one block
    d^2/dx_i^2 per variable; the Laplacian powers terminate and each xi
    supplies the matching time correction.  The lemma
    (``bases._SeriesLemma``) proves it with K = d^2/dt^2 + d/dt, M = -1 and
    P_R = R! xi(1, R), so K P_0 = 0 and K P_R = R P_(R-1) (the descent
    d(xi_R) = xi_(R-1)).
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
    lemma = _SeriesLemma(("t",), Sum((Derivative("t", 2), Derivative("t", 1))), Polynomial.const(-1),
                         [(1, (2,), (x,)) for x in x_vars], ("t",) + x_vars)
    profile = lemma.profile(dissipation_polynomial(Fraction(1), r) for r in range(cap // 2 + 1))
    elements = [BasisElement({"ell": ell}, lemma.element(profile, ell))
                for ell in tuples_with_sum_at_most(n, cap)]
    return _checked(elements, annihilator, {"cap": cap, "n": n}, lemma)


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
    with the t^(1-lam) profiles; negative odd integers lam = -2k-1 keep the
    second branch and replace the first by sum_(r <= k) eps^r phi_r Lap^r(s)
    over the kernel seeds s = sum_R q_R(x1) Lap'^R(x2^l2..xn^ln) with
    q_R = (-1)^R C(k+R, R) x1^(l1+2R)/(l1+2R)!, l1 < 2k+2, Lap' the
    Laplacian of x2..xn.  The lemma (``bases._SeriesLemma``) proves the
    monomial-seed branches with K = t d^2/dt^2 + lam d/dt, M = -eps t and
    P_R = R! eps^R phi_R (or psi_R), so K P_0 = 0 and K P_R = R eps t P_(R-1).
    The negative odd phi branch is one such series too, over the corner
    (t, x1) with K = t d^2/dt^2 + lam d/dt - eps t d^2/dx1^2, the same M and
    the blocks d^2/dx_i^2, i >= 2: Lap = d^2/dx1^2 + Lap' and
    sum_i (-1)^i C(r, i) C(k+R-i, k) = C(k+R-r, k-r) give
    R! p_R = (-1)^R sum_(r <= min(k, R + l1//2)) eps^r phi_r perm(k-r+R, R)
    t^(2r) x1^(l1+2(R-r)) / (l1+2(R-r))!, whose r = 0 term is R! q_R.  Both
    lemmas are proved against the family's annihilator.
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
    t_part = [Compose(MultiplyBy(t_poly), Derivative("t", 2)), Compose(Scale(lam), Derivative("t", 1))]
    annihilator = Sum(t_part + [Compose(Scale(-epsilon), MultiplyBy(t_poly), lap)])
    kind = classify_lambda(lam)
    x_blocks = [(1, (2,), (x,)) for x in x_vars]
    lemma = _SeriesLemma(("t",), Sum(t_part), -epsilon * t_poly, x_blocks, ("t",) + x_vars)
    lemmas = (lemma,)

    def branch(factor, name):
        """One element per seed x^ell: sum_R eps^R factor(lam, R) Lap^R(x^ell),
        with the profile read once per family."""
        profile = lemma.profile(epsilon**r * factor(lam, r) for r in range(cap // 2 + 1))
        return [BasisElement({"ell": ell, "branch": name}, lemma.element(profile, ell))
                for ell in tuples_with_sum_at_most(n, cap)]

    if kind == "negative_odd":
        # lam = -2k-1: phi_r is undefined from r = k+1 on, so the phi branch
        # is the docstring's series over the corner (t, x1), one profile p_R
        # per l1 < 2k+2
        k = (-int(lam) - 1) // 2
        phi_lemma = _SeriesLemma(
            ("t", "x1"), Sum(t_part + [Compose(Scale(-epsilon), MultiplyBy(t_poly), Derivative("x1", 2))]),
            -epsilon * t_poly, x_blocks[1:], ("t",) + x_vars)
        lemmas = (phi_lemma, lemma)
        phis = [epsilon**r * _phi_factor(lam, r).coefficient({"t": 2 * r}) for r in range(k + 1)]
        elements = []
        for l1 in range(2 * k + 2):
            profile = phi_lemma.profile(
                Polynomial(("t", "x1"), {(2 * r, l1 + 2 * (big_r - r)): phi * Fraction(
                    (-1) ** big_r * math.comb(k - r + big_r, big_r), math.factorial(l1 + 2 * (big_r - r)))
                    for r, phi in enumerate(phis[:big_r + l1 // 2 + 1])})
                for big_r in range(cap // 2 + 1))
            elements += [BasisElement({"ell": (l1,) + rest, "branch": "phi"}, phi_lemma.element(profile, rest))
                         for rest in tuples_with_sum_at_most(n - 1, cap)]
    else:
        elements = branch(_phi_factor, "phi")
    if kind != "generic":
        elements += branch(_psi_factor, "psi")
    return _checked(
        elements,
        annihilator,
        {"cap": cap, "n": n, "lambda": str(lam), "epsilon": epsilon, "kind": kind},
        *lemmas,
    )


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


@functools.cache
def _gauged_series(a: Fraction) -> SeriesConfig:
    """The series hypotheses of the gauged equation at frequency a:
    T1 = d^2/dt^2 + 2ia d/dt, its damped right inverse and
    T2 = -(d^2/dx^2 + x d^2/dy^2 + y d^2/dz^2).  They depend on a alone, so
    ``SeriesConfig`` proves the right-inverse law once per frequency per
    process; a failed proof raises and is not kept."""
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
    return SeriesConfig(t1, DampedIntegration(two_ia, "t"), Compose(Scale(Fraction(-1)), tricomi))


def klein_gordon_solutions(a, monomial):
    """Two real trig-polynomial solutions of the generalized Klein-Gordon equation

        u_tt - u_xx - x u_yy - y u_zz + a^2 u = 0

    for a nonzero rational frequency a.  The complex series solution of the
    gauged equation v_tt + 2ia v_t = v_xx + x v_yy + y v_zz is computed from
    the seed monomial x^m1 y^m2 z^m3, then e^(iat) v is split into its real
    and imaginary parts.  The first output is verified exactly in the trig
    ring, and that proves the second: on (cos, sin) parts the second is
    -J of the first, J(P, Q) = (Q, -P), and ``TrigApplicator`` writes the
    operator as M0 + M1 J with M0 and M1 acting on each part, so it maps
    (-Q, P) to (-B, A) whenever it maps (P, Q) to (A, B).
    """
    a = Fraction(a)
    if not a:
        raise ValueError("degenerate frequency")
    m1, m2, m3 = monomial
    x, y = variable("x"), variable("y")
    seed = Polynomial(("x", "y", "z"), {(m1, m2, m3): Fraction(1)})
    v = solve_by_series(_gauged_series(a), Polynomial.const(1, ("t",)), seed)

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
    if not TrigApplicator(kg, a, "t", (v_re, v_im))(first).is_zero():
        raise VerificationError("Klein-Gordon output fails the defining identity")
    return first, second
