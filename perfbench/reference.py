"""Reference checks that do not share the code path under test.

Exact results are checked with a small dictionary polynomial arithmetic of
this file's own (exponent tuple -> Fraction), closed-form element counts and
dimensions, distinct leading monomials, and a rank modulo a prime.  Numeric
results are checked against closed forms, an mpmath matrix exponential at
raised precision, or an eighth-order finite-difference residual of the PDE
itself.  Every check returns None when the result passes and a one-line
reason when it fails.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

ODE_TOL = 1e-10      # relative to max(1, |y|); the ROADMAP gate for cos(10t) at t = 5
IVP_TOL = 1e-9       # relative to the summed data amplitudes; the ROADMAP gate for wave modes
FD_TOL = 1e-6        # relative PDE residual of the eighth-order stencil
FD_STEP = 0.01
PRIME = (1 << 61) - 1

# -- dictionary polynomials ---------------------------------------------------------

def from_poly(p, vs):
    """(re, im) dictionaries of a flagpde Polynomial over the variable tuple vs."""
    idx = [vs.index(v) for v in p.vars]
    re, im = {}, {}
    for exp, c in p.terms.items():
        key = [0] * len(vs)
        for i, e in zip(idx, exp):
            key[i] = e
        key = tuple(key)
        r, j = getattr(c, "re", c), getattr(c, "im", 0)
        if r:
            re[key] = Fraction(r)
        if j:
            im[key] = Fraction(j)
    return re, im


def from_json_terms(terms, vs):
    re, im = {}, {}
    for t in terms:
        key = tuple(t["exp"].get(v, 0) for v in vs)
        r, j = Fraction(t["re"]), Fraction(t.get("im", "0"))
        if r:
            re[key] = r
        if j:
            im[key] = j
    return re, im


def _diff(d, i, k):
    out = {}
    for exp, c in d.items():
        e = exp[i]
        if e < k:
            continue
        f = 1
        for j in range(k):
            f *= e - j
        out[exp[:i] + (e - k,) + exp[i + 1:]] = c * f
    return out


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _acc(out, d, scale=1):
    for exp, c in d.items():
        out[exp] = out.get(exp, 0) + c * scale


def apply_equation(eq, u):
    """Sum of coeff * d^orders u over eq = [(coeff, ((var_index, order), ...)), ...].

    coeff is a Fraction or a dictionary polynomial over the same variables.
    The equations here have rational coefficients, so real and imaginary
    parts are treated separately by the caller.
    """
    out = {}
    for coeff, orders in eq:
        d = u
        for i, k in orders:
            d = _diff(d, i, k)
            if not d:
                break
        if not d:
            continue
        if isinstance(coeff, dict):
            _acc(out, _mul(coeff, d))
        else:
            _acc(out, d, coeff)
    return {e: c for e, c in out.items() if c}


def annihilated(eq, parts):
    return all(not apply_equation(eq, part) for part in parts)


def monomial(vs, exps):
    return {tuple(exps.get(v, 0) for v in vs): Fraction(1)}


def leading_distinct(elements, priority):
    """True when the lex-leading monomials (variables ranked by priority) differ."""
    leads = set()
    for re, im in elements:
        support = set(re) | set(im)
        if not support:
            return False
        leads.add(max(tuple(e[i] for i in priority) for e in support))
    return len(leads) == len(elements)


def rank_mod_p(rows):
    """Rank over GF(p) of Fraction rows; rank mod p <= rank over Q."""
    work = []
    for row in rows:
        work.append([(c.numerator * pow(c.denominator, -1, PRIME)) % PRIME for c in row])
    rank, ncols = 0, len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, PRIME)
        prow = [(v * inv) % PRIME for v in work[rank]]
        work[rank] = prow
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f:
                work[r] = [(a - f * b) % PRIME for a, b in zip(work[r], prow)]
        rank += 1
    return rank


def independent_mod_p(parts_list):
    """Full rank mod p of the (re and im stacked) coefficient vectors."""
    support = sorted({e for re, im in parts_list for e in list(re) + list(im)})
    rows = []
    for re, im in parts_list:
        rows.append([re.get(e, Fraction(0)) for e in support] + [im.get(e, Fraction(0)) for e in support])
    return rank_mod_p(rows) == len(parts_list)


# -- closed forms ---------------------------------------------------------------------

def n_monomials_at_most(n, d):
    """Monomials of total degree <= d in n variables."""
    return math.comb(d + n, n) if d >= 0 else 0


def n_monomials_exact(n, d):
    return math.comb(d + n - 1, n - 1) if d >= 0 else 0


def harmonic_dim(n, d):
    """Dimension of the degree-d harmonic polynomials in n variables."""
    return n_monomials_exact(n, d) - n_monomials_exact(n, d - 2)


def contraction_free_dim(n, l1, l2):
    """Dimension of the kernel of sum d/dx_i d/dy_i on bidegree (l1, l2)."""
    lower = n_monomials_exact(n, l1 - 1) * n_monomials_exact(n, l2 - 1)
    return n_monomials_exact(n, l1) * n_monomials_exact(n, l2) - lower


# -- family checks ----------------------------------------------------------------------

def check_elements(parts, names, eq, count, priority):
    """Element count, exact annihilation by eq, distinct leading monomials.

    parts holds the (re, im) dictionaries of the elements, names their indices.
    """
    if len(parts) != count:
        return f"{len(parts)} elements, closed form {count}"
    for name, (re, im) in zip(names, parts):
        if not (re or im):
            return f"element {name} is zero"
        if not annihilated(eq, (re, im)):
            return f"element {name} not annihilated"
    if not leading_distinct(parts, priority):
        return "leading monomials not distinct"
    return None


def check_family(family, eq, vs, count, priority):
    parts = [from_poly(e.solution, vs) for e in family.elements]
    return check_elements(parts, [e.index for e in family.elements], eq, count, priority)


def check_json_family(elements, eq, vs, count, priority):
    parts = [from_json_terms(e["solution"], vs) for e in elements]
    return check_elements(parts, [e["indexMeta"] for e in elements], eq, count, priority)


def kg_equations(a, vs):
    """Klein-Gordon on P cos(at) + Q sin(at): the cos and sin coefficient equations.

    u_tt - u_xx - x u_yy - y u_zz + a^2 u = 0 splits into
    P_tt + 2a Q_t - L P = 0 and Q_tt - 2a P_t - L Q = 0 with
    L = d_xx + x d_yy + y d_zz.
    """
    t, x, y, z = (vs.index(v) for v in ("t", "x", "y", "z"))
    xm, ym = monomial(vs, {"x": 1}), monomial(vs, {"y": 1})
    spatial = [(Fraction(-1), ((x, 2),)), (_neg(xm), ((y, 2),)), (_neg(ym), ((z, 2),))]
    own = [(Fraction(1), ((t, 2),))] + spatial
    cross = [(Fraction(2) * a, ((t, 1),))]
    return own, cross


def _neg(d):
    return {e: -c for e, c in d.items()}


def check_kg_pair(a, pair_parts, vs):
    """pair_parts: [(P, Q), ...] real dictionary polynomials per solution."""
    own, cross = kg_equations(a, vs)
    for k, (p, q) in enumerate(pair_parts):
        if not (p or q):
            return f"solution {k} is zero"
        first = apply_equation(own, p)
        _acc(first, apply_equation(cross, q))
        second = apply_equation(own, q)
        _acc(second, apply_equation(cross, p), -1)
        if any(first.values()) or any(second.values()):
            return f"solution {k} fails the Klein-Gordon equation"
    return None


# -- numeric references ---------------------------------------------------------------

def ode_reference(coeffs, init, t, dps=40):
    """y(t) of y^(m) = b1 y^(m-1) + ... + bm y by the companion-matrix exponential."""
    m = len(coeffs)
    with mpmath.workdps(dps):
        c = mpmath.zeros(m, m)
        for i in range(m - 1):
            c[i, i + 1] = 1
        for p, b in enumerate(coeffs, start=1):
            c[m - 1, m - p] = mpmath.mpf(Fraction(b).numerator) / Fraction(b).denominator
        y0 = mpmath.matrix([mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in init])
        y = mpmath.expm(c * mpmath.mpf(t)) * y0
        return float(y[0])


def check_ode(value, coeffs, init, t):
    want = ode_reference(coeffs, init, t)
    if not math.isfinite(value):
        return f"value {value} not finite"
    err = abs(value - want)
    if err > ODE_TOL * max(1.0, abs(want)):
        return f"y({t:g}) = {value:.6g}, reference {want:.6g}"
    return None


def mode_factors(kind, omega, mu, x1):
    """(A, B) with y(x1) = A y(0) + B y'(0) for the x1 evolution of one mode."""
    if kind == "heat":
        return math.exp(-omega * omega * x1), 0.0
    big = math.sqrt(omega * omega + mu * mu)
    return math.cos(big * x1), math.sin(big * x1) / big


def flag_ivp_reference(kind, mu, half_width, traces, point):
    """Closed form of the 1-D flag IVP: traces[r] maps k -> (cos, sin) of d^r u/dx1^r at 0."""
    x1, x2 = point
    total = 0.0
    keys = set()
    for tr in traces:
        keys.update(tr)
    for k in keys:
        omega = 2 * math.pi * k / half_width
        theta = omega * x2
        a, b = mode_factors(kind, omega, mu, x1)
        c0, s0 = traces[0].get(k, (0.0, 0.0))
        wave0 = c0 * math.cos(theta) + s0 * math.sin(theta)
        total += a * wave0
        if len(traces) > 1:
            c1, s1 = traces[1].get(k, (0.0, 0.0))
            total += b * (c1 * math.cos(theta) + s1 * math.sin(theta))
    return total


def amplitude_scale(traces):
    return max(1.0, sum(abs(c) + abs(s) for tr in traces for c, s in tr.values()))


def check_flag_values(kind, mu, half_width, traces, points, values):
    scale = amplitude_scale(traces)
    worst, where = 0.0, None
    for pt, v in zip(points, values):
        err = abs(v - flag_ivp_reference(kind, mu, half_width, traces, pt))
        if not err <= worst:
            worst, where = err, pt
    if worst > IVP_TOL * scale:
        return f"error {worst:.3g} at x = {tuple(round(c, 3) for c in where)} above {IVP_TOL:g}"
    return None


_C2 = (-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560)
_C1 = (1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280)


def _stencil(f, coeffs, h, power):
    return sum(c * f((j - 4) * h) for j, c in enumerate(coeffs) if c) / h**power


def trig_value(modes, half_widths, point):
    total = 0.0
    for k, (c, s) in modes.items():
        theta = 2 * math.pi * sum(kv / a * x for kv, a, x in zip(k, half_widths, point))
        total += c * math.cos(theta) + s * math.sin(theta)
    return total


def check_tree_wave(u, nodes, edges, half_widths, g0, g1, t, point, h=FD_STEP):
    """u(t, point) must satisfy u_tt = d_T u with u(0) = g0 and u_t(0) = g1.

    d_T = d^2/dx1^2 + sum over edges (i, j) of x_i d^2/dx_j^2; derivatives are
    eighth-order central differences, so the residual is judged relative to
    the size of its two sides.
    """
    def along(axis):
        return lambda s: u(t, tuple(p + (s if i == axis else 0.0) for i, p in enumerate(point)))

    utt = _stencil(lambda s: u(t + s, point), _C2, h, 2)
    second = [_stencil(along(a), _C2, h, 2) for a in range(nodes)]
    dtu = second[0] + sum(point[i - 1] * second[j - 1] for i, j in edges)
    scale = abs(utt) + abs(dtu) + 1e-3 * (1 + abs(u(t, point)))
    if abs(utt - dtu) > FD_TOL * scale:
        return f"PDE residual {abs(utt - dtu):.3g} against {scale:.3g} at t = {t:g}"
    amp = max(1.0, sum(abs(c) + abs(s) for c, s in list(g0.values()) + list(g1.values())))
    if abs(u(0.0, point) - trig_value(g0, half_widths, point)) > 1e-8 * amp:
        return "position trace not reproduced"
    vel = _stencil(lambda s: u(s, point), _C1, h, 1)
    if abs(vel - trig_value(g1, half_widths, point)) > 1e-6 * amp:
        return "velocity trace not reproduced"
    return None
