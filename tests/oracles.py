"""Independent brute-force oracles shared by the test modules."""

import cmath
import functools
import itertools
import math
from fractions import Fraction

from flagpde import Polynomial, lie, variable
from flagpde.combinatorics import multinomial
from flagpde.linalg import (
    kernel_on_slice,
    monomials_of_degree,
    monomials_up_to_degree,
    polys_in_span,
    polys_rank,
)


def assert_family_spans_kernel(family, vars_, degree):
    """Exact two-way comparison of span(family) cut to the degree slice
    against the brute-force kernel on that slice.

    Family elements can exceed the slice degree while combinations of them
    fall inside it, so the slice cut is computed by exact rank over the
    high-degree columns rather than by filtering the elements.
    """
    from flagpde.linalg import matrix_rank, polys_to_matrix

    sols = [e.solution for e in family.elements]
    kernel = kernel_on_slice(family.annihilator, monomials_up_to_degree(vars_, degree))
    assert polys_rank(sols) == len(sols), "family elements are dependent"
    rows, keys, _ = polys_to_matrix(sols)
    high = [j for j, key in enumerate(keys) if sum(key) > degree]
    high_rank = matrix_rank([[row[j] for j in high] for row in rows]) if high else 0
    cut_dimension = len(sols) - high_rank
    assert cut_dimension == len(kernel), (
        f"family span meets the slice in dimension {cut_dimension}, "
        f"kernel dimension is {len(kernel)}"
    )
    in_slice = [p for p in sols if p.total_degree() <= degree]
    assert polys_in_span(kernel, in_slice), "family element outside the kernel span"
    assert polys_in_span(sols, kernel), "kernel element outside the family span"


def sigma_word_value(orders, powers, ell):
    """Two-stage extension series evaluated directly as operator words.

    orders = (m1, m2, m3), powers = (n1, n2) are the block orders and the
    coefficient monomial powers; ell indexes the seed monomials.  Every word
    [integrations and x-multiplications](x^l1) * [y-derivatives and
    y-multiplications](y^l2) * d^(k m3)(z^l3) is expanded by plain polynomial
    calculus, with no shared code with the production generator.
    """
    m1, m2, m3 = orders
    n1, n2 = powers
    l1, l2, l3 = ell
    xv, yv, zv = variable("x1"), variable("x2"), variable("x3")
    total = Polynomial.zero(("x1", "x2", "x3"))

    def int_mult(p, times):
        for _ in range(times):
            p = (xv**n1 * p).integrate_n("x1", m1)
        return p

    for k in range(l3 // m3 + 1):
        zpart = (zv**l3).diff("x3", k * m3)
        if zpart.is_zero():
            break
        bound = (l2 + k * n2) // m2 + 1
        for tup in itertools.product(range(bound + 1), repeat=k + 1):
            i_front, i_last = tup[:k], tup[k]
            ypart = (yv**l2).diff("x2", i_last * m2)
            if ypart.is_zero():
                continue
            dead = False
            for i_s in reversed(i_front):
                ypart = (yv**n2 * ypart).diff("x2", i_s * m2)
                if ypart.is_zero():
                    dead = True
                    break
            if dead:
                continue
            xpart = int_mult(xv**l1, i_last)
            for i_s in reversed(i_front):
                xpart = int_mult(xpart.integrate_n("x1", m1), i_s)
            sign = (-1) ** (k + sum(tup))
            total = total + sign * xpart * ypart * zpart
    return total


def dissipative_element_formula(n, ell, xi):
    """Explicit multinomial form of the damped-wave element for index ell.

    xi is a callable i -> dissipation polynomial; the element is
    sum over r-tuples of multinomial(r) * prod (2 r_i)! C(l_i, 2 r_i)
    * xi(|r|) * x^(l - 2r).
    """
    x_vars = tuple(f"x{i}" for i in range(1, n + 1))
    total = Polynomial.zero(("t",) + x_vars)
    ranges = [range(l // 2 + 1) for l in ell]
    for rs in itertools.product(*ranges):
        coeff = Fraction(multinomial(rs))
        for l, r in zip(ell, rs):
            coeff *= math.factorial(2 * r) * math.comb(l, 2 * r)
        if not coeff:
            continue
        mono = Polynomial(x_vars, {tuple(l - 2 * r for l, r in zip(ell, rs)): coeff})
        total = total + xi(sum(rs)) * mono
    return total


def zeta_closed_form(index, a):
    """Real and imaginary profiles of the damped-inverse iterates at the
    imaginary frequency 2*a*sqrt(-1), by the alternating factorial sums.

    Reciprocal factorials of negative integers are taken as zero.  Returns
    a pair of polynomials in t.
    """

    def rfact(n):
        return Fraction(0) if n < 0 else Fraction(1, math.factorial(n))

    two_a = 2 * Fraction(a)

    def pw(k):
        return two_a**k

    t = variable("t")

    def tpow(e):
        return t**e if e >= 0 else Polynomial.zero(("t",))

    if index % 2 == 0:
        i = index // 2
        re = rfact(2 * i) / pw(2 * i) * tpow(2 * i)
        for r in range(1, i):
            num = Fraction(1)
            for s in range(1, 2 * r):
                num *= 2 * i + s
            coeff = (-1) ** r * num * rfact(2 * r) * rfact(2 * (i - r) - 1) / pw(2 * (i + r))
            re = re + coeff * tpow(2 * (i - r))
        re = (-1) ** i * re
        im = rfact(2 * i - 2) / pw(2 * i + 1) * tpow(2 * i - 1)
        for r in range(1, i):
            num = Fraction(1)
            for s in range(1, 2 * r + 1):
                num *= 2 * i + s
            coeff = (-1) ** r * num * rfact(2 * r + 1) * rfact(2 * (i - r - 1)) / pw(2 * i + 2 * r + 1)
            im = im + coeff * tpow(2 * i - 2 * r - 1)
        im = (-1) ** i * im
        return re, im
    i = (index - 1) // 2
    re = rfact(2 * i - 1) / pw(2 * (i + 1)) * tpow(2 * i)
    for r in range(1, i):
        num = Fraction(1)
        for s in range(1, 2 * r + 1):
            num *= 2 * i + s + 1
        coeff = (-1) ** r * num * rfact(2 * r + 1) * rfact(2 * i - 2 * r - 1) / pw(2 * (i + r + 1))
        re = re + coeff * tpow(2 * (i - r))
    re = (-1) ** i * re
    im = rfact(2 * i + 1) / pw(2 * i + 1) * tpow(2 * i + 1)
    for r in range(1, i + 1):
        num = Fraction(1)
        for s in range(1, 2 * r):
            num *= 2 * i + s + 1
        coeff = (-1) ** r * num * rfact(2 * r) * rfact(2 * i - 2 * r) / pw(2 * i + 2 * r + 1)
        im = im + coeff * tpow(2 * i - 2 * r + 1)
    im = (-1) ** (i + 1) * im
    return re, im


def dense_rref(rows, ncols):
    """Reduced row echelon form by dense Gauss-Jordan over the entries' field.

    Returns (rref rows, pivot columns). Every cell is a field element, zeros
    included, so this shares no code with the sparse elimination in linalg.
    """
    work = [[Fraction(v) if isinstance(v, int) else v for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        work[r] = [v / lead for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


def dense_nullspace(rows, ncols):
    """Kernel basis read off the RREF: one vector per free column."""
    rref, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rref, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


# -- the Lie commutation suite ---------------------------------------------------------

def agree_on_monomials(lhs, rhs, vars_, max_degree):
    """True when lhs(m) == rhs(m) for every monomial m of degree <= max_degree."""
    return all(
        lhs(mono) == rhs(mono)
        for d in range(max_degree + 1)
        for mono in monomials_of_degree(vars_, d)
    )


def _euler(vars_):
    return lambda p: sum((variable(v) * p.diff(v) for v in vars_), Polynomial.zero(vars_))


def _g2_reading_by_monomials(action, eta, max_degree):
    """The Laplacian reading that passes on monomials up to max_degree."""
    vars_ = tuple(f"x{i}" for i in range(1, 8))
    euler = _euler(vars_)
    passed = []
    for first_var in (1, 2):
        lap = lie.g2_laplacian(first_var)
        law = agree_on_monomials(lambda m: lap(eta * m),
                                 lambda m: eta * lap(m) + 14 * m + 4 * euler(m), vars_, max_degree)
        commutes = all(
            agree_on_monomials(lambda m, part=part: lap(part(m)), lambda m, part=part: part(lap(m)),
                               vars_, max_degree)
            for gen in action.values() for part in (gen.rational, gen.radical)
        )
        if law and commutes:
            passed.append(first_var)
    assert len(passed) == 1, passed
    return passed[0]


def _dense(m):
    """A sparse Z[sqrt(2)] matrix as its dense 7x7 rational and sqrt(2) parts."""
    rat, rad = [[0] * 7 for _ in range(7)], [[0] * 7 for _ in range(7)]
    for (i, j), (p, q) in m.items():
        rat[i - 1][j - 1], rad[i - 1][j - 1] = p, q
    return rat, rad


def _combine(a, b, scale=1):
    return [[x + scale * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _dense_product(a, b):
    (p, q), (s, t) = a, b

    def mul(x, y):
        return [[sum(u * v for u, v in zip(row, col)) for col in zip(*y)] for row in x]

    return _combine(mul(p, s), mul(q, t), 2), _combine(mul(p, t), mul(q, s))


def _dense_bracket(a, b):
    ab, ba = _dense_product(a, b), _dense_product(b, a)
    return _combine(ab[0], ba[0], -1), _combine(ab[1], ba[1], -1)


@functools.cache
def g2_bracket_report_dense():
    """g2_bracket_report on dense matrices, closure by dense Gauss-Jordan ranks."""
    mats = {name: _dense(m) for name, m in lie.g2_matrices().items()}

    def scaled(m, c):
        return tuple([[c * x for x in row] for row in part] for part in m)

    def flat(m):
        return [x for part in m for row in part for x in row]

    names = sorted(mats)
    basis = [flat(mats[n]) for n in names]
    base = dense_rank(basis, 98)
    return {
        "E3 = [E1,E2]": _dense_bracket(mats["E1"], mats["E2"]) == mats["E3"],
        "[E1,E3] = 2 E4": _dense_bracket(mats["E1"], mats["E3"]) == scaled(mats["E4"], 2),
        "[E1,E4] = 3 E5": _dense_bracket(mats["E1"], mats["E4"]) == scaled(mats["E5"], 3),
        "E6 = [E5,E2]": _dense_bracket(mats["E5"], mats["E2"]) == mats["E6"],
        "traceless": all(sum(part[i][i] for i in range(7)) == 0 for m in mats.values() for part in m),
        "closure": base == 14 and all(
            dense_rank(basis + [flat(_dense_bracket(mats[a], mats[b]))], 98) == base
            for a, b in itertools.combinations(names, 2)
        ),
    }


def commutation_checks_by_monomials(n_sl=2, max_degree=3):
    """lie.commutation_checks by applying both sides of each identity to every
    monomial up to max_degree, and the brackets on dense matrices."""
    report = {}
    zeta = lie.sl_invariant(n_sl)
    delta = lie.sl_laplacian(n_sl)
    sl_gens = [
        lie.sl_generator(n_sl, i, j)
        for i in range(1, n_sl + 1)
        for j in range(1, n_sl + 1)
        if i != j
    ] + lie.sl_cartan(n_sl)
    report["zeta invariant"] = all(op(zeta).is_zero() for op in sl_gens)
    vars_sl = tuple(f"x{i}" for i in range(1, n_sl + 1)) + tuple(f"y{i}" for i in range(1, n_sl + 1))
    report["contraction commutes with action"] = all(
        agree_on_monomials(lambda m, op=op: delta(op(m)), lambda m, op=op: op(delta(m)),
                           vars_sl, max_degree)
        for op in sl_gens
    )
    euler = _euler(vars_sl)
    report["zeta multiplication law"] = agree_on_monomials(
        lambda m: delta(zeta * m), lambda m: n_sl * m + zeta * delta(m) + euler(m), vars_sl, max_degree
    )

    eta = lie.g2_invariant()
    action = lie.g2_polynomial_action()
    report["eta invariant"] = all(gen.annihilates(eta) for gen in action.values())
    reading = _g2_reading_by_monomials(action, eta, 2)
    report["laplacian reading"] = reading
    lap = lie.g2_laplacian(reading)
    vars_g2 = tuple(f"x{i}" for i in range(1, 8))
    report["g2 laplacian commutes with action"] = all(
        agree_on_monomials(lambda m, part=part: lap(part(m)), lambda m, part=part: part(lap(m)),
                           vars_g2, max_degree)
        for gen in action.values() for part in (gen.rational, gen.radical)
    )
    euler7 = _euler(vars_g2)
    report["eta multiplication law"] = agree_on_monomials(
        lambda m: lap(eta * m), lambda m: eta * lap(m) + 14 * m + 4 * euler7(m), vars_g2, max_degree
    )
    report.update(g2_bracket_report_dense())
    return report


# -- the numeric evaluators ------------------------------------------------------------

def weighted_index_tuples(m, max_weight, p=0):
    """Index tuples (i_p .. i_(m-1)) with weight sum (q+1) i_q at most max_weight."""
    if p == m:
        yield ()
        return
    for i in range(max_weight // (p + 1) + 1):
        for rest in weighted_index_tuples(m, max_weight - (p + 1) * i, p + 1):
            yield (i,) + rest


def _weight(tup):
    return sum((p + 1) * i for p, i in enumerate(tup))


def graded_exponential_series(r, args, max_weight):
    """The tuple series sum multinomial(i) prod args^i / (r + w(i))! over the
    tuples of weight w(i) <= max_weight, summed exactly and rounded once.

    Float arguments are dyadic rationals (numerators over a common 2^shift),
    so every term is a Gaussian integer over 2^(shift |i|) (r + w)!; the terms
    are brought to one denominator and added as integers.  For arguments of
    modulus at most 2 and up to four of them the tail beyond weight 40 is
    below 1e-30.
    """
    parts = [Fraction(x) for a in args for x in (complex(a).real, complex(a).imag)]
    shift = max(f.denominator.bit_length() - 1 for f in parts)
    ints = [f.numerator << (shift - f.denominator.bit_length() + 1) for f in parts]
    gauss = list(zip(ints[0::2], ints[1::2]))
    powers = []
    for p, (ar, ai) in enumerate(gauss):
        row = [(1, 0)]
        for _ in range(max_weight // (p + 1)):
            pr, pi = row[-1]
            row.append((pr * ar - pi * ai, pr * ai + pi * ar))
        powers.append(row)
    top = math.factorial(r + max_weight)
    re = im = 0
    for tup in weighted_index_tuples(len(gauss), max_weight):
        w, n = _weight(tup), sum(tup)
        tr, ti = multinomial(tup) * (top // math.factorial(r + w)) << shift * (max_weight - n), 0
        for row, i in zip(powers, tup):
            pr, pi = row[i]
            tr, ti = tr * pr - ti * pi, tr * pi + ti * pr
        re += tr
        im += ti
    den = top << shift * max_weight
    return complex(re / den, im / den)


def fundamental_derivative_oracle(coeffs, s, r):
    """r-th derivative at 0 of the s-th fundamental solution of
    y^(m) = b1 y^(m-1) + ... + bm y: the multinomial sum over the tuples of
    weight r - s, in exact arithmetic."""
    if r < s:
        return Fraction(0)
    out = Fraction(0)
    for tup in weighted_index_tuples(len(coeffs), r - s):
        if _weight(tup) != r - s:
            continue
        term = Fraction(multinomial(tup))
        for b, i in zip(coeffs, tup):
            term *= Fraction(b) ** i
        out += term
    return out


def tree_wave_series_eager(tree, g0, g1, t, point, max_terms=120):
    """u(t, point) of the strictly second-order tree evolution with every
    mode's carrier chain built up front to max_terms operator powers (or
    until one vanishes) and summed term by term in the solver's order."""
    from flagpde.ivp import _carrier_apply

    total = 0.0
    for k in sorted(set(g0.modes) | set(g1.modes)):
        omegas = [2 * math.pi * kv / a for kv, a in zip(k, g0.half_widths)]
        chain = [{(0,) * tree.nodes: 1 + 0j}]
        for _ in range(max_terms):
            chain.append(_carrier_apply(tree, omegas, chain[-1]))
            if not chain[-1]:
                break
        theta = 2 * math.pi * sum(kv / a * xv for kv, a, xv in zip(k, g0.half_widths, point))
        phase = cmath.exp(1j * theta)
        even = odd = 0j
        quiet = 0
        for i, carrier in enumerate(chain):
            if not carrier:
                break
            value = 0j
            size = 0.0
            for exp, coeff in carrier.items():
                term = coeff
                for e, xv in zip(exp, point):
                    if e:
                        term *= xv**e
                value += term
                size += abs(term)
            value *= phase
            te = t ** (2 * i) / math.factorial(2 * i)
            to = t ** (2 * i + 1) / math.factorial(2 * i + 1)
            even += te * value
            odd += to * value
            step = (abs(te) + abs(to)) * size
            quiet = quiet + 1 if step < 1e-14 * (1.0 + abs(even) + abs(odd)) else 0
            if quiet >= 2:
                break
        else:
            raise AssertionError("eager series did not settle")
        b0, c0 = g0.modes.get(k, (0.0, 0.0))
        b1, c1 = g1.modes.get(k, (0.0, 0.0))
        total += b0 * even.real + c0 * even.imag
        total += b1 * odd.real + c1 * odd.imag
    return total


def tree_heat_mode_series(tree, k, half_widths, t, point, max_terms=200):
    """exp(t d_T) applied to the mode wave exp(i theta) at the point, as the
    operator-power series sum t^i/i! d_T^i, each power built from the last
    by the solver's carrier step and summed until two consecutive terms fall
    below 1e-18 of the sum of their moduli."""
    from flagpde.ivp import _carrier_apply

    omegas = [2 * math.pi * kv / a for kv, a in zip(k, half_widths)]
    carrier = {(0,) * tree.nodes: 1 + 0j}
    total = 0j
    spread = 0.0
    quiet = 0
    for i in range(max_terms):
        if not carrier:
            break
        weight = t**i / math.factorial(i)
        value = 0j
        size = 0.0
        for exp, coeff in carrier.items():
            term = coeff * math.prod(xv**e for e, xv in zip(exp, point))
            value += term
            size += abs(term)
        total += weight * value
        spread += abs(weight) * size
        quiet = quiet + 1 if abs(weight) * size < 1e-18 * spread else 0
        if quiet >= 2:
            break
        carrier = _carrier_apply(tree, omegas, carrier)
    else:
        raise AssertionError("operator-power series did not settle")
    theta = 2 * math.pi * sum(kv / a * xv for kv, a, xv in zip(k, half_widths, point))
    return total * cmath.exp(1j * theta)


# -- the tree splitting, term by term ---------------------------------------------------

def apply_symbol_termwise(symbol, p):
    """A splitting symbol applied to p one term at a time: each term
    c t^e x^b D^g sends p to c t^e x^b (d^g p), with D_j read as d/dx_j."""
    out = Polynomial.zero(p.vars, p.laurent)
    for exp, c in symbol.terms.items():
        piece = p
        mult_exp = {}
        for v, e in zip(symbol.vars, exp):
            if not e:
                continue
            if v.startswith("D"):
                piece = piece.diff("x" + v[1:], e)
            else:
                mult_exp[v] = e
        if mult_exp:
            piece = piece * Polynomial(tuple(mult_exp), {tuple(mult_exp.values()): 1})
        out = out + piece * c
    return out


def _truncate_t(p, tcap):
    if "t" not in p.vars:
        return p
    i = p.vars.index("t")
    return Polynomial(p.vars, {e: c for e, c in p.terms.items() if e[i] <= tcap}, p.laurent)


def check_splitting_termwise(splitting, degree_cap, t_power_cap):
    """The splitting check with the operator sum d_T and the termwise symbol
    application: exp(t d_T) and the nodewise exponential product, both
    truncated at t_power_cap, compared on every monomial of total degree at
    most degree_cap.  Returns the number of monomials checked, or raises
    AssertionError with the message of the first mismatch."""
    from flagpde.combinatorics import tuples_with_sum_at_most
    from flagpde.trees import tricomi_operator

    tree = splitting.tree
    x_vars = tuple(f"x{i}" for i in range(1, tree.nodes + 1))
    d_t = tricomi_operator(tree)
    checked = 0
    for exp in tuples_with_sum_at_most(tree.nodes, degree_cap):
        mono = Polynomial(x_vars, {exp: 1})
        lhs = Polynomial.zero(("t",) + x_vars)
        piece = mono
        for k in range(t_power_cap + 1):
            lhs = lhs + Polynomial(("t",), {(k,): Fraction(1, math.factorial(k))}) * piece
            piece = d_t(piece)
        rhs = mono
        for xi in splitting.exponents:
            out = term = _truncate_t(rhs, t_power_cap)
            j = 1
            while not term.is_zero():
                term = _truncate_t(apply_symbol_termwise(xi, term), t_power_cap) * Fraction(1, j)
                out = out + term
                j += 1
            rhs = out
        diff = _truncate_t(lhs, t_power_cap) - _truncate_t(rhs, t_power_cap)
        if not diff.is_zero():
            tpow = min(e[diff.vars.index("t")] for e in diff.terms)
            raise AssertionError(
                f"splitting mismatch on monomial {dict(zip(x_vars, exp))} at t^{tpow}"
            )
        checked += 1
    return checked


# -- the flag-family series, term by term ---------------------------------------------

def nested_inverse_term_by_term(inv, p):
    """The nested right inverse of `inv`'s blocks by the unfactored series.

    Stage s sums (-R f)^i R D^i(q) and rebuilds every power (-R f)^i from
    scratch, so it makes (I+1)(I+2)/2 calls of stage s-1 where the Horner
    form makes I+1.  Only the blocks (coeffs, vars_, orders) are read.
    """
    def stage(s, q):
        if s == 1:
            lead = inv.coeffs[0].constant_term()
            return q.integrate_n(inv.vars_[0], inv.orders[0]) * (Fraction(1) / lead)
        v, m, f = inv.vars_[s - 1], inv.orders[s - 1], inv.coeffs[s - 1]
        total = Polynomial.zero(q.vars, q.laurent)
        w, i = q, 0
        while not w.is_zero():
            u = stage(s - 1, w)
            for _ in range(i):
                u = -stage(s - 1, f * u)
            total = total + u
            w = w.diff(v, m)
            i += 1
        return total

    return stage(len(inv.coeffs), p)


def sigma_step_term_by_term(spec, stage, h, ell):
    """Extension of h by seed x_(stage+1)^ell with each (-inv f)^i(h) rebuilt
    from h and inverted by `nested_inverse_term_by_term`."""
    inv = spec.nested_inverse(stage)
    f = spec.coefficients[stage - 1]
    v, m = spec.variables[stage], spec.orders[stage]
    total = Polynomial.zero()
    dpart, i = variable(v) ** ell, 0
    while not dpart.is_zero():
        hpart = h
        for _ in range(i):
            hpart = -nested_inverse_term_by_term(inv, f * hpart)
        total = total + hpart * dpart
        dpart = dpart.diff(v, m)
        i += 1
    return total


def flag_basis_unshared(spec, cap):
    """(index, solution) pairs of `flag_basis`, each element built on its own
    from x1^l1 through every stage, sharing nothing with the others."""
    from flagpde.combinatorics import tuples_with_sum_at_most

    n = len(spec.orders)
    out = []
    for l1 in range(spec.orders[0]):
        for rest in tuples_with_sum_at_most(n - 1, cap):
            sol = variable(spec.variables[0]) ** l1
            for stage in range(1, n):
                sol = sigma_step_term_by_term(spec, stage, sol, rest[stage - 1])
            out.append(((l1,) + rest, sol))
    return out


def diff_stepwise(p, var, order):
    """d^order/dvar^order multiplying each coefficient by e, e-1, .. in turn."""
    if order == 0:
        return p
    if var not in p.vars:
        return Polynomial.zero(p.vars, p.laurent)
    i = p.vars.index(var)
    out = {}
    for exp, c in p.terms.items():
        for j in range(order):
            c = c * (exp[i] - j)
        if c:
            out[exp[:i] + (exp[i] - order,) + exp[i + 1:]] = c
    return Polynomial(p.vars, out, p.laurent)


def dict_product(f, p):
    """f * p from the two term dicts, over p's variables followed by f's."""
    vs = p.vars + tuple(v for v in f.vars if v not in p.vars)
    out = {}
    for ep, cp in p.terms.items():
        at_p = dict(zip(p.vars, ep))
        for ef, cf in f.terms.items():
            at_f = dict(zip(f.vars, ef))
            key = tuple(at_p.get(v, 0) + at_f.get(v, 0) for v in vs)
            out[key] = out.get(key, 0) + cf * cp
    return Polynomial(vs, out, p.laurent | f.laurent)


def integrate_by_reciprocal(p, var):
    """Antiderivative in var multiplying each coefficient by Fraction(1, e+1)."""
    from flagpde.poly import NonIntegrableTermError

    if var not in p.vars:
        p = p.with_variables(p.vars + (var,))
    i = p.vars.index(var)
    out = {}
    for exp, c in p.terms.items():
        if exp[i] == -1:
            raise NonIntegrableTermError("non-integrable Laurent term")
        out[exp[:i] + (exp[i] + 1,) + exp[i + 1:]] = c * Fraction(1, exp[i] + 1)
    return Polynomial(p.vars, out, p.laurent)


# -- the flag IVP, point by point -------------------------------------------------------

def _flag_phase_sum(mode, half_widths, point, weight, r, acc):
    theta = 2 * math.pi * sum(kv / a * xv for kv, a, xv in zip(mode.k, half_widths, point))
    phi, psi = weight.real, weight.imag
    acc += mode.b[r] * (phi * math.cos(theta) - psi * math.sin(theta))
    acc += mode.c[r] * (phi * math.sin(theta) + psi * math.cos(theta))
    return acc


def flag_values_per_point(sol):
    """The solution's values with every graded exponential evaluated anew at
    each evaluation point, in the solver's summation order."""
    from flagpde.ivp import generalized_exponential

    out = []
    for pt in sol.eval_points:
        x1, point = pt[0], pt[1:]
        total = 0.0
        for mode in sol.modes:
            args = [x1 ** (p + 1) * f for p, f in enumerate(mode.symbol_values)]
            for r in range(len(mode.b)):
                if mode.b[r] == 0.0 and mode.c[r] == 0.0:
                    continue
                w = (x1**r) * generalized_exponential(r, args)
                total = _flag_phase_sum(mode, sol.half_widths, point, w, r, total)
        out.append(total)
    return out


def flag_trace_residual_per_point(sol, data):
    """The largest trace misfit with every mode derivative recomputed at each
    evaluation point, in the solver's summation order."""
    from flagpde.ivp import _trace_derivative

    worst = 0.0
    for s in range(sol.order):
        for pt in sol.eval_points:
            point = pt[1:]
            trace = 0.0
            for mode in sol.modes:
                for r in range(sol.order):
                    g = _trace_derivative(mode.symbol_values, r, s, 1 + 0j)
                    trace = _flag_phase_sum(mode, sol.half_widths, point, g, r, trace)
            worst = max(worst, abs(trace - data[s].value_at(point)))
    return worst


def typed_terms(p):
    """Each term's coefficient with its exact type, for type-for-type comparisons."""
    return {e: (type(c), c) for e, c in p.terms.items()}


def constant_element_by_fractions(orders, ell, vars_):
    """The constant-coefficient family element with each coefficient a chain
    of Fraction products."""
    from flagpde.combinatorics import falling

    n, m1 = len(orders), orders[0]
    terms = {}
    for ks in itertools.product(*(range(ell[i] // orders[i] + 1) for i in range(1, n))):
        big_k = sum(ks)
        coeff = Fraction((-1) ** big_k * multinomial(ks))
        coeff *= Fraction(math.factorial(ell[0]), math.factorial(ell[0] + big_k * m1))
        exp = [ell[0] + big_k * m1]
        for i, k in enumerate(ks, start=1):
            coeff *= falling(ell[i], k * orders[i])
            exp.append(ell[i] - k * orders[i])
        terms[tuple(exp)] = coeff
    return Polynomial(vars_, terms)


def harmonic_element_by_fractions(n, eps, ells):
    """The harmonic element with each coefficient a chain of Fraction products."""
    terms = {}
    for rs in itertools.product(*(range(l // 2 + 1) for l in ells)):
        big_r = sum(rs)
        num = Fraction((-1) ** big_r * multinomial(rs))
        for l, r in zip(ells, rs):
            num *= math.comb(l, 2 * r)
        den = (1 + 2 * eps * big_r) * multinomial([2 * r for r in rs])
        terms[(eps + 2 * big_r,) + tuple(l - 2 * r for l, r in zip(ells, rs))] = num / den
    return Polynomial(tuple(f"x{i}" for i in range(1, n + 1)), terms)


def dissipation_polynomial_by_fractions(a, i):
    """xi(a, i) with a^(-k) rebuilt by k multiplications for every term."""
    from flagpde.poly import GaussianRational

    ainv = GaussianRational(1) / a if isinstance(a, GaussianRational) else Fraction(1) / a

    def apow(k):
        out = Fraction(1)
        for _ in range(k):
            out = out * ainv
        return out

    if i == 0:
        return Polynomial.const(1, ("t",))
    if i == 1:
        return Polynomial(("t",), {(1,): apow(1)})
    terms = {
        (i,): apow(i) * Fraction(1, math.factorial(i)),
        (i - 1,): -apow(i + 1) * Fraction(1, math.factorial(i - 2)),
    }
    for r in range(2, i):
        num = 1
        for s in range(1, r):
            num *= i + s
        coeff = Fraction((-1) ** r * num, math.factorial(i - r - 1) * math.factorial(r))
        terms[(i - r,)] = coeff * apow(r + i)
    return Polynomial(("t",), terms)
