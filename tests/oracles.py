"""Independent brute-force oracles shared by the test modules."""

import cmath
import dataclasses
import functools
import itertools
import math
from fractions import Fraction

from flagpde import (
    IMAG,
    Compose,
    Derivative,
    MultiplyBy,
    NestedRightInverse,
    Polynomial,
    Scale,
    Sum,
    TrigPolynomial,
    lie,
    variable,
)
from flagpde.ivp import (
    _GUARD_BITS,
    _RELATIVE_ACCURACY,
    WEIGHT_LIMIT,
    _dyadic,
    _one_argument_value,
)
from flagpde.linalg import (
    kernel_on_slice,
    monomials_of_degree,
    monomials_up_to_degree,
    polys_in_span,
    polys_rank,
)
from flagpde.lie import SingularCheck, SingularConfig, so_generator
from flagpde.operators import SeriesTerminationError
from flagpde.poly import _W, _check_fields, _delta, _nonzero, _reduced, coeff_inverse


def multinomial(parts) -> int:
    """(p1 + ... + pm)! / (p1! ... pm!) computed without large intermediates."""
    total = 0
    out = 1
    for p in parts:
        total += p
        out *= math.comb(total, p)
    return out


def so_singular_config_by_hand(n: int) -> SingularConfig:
    """Complexified raising operators for the small orthogonal algebras."""
    if n == 3:
        e = Sum((so_generator(3, 1, 3), Compose(Scale(IMAG), so_generator(3, 2, 3))))
        h = Compose(Scale(-IMAG), so_generator(3, 1, 2))
        return SingularConfig([("E", e)], [("h1", h)])
    if n == 4:
        def raising(t):
            base = Sum((so_generator(4, 1, 3), Compose(Scale(IMAG), so_generator(4, 2, 3))))
            tail = Sum((so_generator(4, 1, 4), Compose(Scale(IMAG), so_generator(4, 2, 4))))
            return Sum((base, Compose(Scale(IMAG * t), tail)))

        h1 = Compose(Scale(-IMAG), so_generator(4, 1, 2))
        h2 = Compose(Scale(-IMAG), so_generator(4, 3, 4))
        return SingularConfig(
            [("E(+)", raising(1)), ("E(-)", raising(-1))], [("h1", h1), ("h2", h2)]
        )
    raise ValueError("configurations are recorded for n = 3 and n = 4 only")


# -- the Lie generators as operator trees -------------------------------------------
#
# Each generator built as a tree of Sum, Compose(MultiplyBy, Derivative) and
# Compose(Scale, ...) nodes, and verify_singular applying each one by the
# tree fold: the reference for lie's linear vector fields.

def first_order_by_tree(coeff_pairs):
    """sum c * x_i d/dx_j from a list of (c, i, j); c is an exact scalar."""
    parts = []
    for c, i, j in coeff_pairs:
        if not c:
            continue
        parts.append(
            Compose(MultiplyBy(variable(f"x{i}") * c), Derivative(f"x{j}", 1))
        )
    return Sum(parts)


def so_generator_by_tree(n: int, i: int, j: int):
    """Rotation generator x_i d/dx_j - x_j d/dx_i."""
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    return first_order_by_tree([(Fraction(1), i, j), (Fraction(-1), j, i)])


def sl_generator_by_tree(n: int, i: int, j: int):
    """x_i d/dx_j - y_j d/dy_i on the doubled variable set."""
    parts = [
        Compose(MultiplyBy(variable(f"x{i}")), Derivative(f"x{j}", 1)),
        Compose(MultiplyBy(-variable(f"y{j}")), Derivative(f"y{i}", 1)),
    ]
    return Sum(parts)


def sl_cartan_by_tree(n: int):
    """Diagonal differences h_i = E_ii - E_(i+1)(i+1), i = 1..n-1."""
    return [
        Sum((sl_generator_by_tree(n, i, i), Compose(Scale(Fraction(-1)), sl_generator_by_tree(n, i + 1, i + 1))))
        for i in range(1, n)
    ]


# -- the exceptional generators in the paper's coordinates, over Z[sqrt(2)] ----------

# A matrix is a dict {(i, j): (p, q)} of its nonzero entries p + q*sqrt(2):
# entry (i, j) acts as x_i d/dx_j on the paper's x1..x7.  The library's
# integral matrices are these in the coordinate z = x1/sqrt(2).


def g2_pair_matrices():
    """The fourteen generators inside sl(7) as sparse Z[sqrt(2)] matrices."""
    def m(*pieces):
        return {(i, j): s if isinstance(s, tuple) else (s, 0) for s, i, j in pieces}

    r2, mr2 = (0, 1), (0, -1)  # sqrt(2), -sqrt(2)
    return {
        "h1": m((-2, 2, 2), (1, 3, 3), (1, 4, 4), (2, 5, 5), (-1, 6, 6), (-1, 7, 7)),
        "h2": m((1, 2, 2), (-1, 3, 3), (-1, 5, 5), (1, 6, 6)),
        "E1": m((r2, 1, 2), (mr2, 5, 1), (-1, 3, 7), (1, 4, 6)),
        "E2": m((1, 2, 3), (-1, 6, 5)),
        "E3": m((r2, 1, 3), (mr2, 6, 1), (1, 2, 7), (-1, 4, 5)),
        "E4": m((r2, 1, 7), (mr2, 4, 1), (1, 6, 2), (-1, 5, 3)),
        "E5": m((1, 4, 2), (-1, 5, 7)),
        "E6": m((1, 4, 3), (-1, 6, 7)),
        "F1": m((r2, 2, 1), (mr2, 1, 5), (-1, 7, 3), (1, 6, 4)),
        "F2": m((1, 3, 2), (-1, 5, 6)),
        "F3": m((r2, 3, 1), (mr2, 1, 6), (1, 7, 2), (-1, 5, 4)),
        "F4": m((r2, 7, 1), (mr2, 1, 4), (1, 2, 6), (-1, 3, 5)),
        "F5": m((1, 2, 4), (-1, 7, 5)),
        "F6": m((1, 3, 4), (-1, 7, 6)),
    }


def integral_from_pairs(m):
    """A Z[sqrt(2)] matrix in the coordinate z = x1/sqrt(2), by the rescaling
    rule: each row-1 entry times sqrt(2), each column-1 entry over sqrt(2);
    None when an entry is not an integer."""
    out = {}
    for (i, j), (p, q) in m.items():
        if i == j or 1 not in (i, j):
            c = None if q else p
        elif i == 1:  # (p + q sqrt(2)) sqrt(2) = 2q + p sqrt(2)
            c = None if p else 2 * q
        else:  # (p + q sqrt(2)) / sqrt(2) = q + (p/2) sqrt(2)
            c = None if p else q
        if c is None:
            return None
        out[(i, j)] = c
    return out


@dataclasses.dataclass(frozen=True)
class PairOperator:
    """rational + sqrt(2) * radical, acting on rational-coefficient
    polynomials: it kills p exactly when both parts do."""

    name: str
    rational: object
    radical: object


def g2_pair_action_by_tree():
    """The fourteen Z[sqrt(2)] generators on the paper's F[x1..x7], each split
    into the operator trees of its rational and its sqrt(2) part."""
    out = {}
    for name, m in g2_pair_matrices().items():
        entries = sorted(m.items())
        rat = [(p, i, j) for (i, j), (p, _) in entries if p]
        rad = [(q, i, j) for (i, j), (_, q) in entries if q]
        out[name] = PairOperator(name, first_order_by_tree(rat), first_order_by_tree(rad))
    return out


def g2_pair_singular_config_by_tree() -> SingularConfig:
    """E1..E6 and h1, h2 of the paper-coordinate pair action; the Cartans
    have no sqrt(2) part."""
    action = g2_pair_action_by_tree()
    positives = [(f"E{i}", action[f"E{i}"]) for i in range(1, 7)]
    return SingularConfig(positives, [("h1", action["h1"].rational), ("h2", action["h2"].rational)])


def to_integral(f):
    """D(f) for f in the paper's coordinates: the coefficient of each x1^a
    times 2^(a // 2).  For f whose x1 exponents have one parity e,
    f(sqrt(2) z, ..) = sqrt(2)^e D(f)(z, ..)."""
    if "x1" not in f.vars:
        return f
    at = f.vars.index("x1")
    return Polynomial(f.vars, {exp: c * 2 ** (exp[at] // 2) for exp, c in f.terms.items()}, f.laurent)


def euler_operator_by_tree(vars_):
    return Sum(
        Compose(MultiplyBy(variable(v)), Derivative(v, 1)) for v in vars_
    )


def verify_singular_by_tree(config: SingularConfig, f: Polynomial) -> SingularCheck:
    """Check annihilation by the positive generators and extract the weight.

    Each generator is applied by the tree fold, each part of a pair on its
    own; a failure names the generator and its first nonzero residual."""
    if f.is_zero():
        raise ValueError("the zero polynomial is not singular")
    failures = []
    for name, op in config.positives:
        for part in (op.rational, op.radical) if isinstance(op, PairOperator) else (op,):
            residual = part(f)
            if not residual.is_zero():
                failures.append((name, residual))
                break
    if failures:
        return SingularCheck(False, None, failures)
    weight = []
    for name, h in config.cartans:
        image = h(f)
        if image.is_zero():
            weight.append(Fraction(0))
            continue
        exp, lead = f.sorted_terms()[0]
        lam = image.coefficient({v: e for v, e in zip(f.vars, exp)}) * coeff_inverse(lead)
        if image != f * lam:
            failures.append((name, image - f * lam))
            return SingularCheck(False, None, failures)
        weight.append(lam)
    return SingularCheck(True, weight, [])


def so_singular_config_by_tree(n: int) -> SingularConfig:
    """Complexified raising and Cartan operators of so(n), n >= 3, on the
    pairs (x_(2a-1), x_(2a)) (Fulton and Harris, GTM 129, sections 18-19).

    With Z_a(j) = L_(2a-1,j) + i L_(2a,j): Z_a(2b-1) + i t Z_a(2b) for a < b
    and t = +-1, Z_a(j) for the unpaired x_n of odd n; h_a = -i L_(2a-1,2a)."""
    if n < 3:
        raise ValueError("so(n) singular configurations need n >= 3")

    def z(a, j):
        return Sum((so_generator_by_tree(n, 2 * a - 1, j), Compose(Scale(IMAG), so_generator_by_tree(n, 2 * a, j))))

    pairs = range(1, n // 2 + 1)
    positives = [(f"E{a}{b}({s})", Sum((z(a, 2 * b - 1), Compose(Scale(IMAG * t), z(a, 2 * b)))))
                 for a, b in itertools.combinations(pairs, 2) for s, t in (("+", 1), ("-", -1))]
    positives += [(f"E{a}", z(a, j)) for a in pairs for j in range(2 * len(pairs) + 1, n + 1)]
    cartans = [(f"h{a}", Compose(Scale(-IMAG), so_generator_by_tree(n, 2 * a - 1, 2 * a))) for a in pairs]
    return SingularConfig(positives, cartans)


def sl_singular_config_by_tree(n: int) -> SingularConfig:
    """The raising operators E_ij (i < j) and the Cartan operators h_i of sl(n)."""
    positives = [(f"E{i}{j}", sl_generator_by_tree(n, i, j)) for i, j in itertools.combinations(range(1, n + 1), 2)]
    return SingularConfig(positives, [(f"h{i}", h) for i, h in enumerate(sl_cartan_by_tree(n), 1)])


def g2_singular_config_by_tree() -> SingularConfig:
    """E1..E6 and h1, h2 as first-order operator trees of ``lie.g2_matrices``
    (integral coordinates)."""
    action = {name: first_order_by_tree([(c, i, j) for (i, j), c in sorted(m.items())])
              for name, m in lie.g2_matrices().items()}
    positives = [(f"E{i}", action[f"E{i}"]) for i in range(1, 7)]
    return SingularConfig(positives, [("h1", action["h1"]), ("h2", action["h2"])])


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
    """g2_bracket_report on the dense Z[sqrt(2)] matrices of the paper's
    coordinates, closure by dense Gauss-Jordan ranks."""
    mats = {name: _dense(m) for name, m in g2_pair_matrices().items()}

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
    monomial up to max_degree, and the brackets on dense matrices; its
    exceptional half is in the paper's coordinates, on the Z[sqrt(2)] pairs."""
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
    action = g2_pair_action_by_tree()
    report["eta invariant"] = all(
        part(eta).is_zero() for gen in action.values() for part in (gen.rational, gen.radical)
    )
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


# -- slice kernels and commutators, one image and one product at a time -------------

def kernel_on_slice_per_monomial(op, slice_monomials):
    """The slice kernel with one image per slice polynomial: the operator's
    tree fold maps each in turn, the rows hold the images' exact
    coefficients, and each kernel vector sums its entries into one Fraction
    term dict over the slice's variables."""
    from flagpde.linalg import _aligned, _kernel_vectors, _row_reduce

    if not slice_monomials:
        return []
    images, _ = _aligned([op(m) for m in slice_monomials])
    rows = {}
    for j, terms in enumerate(images):
        for key, c in terms.items():
            rows.setdefault(key, {})[j] = c
    pivots = _row_reduce(list(rows.values()), reduced=True)
    slice_terms, vars_ = _aligned(slice_monomials)
    laurent = frozenset().union(*(m.laurent for m in slice_monomials))
    out = []
    for vec in _kernel_vectors(pivots, len(slice_monomials)).values():
        terms = {}
        for j, v in vec.items():
            for exp, c in slice_terms[j].items():
                terms[exp] = terms.get(exp, 0) + c * v
        out.append(Polynomial(vars_, terms, laurent))
    return out


def compose_forms_in_full(a, b):
    """The normal form of A after B with every Leibniz term, the gamma = 0
    products c_alpha c_beta d^(alpha+beta) included."""
    out = {}
    for alpha, ca in a.items():
        for gamma in itertools.product(*(range(m + 1) for _, m in alpha)):
            pairs = list(zip(alpha, gamma))
            weight = math.prod(math.comb(m, g) for (_, m), g in pairs)
            for beta, cb in b.items():
                coeff = cb
                for (i, _), g in pairs:
                    if g:
                        coeff = coeff.diff(i, g)
                if not coeff:
                    continue
                orders = dict(beta)
                for (i, m), g in pairs:
                    if m > g:
                        orders[i] = orders.get(i, 0) + m - g
                key = tuple(sorted(orders.items()))
                term = ca.scaled(weight) * coeff
                if key in out:
                    term = out[key] + term
                if term:
                    out[key] = term
                else:
                    out.pop(key, None)
    return out


def forms_commute_by_composition(form_a, form_b):
    """[A, B] = 0 decided by composing both ways in full and comparing."""
    return compose_forms_in_full(form_a, form_b) == compose_forms_in_full(form_b, form_a)


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


# The graded-exponential kernel as it stood before its inner loops were
# tightened, kept line for line (renamed only) as the bit-for-bit reference.

def magnitude_bound_reference(moduli) -> float:
    """Y_0 at the argument moduli, summed in floats.

    No term is negative, so nothing cancels.  The value bounds sum_w |U_w|
    of the fixed-point run, and also how far an error made at one weight can
    grow through the recurrence (j! (w-j)! <= w!).  The sum stops once m
    consecutive terms are below 2^-60 of it and each later term is at most
    half the largest of the m before it.
    """
    m = len(moduli)
    terms = [1.0]
    total = 1.0
    for w in range(1, WEIGHT_LIMIT + 1):
        term, falling = 0.0, 1.0
        for p in range(min(m, w)):
            falling *= w - p
            term += moduli[p] * terms[w - p - 1] / falling
        terms.append(term)
        total += term
        if not math.isfinite(total):
            raise SeriesTerminationError("Y-series magnitude overflows")
        if max(terms[-m:]) <= total * 2.0**-60:
            gain = sum(moduli[p] / math.perm(w + 1, p + 1) for p in range(min(m, w + 1)))
            if gain <= 0.5:
                return total
    raise SeriesTerminationError("Y-series not settling within the weight limit")


def _truncated_quotient(n: int, d: int) -> int:
    return n // d if n >= 0 else -(-n // d)


def graded_exponentials_reference(orders, args) -> list:
    """Y_r(args) for each order r in `orders`, from one run of the recurrence.

    See generalized_exponential.  S_w does not depend on r, so the scaled sums
    U_w = S_w / w! are carried once, and r! Y_r = sum_w U_w / C(r+w, r) is
    accumulated per order: Y_r does not depend on the other orders asked.
    """
    if any(r < 0 for r in orders):
        raise ValueError("order must be non-negative")
    args = [complex(a) for a in args]
    if len(args) == 1:
        return [_one_argument_value(r, args[0]) for r in orders]
    m = len(args)
    bound = magnitude_bound_reference([abs(a) for a in args])
    bits = math.frexp(bound)[1] - math.frexp(_RELATIVE_ACCURACY)[1] + _GUARD_BITS
    ints, shift = _dyadic(args)
    nonzero = [(p, ar, ai) for p, (ar, ai) in enumerate(ints) if ar or ai]
    units = [(1 << bits, 0)]
    totals = [[1 << bits, 0] for _ in orders]  # C(r, r) U_0
    zeros, w = 0, 0
    while zeros < m:
        w += 1
        if w > WEIGHT_LIMIT:
            raise SeriesTerminationError("Y-series not settling within the weight limit")
        q = min(m, w)
        re = im = 0
        for p, ar, ai in nonzero:
            if p >= q:
                break
            tr, ti = units[w - p - 1]
            c = math.perm(w - p - 1, q - p - 1)
            re += (ar * tr - ai * ti) * c
            im += (ar * ti + ai * tr) * c
        den = math.perm(w, q) << shift
        re, im = _truncated_quotient(re, den), _truncated_quotient(im, den)
        units.append((re, im))
        if re or im:
            zeros = 0
            for r, total in zip(orders, totals):
                c = math.comb(r + w, r)
                total[0] += _truncated_quotient(re, c)
                total[1] += _truncated_quotient(im, c)
        else:
            zeros += 1
    values = []
    for r, (tr, ti) in zip(orders, totals):
        scale = math.factorial(r) << bits
        values.append(complex(tr / scale, ti / scale))
    return values


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


def carrier_apply_nested(tree, omegas, carrier):
    """One application of the tree operator to P(x) * exp(i omega . x), one
    second-derivative block per axis and one emitted term per derivative
    order, each through its own closure; returns the new carrier P'."""
    out = {}

    def bump(exp, value):
        if value:
            out[exp] = out.get(exp, 0j) + value

    def second_derivative_block(exp, coeff, axis, shift_axis=None):
        # d^2/dx_a^2 of x^exp e^(i w.x) contributes (P'' + 2i w P' - w^2 P),
        # optionally multiplied by the parent variable
        w = omegas[axis]
        e = exp[axis]

        def emit(delta, value):
            nexp = list(exp)
            nexp[axis] += delta
            if shift_axis is not None:
                nexp[shift_axis] += 1
            bump(tuple(nexp), value)

        if e >= 2:
            emit(-2, coeff * e * (e - 1))
        if e >= 1:
            emit(-1, coeff * 2j * w * e)
        emit(0, -coeff * w * w)

    for exp, coeff in carrier.items():
        second_derivative_block(exp, coeff, 0)
        for parent, child in sorted(tree.edges):
            second_derivative_block(exp, coeff, child - 1, shift_axis=parent - 1)
    return {e: c for e, c in out.items() if c}


def tree_wave_series_eager(tree, g0, g1, t, point, max_terms=120):
    """u(t, point) of the strictly second-order tree evolution with every
    mode's carrier chain built up front to max_terms operator powers (or
    until one vanishes) and summed term by term in the solver's order."""
    total = 0.0
    for k in sorted(set(g0.modes) | set(g1.modes)):
        omegas = [2 * math.pi * kv / a for kv, a in zip(k, g0.half_widths)]
        chain = [{(0,) * tree.nodes: 1 + 0j}]
        for _ in range(max_terms):
            chain.append(carrier_apply_nested(tree, omegas, chain[-1]))
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
    by carrier_apply_nested and summed until two consecutive terms fall
    below 1e-18 of the sum of their moduli."""
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
        carrier = carrier_apply_nested(tree, omegas, carrier)
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


def splitting_by_substitution(tree):
    """The splitting recursion as the paper writes it: each child's
    tilde_xi_s is renamed t -> y, the square is integrated in y, and the
    result is renamed y -> t."""
    from flagpde.trees import TricomiSplitting

    n = tree.nodes
    tilde = {}
    for i in range(n, 0, -1):
        kids = tree.children(i)
        if not kids:
            tilde[i] = variable("t") * variable(f"D{i}") ** 2
            continue
        inner = variable(f"D{i}")
        for s in kids:
            inner = inner + tilde[s].substitute("t", variable("y"))
        squared = inner * inner
        tilde[i] = squared.integrate("y").substitute("y", variable("t"))
    exponents = [tilde[1]]
    for i in range(2, n + 1):
        exponents.append(variable(f"x{tree.parent(i)}") * tilde[i])
    return TricomiSplitting(tree, exponents)


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


# -- the trig ring, node by node --------------------------------------------------------

def apply_trig_termwise(op, u):
    """op on the trig polynomial u, one node at a time: d/dt through
    ``diff_time``, every other derivative, product and scalar on both parts,
    Sum and Compose as folds.  Any other node raises TypeError."""
    def on_parts(f):
        return TrigPolynomial(f(u.cos_part), f(u.sin_part), u.frequency, u.time_var)

    if isinstance(op, Derivative):
        if op.var != u.time_var:
            return on_parts(lambda q: q.diff(op.var, op.order))
        for _ in range(op.order):
            u = u.diff_time()
        return u
    if isinstance(op, MultiplyBy):
        return on_parts(lambda q: op.poly * q)
    if isinstance(op, Scale):
        return on_parts(lambda q: q * op.scalar)
    if isinstance(op, Sum):
        out = on_parts(lambda q: Polynomial.zero(q.vars, q.laurent))
        for sub in op.ops:
            out = out + apply_trig_termwise(sub, u)
        return out
    if isinstance(op, Compose):
        for sub in reversed(op.ops):
            u = apply_trig_termwise(sub, u)
        return u
    raise TypeError(f"{op!r} is not defined on the trig-polynomial ring")


# -- the flag-family series, term by term ---------------------------------------------

def nested_inverse(spec, upto):
    """The nested right inverse of the first `upto` blocks of a flag spec."""
    return NestedRightInverse(
        zip((1, *spec.coefficients)[:upto], map(Derivative, spec.variables[:upto], spec.orders[:upto]))
    )


def inverted_operator(inv):
    """The triangular operator sum_k f_k D_k that a nested right inverse inverts."""
    return Sum(Compose(MultiplyBy(c), Derivative(v, m)) for c, v, m in zip(inv.coeffs, inv.vars_, inv.orders))


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
    inv = nested_inverse(spec, stage)
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


def _shifted_sum(pieces, i: int, n: int):
    """sum factor * x_i^k * form over the (form, k, factor) pieces, forms
    over one order of n variables that may overlap, in one pass at the lcm
    of their denominators and reduced once: each shift is one key step,
    and a field out of range raises.  ``poly._shifted_union`` is this sum
    for pieces whose shifted keys are disjoint."""
    s = _W * (n - 1 - i)
    d = math.lcm(*(f.den for f, _, _ in pieces))
    re, im, seen = {}, {}, 0
    for f, k, factor in pieces:
        scale = factor * (d // f.den)
        step = _delta(k, s)
        for out, part in ((re, f.re), (im, f.im)):
            get = out.get
            for e, a in part.items():
                key = e + step
                seen |= key
                out[key] = get(key, 0) + a * scale
    _check_fields(seen, n)
    return _reduced(_nonzero(re), _nonzero(im), d, n)


def flag_basis_per_prefix(spec, cap):
    """The elements of `flag_basis` built prefix by prefix: each prefix's
    powers (-R f)^i(h) are one stage-inverse application each, extended on
    demand by the elements in index order and reduced one by one."""
    from flagpde.bases import BasisElement, _check_cap
    from flagpde.combinatorics import tuples_with_sum_at_most
    from flagpde.poly import _IntForm, _pack

    n = len(spec.orders)
    _check_cap(cap, seeded=n > 1)
    vs = spec.variables
    laurent = frozenset().union(*(c.laurent for c in spec.coefficients))
    inv = spec._inverse
    plan = inv.plan(vs)
    chains = {}
    elements = []
    for l1 in range(spec.orders[0]):
        root = [_IntForm({_pack((l1,) + (0,) * (n - 1)): 1}, {}, 1, n)]
        for rest in tuples_with_sum_at_most(n - 1, cap):
            ell = (l1,) + rest
            chain = root
            for stage in range(1, n):
                prefix = ell[: stage + 1]
                nxt = chains.get(prefix)
                if nxt is None:
                    pos, m, f, _ = plan[stage]
                    pieces, i, k = [], 0, 1
                    while k:
                        if i == len(chain):
                            chain.append(-inv._apply_stage(stage, f * chain[-1], vs))
                        pieces.append((chain[i], ell[stage] - i * m, k))
                        i += 1
                        k = math.perm(ell[stage], i * m)
                    nxt = [_shifted_sum(pieces, pos, n)]
                    if stage < n - 1:
                        chains[prefix] = nxt
                chain = nxt
            elements.append(BasisElement({"ell": ell}, chain[0].to_poly(vs, laurent)))
    return elements


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


def dict_sum(p, q, sign=1):
    """p + sign * q from the two term dicts, over p's variables followed by q's."""
    vs = p.vars + tuple(v for v in q.vars if v not in p.vars)
    out = {}
    for poly, k in ((p, 1), (q, sign)):
        for exp, c in poly.terms.items():
            at = dict(zip(poly.vars, exp))
            key = tuple(at.get(v, 0) for v in vs)
            out[key] = out.get(key, 0) + c * k
    return Polynomial(vs, out, p.laurent | q.laurent)


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


def _trace_derivative(values, s: int, r: int, one):
    """r-th derivative at 0 of x^s Y_s(x^(p+1) a_p), the s-th fundamental
    solution of y^(m) = sum_p a_p y^(m-1-p); exact in the arguments a_p."""
    from flagpde.ivp import _weight_sums

    if r < s:
        return 0 * one
    return _weight_sums(values, r - s + 1, one)[-1]


def flag_trace_residual_per_point(sol, data):
    """The largest trace misfit with every mode derivative recomputed at each
    evaluation point, in the solver's summation order."""
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


def evaluate_through_terms(p, values):
    """p at a point, coefficient by coefficient through the `terms` view
    (each an int, a Fraction or a GaussianRational, then a complex)."""
    point = [complex(values[v]) for v in p.vars]
    total = 0j
    for exp, c in p.terms.items():
        term = complex(c)
        for val, e in zip(point, exp):
            if e:
                term *= val**e
        total += term
    return total


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
    """The harmonic element with each coefficient a chain of Fraction products:
    (-1)^R multinomial(r) prod_i comb(l_i, 2 r_i) over (1 + 2 eps R)
    multinomial(2 r), the formula bases.harmonic_element replaced by its
    closed form."""
    terms = {}
    for rs in itertools.product(*(range(l // 2 + 1) for l in ells)):
        big_r = sum(rs)
        num = Fraction((-1) ** big_r * multinomial(rs))
        for l, r in zip(ells, rs):
            num *= math.comb(l, 2 * r)
        den = (1 + 2 * eps * big_r) * multinomial([2 * r for r in rs])
        terms[(eps + 2 * big_r,) + tuple(l - 2 * r for l, r in zip(ells, rs))] = num / den
    return Polynomial(tuple(f"x{i}" for i in range(1, n + 1)), terms)


def sl_branch_element_by_fractions(n, lead, pairs, swap):
    """One sl module element with each coefficient a chain of Fraction
    products, summed term by term: the builder ``lie.sl_module_basis`` had
    before the closed-form series.

    lead is the power of x1 (or y1 when swap), pairs lists (m_r, l_r) for
    r = 2..n; index r contracts x_r against y_r and pumps the contracted
    degree into the x1 y1 corner.
    """
    x_name = "y1" if swap else "x1"
    y_name = "x1" if swap else "y1"
    terms = {}
    vars_ = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(f"y{i}" for i in range(1, n + 1))
    index = {v: i for i, v in enumerate(vars_)}
    for tup in itertools.product(*(range(min(m, l) + 1) for m, l in pairs)):
        big = sum(tup)
        coeff = Fraction((-1) ** big * math.factorial(lead), math.factorial(lead + big))
        exp = [0] * (2 * n)
        for r, (i_r, (m_r, l_r)) in enumerate(zip(tup, pairs), start=2):
            coeff *= math.comb(m_r, i_r) * math.comb(l_r, i_r) * math.factorial(i_r)
            exp[index[f"x{r}"]] = m_r - i_r
            exp[index[f"y{r}"]] = l_r - i_r
        exp[index[x_name]] = lead + big
        exp[index[y_name]] = big
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(vars_, {e: c for e, c in terms.items() if c})


def g2_element_by_fractions(eps, ms):
    """One g2 module element with each coefficient a chain of Fraction
    products, summed term by term: the builder ``lie.g2_module_basis`` had
    before the closed-form series.  ms lists (m2..m7); contraction index i_s
    couples m_(s) with m_(s+3)."""
    pairs = [(ms[0], ms[3]), (ms[1], ms[4]), (ms[2], ms[5])]
    terms = {}
    for tup in itertools.product(*(range(min(a, b) + 1) for a, b in pairs)):
        big = sum(tup)
        coeff = Fraction((-1) ** big * 2**big * multinomial(tup))
        coeff *= Fraction(math.factorial(eps), math.factorial(eps + 2 * big))
        for (a, b), i in zip(pairs, tup):
            coeff *= math.comb(a, i) * math.comb(b, i) * math.factorial(i) ** 2
        exp = [0] * 7
        exp[0] = eps + 2 * big
        for s, i in enumerate(tup):
            exp[1 + s] = pairs[s][0] - i
            exp[4 + s] = pairs[s][1] - i
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(tuple(f"x{i}" for i in range(1, 8)), {e: c for e, c in terms.items() if c})


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


def tuples_with_sum_recursive(length, total):
    """All non-negative integer tuples of the given length summing to total,
    first entry ascending, by recursion on the first entry: the generator
    ``combinatorics.tuples_with_sum`` replaced by stars and bars."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in tuples_with_sum_recursive(length - 1, total - first):
            yield (first,) + rest


def power_perturbation_by_tuples(t0, t0_inverse, perturbations, m, h, g):
    """The series of ``bases.power_perturbation_solve`` summed tuple by
    tuple, the loop its sum by weight replaced: tuples (i_1..i_m) level by
    level, each adding multinomial(i) (T0inv)^(sum p*i_p)(h) prod T_p^(i_p)(g),
    the tuple parts memoised.  No hypothesis or residual is checked."""
    from flagpde.combinatorics import tuples_with_sum
    from flagpde.operators import VerificationError, _chain_order, form_map
    from flagpde.poly import _int_form, _IntForm, _sum_forms

    perturbations = list(perturbations)
    vs, laurent = _chain_order([h, g], [t0_inverse, t0, *perturbations])
    h0 = _int_form(h, vs)

    max_level = 2 + g.total_degree() * max(1, m)
    g_parts: dict[tuple, _IntForm] = {(0,) * m: _int_form(g, vs)}
    perturb = [form_map(op, vs) for op in perturbations]

    def g_part(tup):
        if tup in g_parts:
            return g_parts[tup]
        for r in range(m):
            if tup[r]:
                prev = tup[:r] + (tup[r] - 1,) + tup[r + 1 :]
                out = perturb[r](g_part(prev))
                break
        g_parts[tup] = out
        return out

    h_powers = [h0]

    def h_part(w):
        while len(h_powers) <= w:
            h_powers.append(t0_inverse.apply_form(h_powers[-1], vs))
        return h_powers[w]

    pieces = []
    level = 0
    while level <= max_level:
        alive = False
        for tup in tuples_with_sum(m, level):
            gp = g_part(tup)
            if not gp:
                continue
            alive = True
            weight = sum((p + 1) * i for p, i in enumerate(tup))
            pieces.append((h_part(weight) * gp).scaled(multinomial(tup)))
        if not alive and level > 0:
            break
        level += 1
    else:
        raise VerificationError("power-perturbation series did not terminate")
    total = _sum_forms(pieces) if pieces else _IntForm.zero(len(vs))
    return total.to_poly(vs, laurent)


def anisymmetric_elements_by_iteration(n, lam, epsilon, cap):
    """(index, solution) pairs of `anisymmetric_basis`, each Laplacian power
    taken by applying the Laplacian's normal form to the previous one: the
    builder that the multinomial closed form replaced.

    phi (and psi) elements are sum_i eps^i factor(lam, i) Lap^i(seed) up to
    the first vanishing power; for lam = -2k-1 the phi seeds are the
    alternating series sum_r (-1)^r C(k+r, r) x1^(l1+2r)/(l1+2r)!
    Lap_rest^r(x_rest^rest), l1 < 2k+2, built by iterating Lap_rest.
    """
    from flagpde.combinatorics import tuples_with_sum_at_most
    from flagpde.dissipative import _phi_factor, _psi_factor, classify_lambda
    from flagpde.operators import form_map
    from flagpde.poly import _int_form, _sum_forms

    lam = Fraction(lam)
    x_vars = tuple(f"x{i}" for i in range(1, n + 1))
    vs = ("t",) + x_vars
    lap_form = form_map(Sum(Derivative(v, 2) for v in x_vars), vs)
    lap_rest = form_map(Sum(Derivative(v, 2) for v in x_vars[1:]), vs)

    def branch(piece, factor):
        pieces = []
        while piece:
            i = len(pieces)
            pieces.append(_int_form(epsilon**i * factor(lam, i), vs) * piece)
            piece = lap_form(piece)
        return _sum_forms(pieces).to_poly(vs, frozenset())

    def kernel_seed(power, l1, rest):
        piece = packed_form({(0, 0) + tuple(rest): 1})
        pieces = []
        r = 0
        while piece:
            coeff = Fraction((-1) ** r * math.comb(power + r - 1, r), math.factorial(l1 + 2 * r))
            pieces.append((piece.scaled(coeff), l1 + 2 * r, 1))
            piece = lap_rest(piece)
            r += 1
        return _shifted_sum(pieces, 1, len(vs))

    kind = classify_lambda(lam)
    monomials = [(ell, packed_form({(0,) + ell: 1})) for ell in tuples_with_sum_at_most(n, cap)]
    if kind == "negative_odd":
        k = (-int(lam) - 1) // 2
        phi_seeds = [((l1,) + rest, kernel_seed(k + 1, l1, rest))
                     for l1 in range(2 * k + 2) for rest in tuples_with_sum_at_most(n - 1, cap)]
    else:
        phi_seeds = monomials
    out = [({"ell": ell, "branch": "phi"}, branch(seed, _phi_factor)) for ell, seed in phi_seeds]
    if kind != "generic":
        out += [({"ell": ell, "branch": "psi"}, branch(seed, _psi_factor)) for ell, seed in monomials]
    return out


def assert_reduced(form):
    """The normal form every ring step returns, which ``_IntForm.__eq__``
    relies on: a positive denominator coprime to the numerators as a whole,
    and no zero numerators."""
    nums = [*form.re.values(), *form.im.values()]
    assert form.den > 0, form.den
    assert math.gcd(form.den, *nums) == 1, (form.den, nums)
    assert all(nums), "zero numerator"


# -- integer forms keyed by exponent tuples ------------------------------------------

def packed_form(re, im=None, den=1):
    """The integer form (``poly._IntForm``) with these numerators, given as
    dicts keyed by exponent tuples of one length: every key packed by
    ``poly._pack``, the one way a test builds a form from tuples."""
    from flagpde.poly import _IntForm, _pack

    im = im or {}
    n = len(next(iter(re or im)))
    return _IntForm({_pack(e): a for e, a in re.items()}, {_pack(e): b for e, b in im.items()}, den, n)


def tuple_sum(a, b, sign=1):
    """a + sign * b on {exponent tuple: coefficient} dicts."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def tuple_product(a, b):
    """a * b, each pair of terms adding its exponent tuples entry by entry."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def tuple_power(a, k, n):
    """a ** k over n variables, by repeated products from the constant 1."""
    out = {(0,) * n: 1}
    for _ in range(k):
        out = tuple_product(out, a)
    return out


def tuple_diff(a, i, m):
    """d^m/dx_i^m, each coefficient times e (e-1) ... (e-m+1)."""
    out = {}
    for e, c in a.items():
        for j in range(m):
            c = c * (e[i] - j)
        if c:
            out[e[:i] + (e[i] - m,) + e[i + 1:]] = c
    return out


def tuple_integrate(a, i, m):
    """m antiderivatives in x_i, one reciprocal at a time; an exponent that
    reaches -1 raises NonIntegrableTermError."""
    from flagpde.poly import NonIntegrableTermError

    for _ in range(m):
        out = {}
        for e, c in a.items():
            if e[i] == -1:
                raise NonIntegrableTermError("non-integrable Laurent term")
            out[e[:i] + (e[i] + 1,) + e[i + 1:]] = c * Fraction(1, e[i] + 1)
        a = out
    return a


def tuple_shift(a, i, k, factor):
    """factor * x_i^k * a."""
    return {e[:i] + (e[i] + k,) + e[i + 1:]: c * factor for e, c in a.items()}


def tuple_remap(a, src, dst):
    """a over the variable order src put over dst, which holds src's variables."""
    return {tuple(dict(zip(src, e)).get(v, 0) for v in dst): c for e, c in a.items()}


def tuple_order(a):
    """The exponent tuples in canonical order: total degree descending, ties
    lexicographically descending."""
    return sorted(a, key=lambda e: (sum(e), e), reverse=True)
