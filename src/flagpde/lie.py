"""Polynomial representations: orthogonal, special linear, and the rank-two
exceptional algebra acting on seven variables.

Each generator is the linear vector field sum c * x_i d/dx_j of its
matrix (``operators.LinearVectorField``, built from its entries), which is
its own normal form; so are the Cartan operators and the Euler operator.
The orthogonal family acts on F[x1..xn], with its raising operators built
by one paired-variable rule for every n >= 2 (``so_singular_config``) as
sums of scaled rotation entries; the special linear family on F[x.., y..]
with the contragredient twist on the y block; and the exceptional family
through fourteen sparse seven-by-seven integer matrices, entry (i, j)
the term x_i d/dx_j, in the coordinates (z, x2..x7) with z = x1/sqrt(2)
and z keeping the name x1; its module bases, invariant and Laplacian stay
in the paper's coordinates (``g2_singular_config`` states the map).  The
module bases are built and proved solutions by ``bases._SeriesLemma``.  Each
algebra's ``HighestWeightModule`` (``HIGHEST_WEIGHT_MODULES``, by ``flagpde
lie`` kind) holds its basis builder, singular configuration, top vector and
the top's closed-form weight, which ``singular_weight`` checks.

The fixed operators are built once per process and are read-only (a
``LinearVectorField``'s entries cannot be written): the fourteen
exceptional ones (``_g2_action``), each sl field
x_i d/dx_j - y_j d/dy_i and Cartan h_i, which do not depend on n
(``sl_generator``, ``sl_cartan``), and the raising and Cartan operators of
``so_singular_config`` for the 32 most recently used n.  Each public call
returns a new list or ``SingularConfig`` holding the shared nodes, so each
node's applicator for a variable order is built once and reused by every
later ``verify_singular``, ``commutation_checks`` and ``lie`` command.

The commutation suite proves its operator identities instead of sampling
them: both sides are brought to the normal form sum_alpha c_alpha d^alpha
over x1..x7 or x1..xn, y1..yn, with integer-form coefficients, which is
unique in the Weyl algebra, so equal forms mean that the identity holds on
every polynomial, in every degree.  Its exceptional half (eta invariance,
the seven-variable Laplacian's reading and its two laws, the brackets and
closure) has fixed inputs, so it is proved once per process, on first use,
in the integral coordinates (on the images of eta and of each reading),
and read after that; the special linear half is proved on each call.  A
one-shot ``flagpde lie check`` still proves everything on its single call.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .bases import (
    BasisElement,
    BasisFamily,
    _check_seed,
    _checked,
    _harmonic_elements,
    _SeriesLemma,
)
from .combinatorics import tuples_with_sum
from .linalg import _remainder, _row_reduce
from .operators import (
    Compose,
    Derivative,
    LinearOperator,
    LinearVectorField,
    MultiplyBy,
    Scale,
    Sum,
    VerificationError,
    _chain_order,
    differential_form,
    forms_commute,
    operators_agree_on_sample,
)
from .poly import IMAG, Polynomial, _collapsed, _int_form, _unpack, coeff_inverse, variable

__all__ = [
    "HIGHEST_WEIGHT_MODULES",
    "HighestWeightModule",
    "SingularConfig",
    "commutation_checks",
    "g2_bracket_report",
    "g2_invariant",
    "g2_laplacian",
    "g2_matrices",
    "g2_module_basis",
    "g2_polynomial_action",
    "harmonic_module_basis",
    "select_g2_laplacian_reading",
    "sl_cartan",
    "sl_generator",
    "sl_invariant",
    "sl_laplacian",
    "sl_module_basis",
    "sl_singular_config",
    "so_generator",
    "so_highest_harmonic",
    "so_singular_config",
    "verify_singular",
]


# -- the exceptional generators as sparse integer matrices ------------------------

# A matrix is a dict {(i, j): c} of its nonzero int entries, with rows and
# columns numbered 1..7 like the variables: entry (i, j) acts as x_i d/dx_j.
# Over the paper's x1 some entries are q*sqrt(2); in z = x1/sqrt(2) each
# row-1 entry is multiplied by sqrt(2) and each column-1 entry divided by
# it, so (1, j) becomes 2q and (i, 1) becomes q, and every entry is an
# integer (the module's admissible Z-form; Humphreys, GTM 9, sections 25-27).


def _matrix(*pieces):
    """A sparse matrix from (c, i, j) pieces."""
    return {(i, j): c for c, i, j in pieces}


def g2_matrices():
    """The fourteen generators inside sl(7) as sparse integer matrices."""
    return {
        "h1": _matrix((-2, 2, 2), (1, 3, 3), (1, 4, 4), (2, 5, 5), (-1, 6, 6), (-1, 7, 7)),
        "h2": _matrix((1, 2, 2), (-1, 3, 3), (-1, 5, 5), (1, 6, 6)),
        "E1": _matrix((2, 1, 2), (-1, 5, 1), (-1, 3, 7), (1, 4, 6)),
        "E2": _matrix((1, 2, 3), (-1, 6, 5)),
        "E3": _matrix((2, 1, 3), (-1, 6, 1), (1, 2, 7), (-1, 4, 5)),
        "E4": _matrix((2, 1, 7), (-1, 4, 1), (1, 6, 2), (-1, 5, 3)),
        "E5": _matrix((1, 4, 2), (-1, 5, 7)),
        "E6": _matrix((1, 4, 3), (-1, 6, 7)),
        "F1": _matrix((1, 2, 1), (-2, 1, 5), (-1, 7, 3), (1, 6, 4)),
        "F2": _matrix((1, 3, 2), (-1, 5, 6)),
        "F3": _matrix((1, 3, 1), (-2, 1, 6), (1, 7, 2), (-1, 5, 4)),
        "F4": _matrix((1, 7, 1), (-2, 1, 4), (1, 2, 6), (-1, 3, 5)),
        "F5": _matrix((1, 2, 4), (-1, 7, 5)),
        "F6": _matrix((1, 3, 4), (-1, 7, 6)),
    }


def _product(a, b):
    """The sparse matrix product ab."""
    rows_b = {}
    for (k, j), v in b.items():
        rows_b.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in a.items():
        for j, v in rows_b.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + u * v
    return out


def mat_bracket(a, b):
    """The commutator ab - ba of two sparse matrices."""
    out = _product(a, b)
    for key, v in _product(b, a).items():
        out[key] = out.get(key, 0) - v
    return {key: v for key, v in out.items() if v}


def _scaled(m, c: int):
    return {key: c * v for key, v in m.items()}


def _trace(m):
    return sum(v for (i, j), v in m.items() if i == j)


def _closed_under_bracket(mats) -> bool:
    """True when the matrices, read as sparse integer rows, are independent
    and every pairwise bracket lies in their span: it reduces to zero
    against their one fraction-free echelon form."""
    mats = list(mats)
    pivots = _row_reduce(mats)
    return len(pivots) == len(mats) and all(
        not _remainder(mat_bracket(a, b), pivots) for a, b in itertools.combinations(mats, 2)
    )


def g2_bracket_report():
    """Exact structure checks: defining brackets, tracelessness, closure."""
    mats = g2_matrices()
    return {
        "E3 = [E1,E2]": mat_bracket(mats["E1"], mats["E2"]) == mats["E3"],
        "[E1,E3] = 2 E4": mat_bracket(mats["E1"], mats["E3"]) == _scaled(mats["E4"], 2),
        "[E1,E4] = 3 E5": mat_bracket(mats["E1"], mats["E4"]) == _scaled(mats["E5"], 3),
        "E6 = [E5,E2]": mat_bracket(mats["E5"], mats["E2"]) == mats["E6"],
        "traceless": all(_trace(m) == 0 for m in mats.values()),
        "closure": _closed_under_bracket(mats[n] for n in sorted(mats)),
    }


# -- polynomial actions -----------------------------------------------------------

def _first_order(coeff_pairs) -> LinearVectorField:
    """sum c * x_i d/dx_j from a list of (c, i, j) with distinct (i, j); c is
    an exact scalar."""
    return LinearVectorField({(f"x{i}", f"x{j}"): c for c, i, j in coeff_pairs})


def _combination(*terms) -> LinearVectorField:
    """sum s * V over (s, V) pairs of exact scalars and linear vector fields."""
    entries = {}
    for s, field in terms:
        for key, c in field.entries.items():
            entries[key] = entries.get(key, 0) + s * c
    return LinearVectorField(entries)


def so_generator(n: int, i: int, j: int) -> LinearVectorField:
    """Rotation generator x_i d/dx_j - x_j d/dx_i."""
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    return _first_order([(1, i, j), (-1, j, i)])


def sl_generator(n: int, i: int, j: int) -> LinearVectorField:
    """x_i d/dx_j - y_j d/dy_i on the doubled variable set: the one
    read-only node of (i, j) (``_sl_field``)."""
    return _sl_field(i, j)


def sl_cartan(n: int):
    """Diagonal differences h_i = E_ii - E_(i+1)(i+1), i = 1..n-1, as a new
    list of the one read-only node of each i (``_sl_cartan_field``)."""
    return [_sl_cartan_field(i) for i in range(1, n)]


# neither field depends on n, so sl(n) for every n shares them
@functools.lru_cache(maxsize=1024)
def _sl_field(i: int, j: int) -> LinearVectorField:
    return LinearVectorField({(f"x{i}", f"x{j}"): 1, (f"y{j}", f"y{i}"): -1})


@functools.lru_cache(maxsize=1024)
def _sl_cartan_field(i: int) -> LinearVectorField:
    return _combination((1, _sl_field(i, i)), (-1, _sl_field(i + 1, i + 1)))


def sl_invariant(n: int) -> Polynomial:
    return sum((variable(f"x{i}") * variable(f"y{i}") for i in range(1, n + 1)), Polynomial.zero())


def sl_laplacian(n: int) -> LinearOperator:
    return Sum(
        Compose(Derivative(f"x{i}", 1), Derivative(f"y{i}", 1)) for i in range(1, n + 1)
    )


def g2_polynomial_action():
    """The fourteen generators as first-order operators on F[x1..x7], in the
    integral coordinates of ``g2_matrices`` (x1 standing for z = x1/sqrt(2))."""
    return {name: _first_order([(c, i, j) for (i, j), c in sorted(m.items())])
            for name, m in g2_matrices().items()}


@functools.cache
def _g2_action():
    """``g2_polynomial_action``, built once per process; read-only, its operators frozen."""
    return MappingProxyType(g2_polynomial_action())


def g2_invariant() -> Polynomial:
    x = [variable(f"x{i}") for i in range(1, 8)]
    return x[0] * x[0] + 2 * x[1] * x[4] + 2 * x[2] * x[5] + 2 * x[3] * x[6]


def g2_laplacian(first_var: int = 1) -> LinearOperator:
    """The invariant second-order operator; first_var selects which variable
    carries the pure square term (the commutation suite fixes the choice)."""
    return _with_pair_part(Derivative(f"x{first_var}", 2))


def _with_pair_part(square) -> Sum:
    """square + 2 (d2 d5 + d3 d6 + d4 d7)."""
    parts = [square]
    for a, b in ((2, 5), (3, 6), (4, 7)):
        parts.append(
            Compose(Scale(Fraction(2)), Derivative(f"x{a}", 1), Derivative(f"x{b}", 1))
        )
    return Sum(parts)


def _integral_invariant() -> Polynomial:
    """eta in the action's integral coordinates: x1 = sqrt(2) z turns the
    paper's x1^2 into 2 z^2, so it is 2 x1^2 + 2 (x2 x5 + x3 x6 + x4 x7)."""
    return g2_invariant() + variable("x1") ** 2


def select_g2_laplacian_reading():
    """Pick the reading of the invariant Laplacian that commutes with the action.

    Both candidate leading terms are tested for commutation with every
    generator and for the eta multiplication law, each as an identity of
    normal forms, so in every degree; exactly one survives and is returned
    as (first_var, report), with a new report dict on each call, read from
    the proof of the exceptional half that runs once per process, on first
    use (``_g2_reading``); a failed proof raises VerificationError and is
    not kept.
    """
    reading, results, _ = _g2_reading()
    return reading, dict(results)


@functools.cache
def _g2_reading():
    """The one proof of the exceptional half of the commutation suite:
    (reading, read-only {first_var: passed}, its read-only report entries
    in commutation_checks' order).  A failed reading raises, so is not kept."""
    eta, action = _integral_invariant(), _g2_action()
    checks = _g2_reading_checks(eta, action)
    reading, results = _select_reading(checks)
    invariant = all(gen(eta).is_zero() for gen in action.values())
    commutes, law = checks[reading]
    report = {"eta invariant": invariant, "laplacian reading": reading,
              "g2 laplacian commutes with action": commutes, "eta multiplication law": law,
              **g2_bracket_report()}
    return reading, MappingProxyType(results), MappingProxyType(report)


def _g2_reading_checks(eta, action):
    """{first_var: (commutes with the action, eta law holds)} for both
    readings, in the action's integral coordinates: there d/dx1 is
    d/dz / sqrt(2), so reading 1's pure square is halved and reading 2's,
    free of x1, is unchanged."""
    vs = tuple(f"x{i}" for i in range(1, 8))
    gen_forms = [differential_form(gen, vs) for gen in action.values()]
    euler = _euler_operator(vs)
    checks = {}
    for first_var, scale in ((1, Fraction(1, 2)), (2, 1)):
        lap = _with_pair_part(Compose(Scale(scale), Derivative(f"x{first_var}", 2)))
        lap_form = differential_form(lap, vs)
        commutes = all(forms_commute(lap_form, form) for form in gen_forms)
        law = operators_agree_on_sample(
            Compose(lap, MultiplyBy(eta)),
            Sum((Scale(14), Compose(MultiplyBy(eta), lap), Compose(Scale(4), euler))),
            vs,
        )
        checks[first_var] = (commutes, law)
    return checks


def _select_reading(checks):
    results = {fv: all(oks) for fv, oks in checks.items()}
    chosen = [fv for fv, ok in results.items() if ok]
    if len(chosen) != 1:
        raise VerificationError(f"laplacian reading not uniquely selected: {results}")
    return chosen[0], results


def _euler_operator(vars_) -> LinearVectorField:
    return LinearVectorField({(v, v): 1 for v in vars_})


# -- module bases ------------------------------------------------------------------

def harmonic_module_basis(n: int, k: int) -> BasisFamily:
    """Basis of the degree-k harmonic polynomials in n variables, proved by
    the lemma of ``bases._harmonic_elements``."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    _check_seed(k)
    annihilator = Sum(Derivative(f"x{i}", 2) for i in range(1, n + 1))
    elements, lemma = _harmonic_elements(n, k, tuples_with_sum)
    return _checked(elements, annihilator, {"n": n, "k": k}, lemma)


def sl_module_basis(n: int, l1: int, l2: int) -> BasisFamily:
    """Basis of the contraction-free bidegree (l1, l2) module on x.., y..

    Two branches: the first pumps surplus x1 powers (lead m with
    m + sum m_r = l1, sum l_r = l2), the second symmetrically pumps y1
    (lead m' >= 1 with sum m'_r = l1, m' + sum l'_r = l2).  Each element is
    the series of corner d/dx1 d/dy1 on x1^m (or y1^m') and the blocks
    d/dx_r d/dy_r, r >= 2, on prod_r x_r^(m_r) y_r^(l_r), so it is killed by
    the contraction sum d/dx_i d/dy_i.  The lemma (``bases._SeriesLemma``)
    proves it with K = d/dx1 d/dy1, M = 1 and, per lead,
    P_R = (-1)^R R! (K^(-R))(x1^m or y1^m'), so K P_0 = 0 and
    K P_R = -R P_(R-1).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if l1 < 0 or l2 < 0:
        raise ValueError(f"the bidegree must be non-negative, got l1={l1}, l2={l2}")
    _check_seed(l1, l2)
    annihilator = sl_laplacian(n)
    vars_ = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(f"y{i}" for i in range(1, n + 1))
    lemma = _SeriesLemma(("x1", "y1"), Compose(Derivative("x1", 1), Derivative("y1", 1)),
                         Polynomial.const(1), [(1, (1, 1), (f"x{r}", f"y{r}")) for r in range(2, n + 1)],
                         vars_)
    elements = []
    for branch, leads in ((1, range(l1 + 1)), (2, range(1, l2 + 1))):
        for m in leads:
            corner, deg_x, deg_y = ((m, 0), l1 - m, l2) if branch == 1 else ((0, m), l1, l2 - m)
            profile = lemma.corner_profile(corner, (1, 1), min(deg_x, deg_y))
            for ms in tuples_with_sum(n - 1, deg_x):
                for ls in tuples_with_sum(n - 1, deg_y):
                    seed = tuple(e for pair in zip(ms, ls) for e in pair)
                    elements.append(BasisElement({"branch": branch, "m": m, "mr": ms, "lr": ls},
                                                 lemma.element(profile, seed)))
    return _checked(elements, annihilator, {"n": n, "l1": l1, "l2": l2}, lemma)


def g2_module_basis(k: int) -> BasisFamily:
    """Basis of the degree-k module of the seven-variable exceptional action.

    Elements are indexed by (eps, m2..m7) with eps + sum m = k.  Each is the
    series of corner d^2/dx1^2 on x1^eps and the blocks 2 d/dx_a d/dx_b of
    the pairs (2,5), (3,6), (4,7) on x2^m2...x7^m7, so it lies in the kernel
    of the invariant Laplacian exactly.  The lemma (``bases._SeriesLemma``)
    proves it with K = d^2/dx1^2, M = 1 and, per eps,
    P_R = (-1)^R R! (K^(-R))(x1^eps), so K P_0 = 0 and K P_R = -R P_(R-1).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_seed(k)
    vars_ = tuple(f"x{i}" for i in range(1, 8))
    annihilator = g2_laplacian(1)
    lemma = _SeriesLemma(("x1",), Derivative("x1", 2), Polynomial.const(1),
                         [(2, (1, 1), (f"x{a}", f"x{b}")) for a, b in ((2, 5), (3, 6), (4, 7))], vars_)
    elements = []
    for eps in (0, 1):
        if eps > k:
            continue
        profile = lemma.corner_profile((eps,), (2,), k // 2)
        for ms in tuples_with_sum(6, k - eps):
            seed = (ms[0], ms[3], ms[1], ms[4], ms[2], ms[5])
            elements.append(BasisElement({"eps": eps, "m": ms}, lemma.element(profile, seed)))
    return _checked(elements, annihilator, {"k": k}, lemma)


# -- singular vectors ------------------------------------------------------------

@dataclass
class SingularConfig:
    """Named positive generators plus Cartan operators for weight extraction."""

    positives: list  # (name, LinearOperator)
    cartans: list    # (name, LinearOperator)


@dataclass
class SingularCheck:
    ok: bool
    weight: list | None
    failures: list


def verify_singular(config: SingularConfig, f: Polynomial) -> SingularCheck:
    """Check annihilation by the positive generators and extract the weight.

    f and every operator are put over one variable order once per call,
    and each residual is an integer form (each operator's ``apply_form``).
    Each weight is read off the Cartan image's form at the key of f's
    leading term, found once per call, so a Polynomial is built only for a
    failure, which names the generator and its first nonzero residual."""
    if f.is_zero():
        raise ValueError("the zero polynomial is not singular")
    vs, laurent = _chain_order([f], [op for _, op in config.positives] + [h for _, h in config.cartans])
    q = _int_form(f, vs)
    failures = []
    for name, op in config.positives:
        residual = op.apply_form(q, vs)
        if residual:
            failures.append((name, residual.to_poly(vs, laurent)))
    if failures:
        return SingularCheck(False, None, failures)
    # f's leading term, first in ``Polynomial.sorted_terms``' order: the int
    # order of the keys is the lexicographic one of their exponents
    n = len(vs)
    key = max(itertools.chain(q.re, q.im), key=lambda k: (sum(_unpack(k, n)), k))
    inverse = coeff_inverse(_collapsed(q.re.get(key, 0), q.im.get(key, 0), q.den))
    weight = []
    for name, h in config.cartans:
        image = h.apply_form(q, vs)
        if not image:
            weight.append(Fraction(0))
            continue
        lam = _collapsed(image.re.get(key, 0), image.im.get(key, 0), image.den) * inverse
        residual = image - q.scaled(lam)
        if residual:
            return SingularCheck(False, None, [(name, residual.to_poly(vs, laurent))])
        weight.append(lam)
    return SingularCheck(True, weight, [])


def so_highest_harmonic(n: int, k: int) -> Polynomial:
    """(x1 + i x2)^k, the weight vector generating the degree-k harmonics."""
    z = variable("x1") + IMAG * variable("x2")
    out = z**k
    vars_ = tuple(f"x{i}" for i in range(1, n + 1))
    return out.with_variables(vars_)


def so_singular_config(n: int) -> SingularConfig:
    """Complexified raising and Cartan operators of so(n), n >= 2, on the
    pairs (x_(2a-1), x_(2a)) (Fulton and Harris, GTM 129, sections 18-19).

    With Z_a(j) = L_(2a-1,j) + i L_(2a,j): Z_a(2b-1) + i t Z_a(2b) for a < b
    and t = +-1, Z_a(j) for the unpaired x_n of odd n; h_a = -i L_(2a-1,2a).
    so(2) is abelian: no raising operator, and the one Cartan h1.  Each
    call returns new lists of the read-only nodes of ``_so_operators``."""
    if n < 2:
        raise ValueError("so(n) singular configurations need n >= 2")
    positives, cartans = _so_operators(n)
    return SingularConfig(list(positives), list(cartans))


@functools.lru_cache(maxsize=32)
def _so_operators(n: int) -> tuple:
    """(raising, Cartan) of ``so_singular_config(n)`` as tuples of (name, node)."""

    def z(a, j):
        return _combination((1, so_generator(n, 2 * a - 1, j)), (IMAG, so_generator(n, 2 * a, j)))

    pairs = range(1, n // 2 + 1)
    positives = [(f"E{a}{b}({s})", _combination((1, z(a, 2 * b - 1)), (IMAG * t, z(a, 2 * b))))
                 for a, b in itertools.combinations(pairs, 2) for s, t in (("+", 1), ("-", -1))]
    positives += [(f"E{a}", z(a, j)) for a in pairs for j in range(2 * len(pairs) + 1, n + 1)]
    cartans = [(f"h{a}", _combination((-IMAG, so_generator(n, 2 * a - 1, 2 * a)))) for a in pairs]
    return tuple(positives), tuple(cartans)


def sl_singular_config(n: int) -> SingularConfig:
    """The raising operators E_ij (i < j) and the Cartan operators h_i of sl(n)."""
    positives = [(f"E{i}{j}", sl_generator(n, i, j)) for i, j in itertools.combinations(range(1, n + 1), 2)]
    return SingularConfig(positives, [(f"h{i}", h) for i, h in enumerate(sl_cartan(n), 1)])


def g2_singular_config() -> SingularConfig:
    """E1..E6 and h1, h2 of the exceptional action's one build (``_g2_action``).

    They act in the integral coordinates, x1 standing for z = x1/sqrt(2).  A
    polynomial f in the paper's coordinates whose x1 exponents have one
    parity is singular exactly when D(f) is, where D multiplies the
    coefficient of each x1^a by 2^(a // 2); a polynomial free of x1, such as
    the highest weight vector x4^k, is its own D(f)."""
    action = _g2_action()
    positives = [(f"E{i}", action[f"E{i}"]) for i in range(1, 7)]
    cartans = [("h1", action["h1"]), ("h2", action["h2"])]
    return SingularConfig(positives, cartans)


# -- highest weight modules -------------------------------------------------------

@dataclass(frozen=True)
class HighestWeightModule:
    """One algebra's polynomial modules, irreducible except so(2)'s, indexed
    by the keyword parameters ``params``.  Each callable takes them and
    gives the module basis, the singular configuration, the top (highest
    weight) vector, or its weight in closed form (Humphreys, GTM 9, sections 20-21)."""

    params: tuple
    basis: Callable
    config: Callable
    top: Callable
    weight: Callable

    def singular_weight(self, **params) -> list:
        """The weight that the Cartan operators read off the top vector.
        Raises VerificationError unless every raising operator kills the
        top, every Cartan operator scales it, and the weight equals the
        closed form."""
        top = self.top(**params)
        check = verify_singular(self.config(**params), top)
        if not check.ok:
            names = ", ".join(name for name, _ in check.failures)
            raise VerificationError(f"{top} is not a singular vector: the check fails at {names}")
        closed = self.weight(**params)
        if check.weight != closed:
            raise VerificationError(f"{top} has weight {[str(w) for w in check.weight]}, "
                                    f"not the closed form {closed}")
        return check.weight


# by ``flagpde lie`` kind; a lambda looks its builder up when called, so a wrapped one is run
HIGHEST_WEIGHT_MODULES = MappingProxyType({
    # so(n) on the degree-k harmonics: (x1 + i x2)^k, of weight (k, 0, ..., 0)
    "harmonic": HighestWeightModule(
        ("n", "k"), lambda n, k: harmonic_module_basis(n, k), lambda n, k: so_singular_config(n),
        lambda n, k: so_highest_harmonic(n, k), lambda n, k: [k] + [0] * (n // 2 - 1)),
    # sl(n) on bidegree (l1, l2): x1^l1 y_n^l2, of weight l1 w_1 + l2 w_(n-1)
    "sl": HighestWeightModule(
        ("n", "l1", "l2"), lambda n, l1, l2: sl_module_basis(n, l1, l2), lambda n, l1, l2: sl_singular_config(n),
        lambda n, l1, l2: variable("x1") ** l1 * variable(f"y{n}") ** l2,
        lambda n, l1, l2: [l1 + l2] if n == 2 else [l1] + [0] * (n - 3) + [l2]),
    # G2 on degree k: x4^k, of weight k w_1
    "g2": HighestWeightModule(
        ("k",), lambda k: g2_module_basis(k), lambda k: g2_singular_config(),
        lambda k: variable("x4") ** k, lambda k: [k, 0]),
})


# -- commutation suite ----------------------------------------------------------------

def commutation_checks(n_sl: int = 2, max_degree: int = 3) -> dict:
    """Operator identities of the special linear and exceptional actions.

    Covers invariance of the contraction form and the seven-variable
    quadratic form, commutation of both Laplacians with their actions, the
    eta and zeta multiplication laws, and the exact matrix brackets.  Each
    operator identity is proved by comparing the normal forms of its two
    sides, so it holds in every degree; max_degree is kept for the
    signature only and does not change the result.  The special linear
    half is proved on each call; the exceptional half is proved once per
    process, on first use (``_g2_reading``), and copied into the new dict
    of each call.  n_sl below 2 is an error: sl(0) and sl(1) would pass
    vacuously.
    """
    if n_sl < 2:
        raise ValueError(f"need n_sl >= 2, got {n_sl}")
    report = {}

    zeta = sl_invariant(n_sl)
    delta = sl_laplacian(n_sl)
    sl_gens = [sl_generator(n_sl, i, j) for i, j in itertools.permutations(range(1, n_sl + 1), 2)] + sl_cartan(n_sl)
    report["zeta invariant"] = all(op(zeta).is_zero() for op in sl_gens)

    vs = tuple(f"x{i}" for i in range(1, n_sl + 1)) + tuple(f"y{i}" for i in range(1, n_sl + 1))
    delta_form = differential_form(delta, vs)
    report["contraction commutes with action"] = all(
        forms_commute(delta_form, differential_form(op, vs)) for op in sl_gens
    )
    report["zeta multiplication law"] = operators_agree_on_sample(
        Compose(delta, MultiplyBy(zeta)),
        Sum((Scale(n_sl), Compose(MultiplyBy(zeta), delta), _euler_operator(vs))),
        vs,
    )
    report.update(_g2_reading()[2])
    return report
