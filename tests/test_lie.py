import collections
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagpde import (
    IMAG,
    Polynomial,
    commutation_checks,
    g2_module_basis,
    harmonic_module_basis,
    sl_module_basis,
    variable,
    verify_singular,
)
from flagpde.lie import (
    _closed_under_bracket,
    g2_bracket_report,
    g2_invariant,
    g2_laplacian,
    g2_matrices,
    g2_polynomial_action,
    g2_singular_config,
    mat_bracket,
    select_g2_laplacian_reading,
    sl_cartan,
    sl_generator,
    sl_invariant,
    sl_laplacian,
    so_generator,
    so_highest_harmonic,
    so_singular_config,
)
from flagpde.linalg import (
    bidegree_monomials,
    kernel_on_slice,
    monomials_of_degree,
    polys_in_span,
    polys_rank,
)
from flagpde import lie
from flagpde.operators import (
    Compose,
    Derivative,
    LinearVectorField,
    MultiplyBy,
    Scale,
    Sum,
    VerificationError,
    differential_form,
    forms_commute,
    operators_agree_on_sample,
)

from oracles import (
    agree_on_monomials,
    commutation_checks_by_monomials,
    euler_operator_by_tree,
    g2_element_by_fractions,
    g2_pair_action_by_tree,
    g2_pair_matrices,
    g2_pair_singular_config_by_tree,
    g2_singular_config_by_tree,
    harmonic_element_by_fractions,
    integral_from_pairs,
    sl_branch_element_by_fractions,
    sl_cartan_by_tree,
    sl_generator_by_tree,
    sl_singular_config_by_tree,
    so_generator_by_tree,
    so_singular_config_by_hand,
    so_singular_config_by_tree,
    to_integral,
    typed_terms,
    verify_singular_by_tree,
)
from strategies import gaussian_coefficients


# -- orthogonal family --------------------------------------------------------------

def test_so_generator_is_rotation():
    op = so_generator(3, 1, 2)
    x1, x2 = variable("x1"), variable("x2")
    assert op(x1) == -x2.with_variables(("x1", "x2"))
    assert op(x2) == x1.with_variables(("x1", "x2"))


def test_so_bracket_structure_sample():
    # [L12, L23] = L13 as operators, on all monomials of degree <= 3
    l12, l23, l13 = so_generator(3, 1, 2), so_generator(3, 2, 3), so_generator(3, 1, 3)
    vars_ = ("x1", "x2", "x3")
    for d in range(4):
        for mono in monomials_of_degree(vars_, d):
            lhs = l12(l23(mono)) - l23(l12(mono))
            assert lhs == l13(mono)


def test_so_highest_vector_is_singular():
    """(x1 + i x2)^k is killed by every raising operator of so(n), with
    weight (k, 0, ..., 0); so(3)..so(8) have 1, 2, 4, 6, 9 and 12 positive
    roots."""
    for n, roots in zip(range(3, 9), (1, 2, 4, 6, 9, 12)):
        config = so_singular_config(n)
        assert len(config.positives) == roots
        assert len(config.cartans) == n // 2
        for k in range(5):
            check = verify_singular(config, so_highest_harmonic(n, k))
            assert check.ok, check.failures
            assert check.weight == [k] + [0] * (n // 2 - 1)


@pytest.mark.parametrize("n", [3, 4])
def test_so_singular_config_matches_the_hand_written_one(n):
    """The paired-variable rule gives the recorded n = 3 and n = 4 operators,
    generator for generator, by normal form."""
    vs = tuple(f"x{i}" for i in range(1, n + 1))
    rule, by_hand = so_singular_config(n), so_singular_config_by_hand(n)
    for ours, theirs in ((rule.positives, by_hand.positives), (rule.cartans, by_hand.cartans)):
        assert len(ours) == len(theirs)
        for (_, a), (_, b) in zip(ours, theirs):
            assert differential_form(a, vs) == differential_form(b, vs)


@pytest.mark.parametrize("n", [1])
def test_so_singular_config_needs_three_variables(n):
    """so(1) is zero; so(2), abelian, is the smallest configuration."""
    with pytest.raises(ValueError, match="n >= 2"):
        so_singular_config(n)


def test_so2_has_no_raising_operator_and_reads_weight_k():
    """so(2) is spanned by L12: the configuration is the one Cartan
    h1 = -i L12, and (x1 + i x2)^k has weight [k]."""
    config = so_singular_config(2)
    assert config.positives == [] and [name for name, _ in config.cartans] == ["h1"]
    for k in range(5):
        check = verify_singular(config, so_highest_harmonic(2, k))
        assert check.ok and check.weight == [k]


@pytest.mark.parametrize("kind, cases", [
    ("harmonic", [{"n": n, "k": k} for n in range(2, 6) for k in range(4)]),
    ("sl", [{"n": n, "l1": a, "l2": b} for n in (2, 3, 4) for a in range(3) for b in range(3)]),
    ("g2", [{"k": k} for k in range(5)]),
])
def test_highest_weight_record_top_has_its_closed_form_weight(kind, cases):
    """Each record's top vector is singular, with the closed-form weight,
    and is killed by the annihilator of the record's module basis."""
    module = lie.HIGHEST_WEIGHT_MODULES[kind]
    for params in cases:
        assert set(params) == set(module.params)
        assert module.singular_weight(**params) == module.weight(**params)
        top = module.top(**params)
        assert module.basis(**params).annihilator(top).is_zero()


@pytest.mark.parametrize("n", range(3, 9))
def test_so_operator_identities(n):
    """Each identity is proved on normal forms, so in every degree: every
    L_ij commutes with the Laplacian and kills r^2 = sum x_i^2, and
    Lap r^2 = r^2 Lap + 4E + 2n with E the Euler operator."""
    vs = tuple(f"x{i}" for i in range(1, n + 1))
    lap = Sum(Derivative(v, 2) for v in vs)
    r2 = sum((variable(v) ** 2 for v in vs), Polynomial.zero(vs))
    lap_form = differential_form(lap, vs)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rotation = so_generator(n, i, j)
            assert forms_commute(differential_form(rotation, vs), lap_form)
            assert rotation(r2).is_zero()
    euler = Sum(Compose(MultiplyBy(variable(v)), Derivative(v, 1)) for v in vs)
    lhs = Compose(lap, MultiplyBy(r2))
    rhs = Sum((Compose(MultiplyBy(r2), lap), Compose(Scale(Fraction(4)), euler), Scale(Fraction(2 * n))))
    assert differential_form(lhs, vs) is not None and differential_form(rhs, vs) is not None
    assert operators_agree_on_sample(lhs, rhs, vs)


_x1, _y2 = variable("x1"), variable("y2")
_w, _x3, _x4, _x5 = variable("x1") - IMAG * variable("x2"), variable("x3"), variable("x4"), variable("x5")


@pytest.mark.parametrize("config, f, failures", [
    # E12 = x1 d/dx2 - y2 d/dy1
    (lambda: lie.sl_singular_config(2), variable("y1"), [("E12", -_y2)]),
    # in the integral coordinates the column-1 entries of E1, E3 and E4 are -1, so each moves x1
    (lambda: lie.g2_singular_config(), _x1,
     [("E1", -variable("x5")), ("E3", -variable("x6")), ("E4", -variable("x4"))]),
    # killed by E12, but h1 scales x1 by 1 and x1 y2 by 2: the residual is h1(f) - 2f
    (lambda: lie.sl_singular_config(2), _x1 + _x1 * _y2, [("h1", -_x1)]),
    # (x1 - i x2)^2 is the lowest weight vector of its so(5) module, so the raising operators move it
    (lambda: so_singular_config(5), (_w**2).with_variables(("x1", "x2", "x3", "x4", "x5")),
     [("E12(+)", -4 * _w * (_x3 + IMAG * _x4)), ("E12(-)", -4 * _w * (_x3 - IMAG * _x4)),
      ("E1", -4 * _w * _x5)]),
], ids=["sl2 generator", "g2 pair", "cartan weight", "so5 lowering vector"])
def test_verify_singular_names_the_failing_operator(config, f, failures):
    check = verify_singular(config(), f)
    assert not check.ok and check.weight is None
    assert check.failures == failures


def test_so_highest_vector_in_module_span():
    f = so_highest_harmonic(3, 2)
    fam = harmonic_module_basis(3, 2)
    parts = [f.real_part(), f.imag_part()]
    assert polys_in_span([e.solution for e in fam.elements], parts)


def test_harmonic_module_dimensions():
    assert len(harmonic_module_basis(3, 1)) == 3
    assert len(harmonic_module_basis(3, 2)) == 5
    assert len(harmonic_module_basis(4, 2)) == 9


def test_harmonic_module_matches_kernel_oracle():
    for n, k in ((3, 3), (4, 2), (2, 4), (3, 5), (4, 5)):
        fam = harmonic_module_basis(n, k)
        vars_ = tuple(f"x{i}" for i in range(1, n + 1))
        kernel = kernel_on_slice(fam.annihilator, monomials_of_degree(vars_, k))
        sols = [e.solution for e in fam.elements]
        assert len(kernel) == len(sols) == polys_rank(sols)
        assert polys_in_span(sols, kernel) and polys_in_span(kernel, sols)


@pytest.mark.parametrize("n, k", [(2, 7), (3, 6), (4, 5), (5, 4)])
def test_harmonic_module_elements_match_fraction_products(n, k):
    for e in harmonic_module_basis(n, k).elements:
        want = harmonic_element_by_fractions(n, e.index["eps"], e.index["ell"])
        assert typed_terms(e.solution) == typed_terms(want)


# -- special linear family --------------------------------------------------------------

@pytest.mark.parametrize("n, l1, l2", [(n, l1, l2) for n in (2, 3, 4) for l1 in range(4) for l2 in range(4)])
def test_sl_elements_match_fraction_products(n, l1, l2):
    for e in sl_module_basis(n, l1, l2).elements:
        index = e.index
        pairs = list(zip(index["mr"], index["lr"]))
        want = sl_branch_element_by_fractions(n, index["m"], pairs, swap=index["branch"] == 2)
        assert typed_terms(e.solution) == typed_terms(want)


def test_sl_invariant_is_annihilated():
    for n in (2, 3):
        zeta = sl_invariant(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert sl_generator(n, i, j)(zeta).is_zero()
        for h in sl_cartan(n):
            assert h(zeta).is_zero()


def _sl_module_checked(n, l1, l2):
    """sl_module_basis with its independence and the size of the exact
    kernel of the contraction on the bidegree slice checked."""
    fam = sl_module_basis(n, l1, l2)
    assert fam.verify_independence()
    x_vars = tuple(f"x{i}" for i in range(1, n + 1))
    y_vars = tuple(f"y{i}" for i in range(1, n + 1))
    kernel = kernel_on_slice(sl_laplacian(n), bidegree_monomials(x_vars, y_vars, l1, l2))
    assert len(kernel) == len(fam)
    return fam


def test_sl_module_small_case():
    fam = _sl_module_checked(2, 1, 1)
    sols = [e.solution for e in fam.elements]
    assert len(sols) == 3
    x1, x2, y1, y2 = (variable(v) for v in ("x1", "x2", "y1", "y2"))
    expected = [x1 * y2, x2 * y1, x1 * y1 - x2 * y2]
    assert polys_in_span(sols, expected) and polys_in_span(expected, sols)


def test_sl_module_trivial_case():
    fam = sl_module_basis(3, 0, 0)
    assert len(fam) == 1
    assert fam.elements[0].solution.total_degree() == 0


def test_sl_highest_vector_in_family_and_singular():
    n, l1, l2 = 3, 2, 1
    fam = sl_module_basis(n, l1, l2)
    top = variable("x1") ** l1 * variable(f"y{n}") ** l2
    assert any(e.solution == top for e in fam.elements)
    positives = [
        (f"E{i}{j}", sl_generator(n, i, j))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    from flagpde.lie import SingularConfig

    config = SingularConfig(positives, [(f"h{i}", h) for i, h in enumerate(sl_cartan(n), 1)])
    check = verify_singular(config, top)
    assert check.ok
    # weight l1 * (first fundamental) + l2 * (last fundamental): coords (2, 1)
    assert check.weight == [Fraction(2), Fraction(1)]


def test_sl_module_matches_kernel_oracle():
    for n, l1, l2 in ((2, 2, 1), (2, 2, 2), (3, 1, 1)):
        _sl_module_checked(n, l1, l2)


def test_sl_decomposition_rank():
    # the bidegree slice splits as module plus invariant times smaller slice
    for l1, l2 in ((1, 1), (2, 1)):
        n = 2
        fam = sl_module_basis(n, l1, l2)
        zeta = sl_invariant(n)
        lower = bidegree_monomials(("x1", "x2"), ("y1", "y2"), l1 - 1, l2 - 1)
        shifted = [zeta * m for m in lower]
        ambient = bidegree_monomials(("x1", "x2"), ("y1", "y2"), l1, l2)
        combined = [e.solution for e in fam.elements] + shifted
        assert polys_rank(combined) == len(combined) == len(ambient)


def test_sl_contraction_eigenvalue_law():
    # Delta(zeta^i g) = i (n + a + b + i - 1) zeta^(i-1) g for g of bidegree (a, b)
    n = 2
    delta = sl_laplacian(n)
    zeta = sl_invariant(n)
    for a_b in ((1, 1), (2, 1), (0, 0)):
        fam = sl_module_basis(n, *a_b)
        for e in fam.elements[:4]:
            g = e.solution
            zg = g
            for i in (1, 2, 3):
                zg = zeta * zg
                factor = i * (n + a_b[0] + a_b[1] + i - 1)
                lhs = delta(zg)
                rhs = factor * (zeta ** (i - 1)) * g
                assert lhs == rhs, (a_b, i)


# -- the exceptional family ----------------------------------------------------------------

def test_g2_defining_brackets():
    report = g2_bracket_report()
    assert all(report.values()), report


def test_g2_e3_equals_bracket_of_e1_e2():
    mats = g2_matrices()
    assert mat_bracket(mats["E1"], mats["E2"]) == mats["E3"]


def test_sparse_bracket_multiplies_over_z():
    # [2 E12, 3 E21] = 6 (E11 - E22)
    a = {(1, 2): 2}
    b = {(2, 1): 3}
    assert mat_bracket(a, b) == {(1, 1): 6, (2, 2): -6}
    assert mat_bracket(a, a) == {}
    assert all(len(m) <= 6 for m in g2_matrices().values())


def test_g2_matrices_are_the_pair_matrices_in_the_integral_coordinate():
    """Each row-1 entry times sqrt(2) and each column-1 entry over sqrt(2)
    turns the paper's Z[sqrt(2)] matrices into the library's, all of whose
    entries are ints, and whose brackets stay over Z."""
    mats = g2_matrices()
    assert {name: integral_from_pairs(m) for name, m in g2_pair_matrices().items()} == mats
    assert all(type(c) is int for m in mats.values() for c in m.values())
    brackets = [mat_bracket(mats[a], mats[b]) for a in mats for b in mats]
    assert all(type(c) is int for m in brackets for c in m.values())
    assert _closed_under_bracket(mats.values())


def test_g2_invariant_annihilated():
    """Each integral field kills the image of eta, 2 x1^2 + 2 (x2 x5 + x3 x6 + x4 x7)."""
    x = [variable(f"x{i}") for i in range(1, 8)]
    eta = 2 * x[0] ** 2 + 2 * (x[1] * x[4] + x[2] * x[5] + x[3] * x[6])
    assert lie._integral_invariant() == eta
    for gen in g2_polynomial_action().values():
        assert gen(eta).is_zero()


def test_g2_laplacian_reading_selected():
    reading, results = select_g2_laplacian_reading()
    assert reading == 1
    assert results == {1: True, 2: False}


def test_g2_reading_is_proved_once_per_process(fresh_reading, monkeypatch):
    proof, calls = lie._g2_reading_checks, []

    def counted(eta, action):
        calls.append(1)
        return proof(eta, action)

    monkeypatch.setattr(lie, "_g2_reading_checks", counted)
    commutation_checks(2)
    commutation_checks(3)
    select_g2_laplacian_reading()
    assert len(calls) == 1


def test_g2_reading_report_is_a_new_dict_on_each_call(fresh_reading):
    _, results = select_g2_laplacian_reading()
    results[2] = True
    results[3] = True
    assert select_g2_laplacian_reading() == (1, {1: True, 2: False})


def test_failed_g2_reading_proof_is_not_kept(fresh_reading, monkeypatch):
    monkeypatch.setattr(lie, "_g2_reading_checks", lambda eta, action: {1: (False, True), 2: (True, False)})
    with pytest.raises(VerificationError):
        select_g2_laplacian_reading()
    assert lie._g2_reading.cache_info().currsize == 0
    monkeypatch.undo()
    assert select_g2_laplacian_reading()[0] == 1


def test_whole_g2_half_is_proved_once_per_process(fresh_reading, monkeypatch):
    """The exceptional half runs once across the calls; the special linear
    half once per commutation_checks call."""
    calls = collections.Counter()

    def count(name):
        original = getattr(lie, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(lie, name, counted)

    for name in ("_g2_reading_checks", "g2_bracket_report", "g2_polynomial_action", "sl_laplacian"):
        count(name)
    commutation_checks(2)
    commutation_checks(3)
    select_g2_laplacian_reading()
    assert calls == {"_g2_reading_checks": 1, "g2_bracket_report": 1, "g2_polynomial_action": 1,
                     "sl_laplacian": 2}


def test_g2_action_is_built_once_per_process(fresh_reading, monkeypatch):
    """The singular configs and the exceptional half share one build of the
    fourteen operators, which no config can change; the public builder
    still returns a new dict on each call."""
    calls, build = [], lie.g2_polynomial_action

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(lie, "g2_polynomial_action", counted)
    first, second = g2_singular_config(), g2_singular_config()
    commutation_checks(2)
    assert len(calls) == 1
    assert [op for _, op in first.positives] == [op for _, op in second.positives]
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.positives[0][1].entries = {}
    monkeypatch.undo()
    assert g2_polynomial_action() is not g2_polynomial_action()


def _sl_and_so_configs():
    return (lambda: lie.sl_singular_config(3), lambda: so_singular_config(4), lambda: so_singular_config(5))


def test_sl_and_so_builders_share_their_operators(fresh_reading):
    """Each node is built once per process; each call returns new lists."""
    assert sl_generator(3, 1, 2) is sl_generator(3, 1, 2) is sl_generator(2, 1, 2)
    first, second = sl_cartan(3), sl_cartan(3)
    assert first is not second and len(first) == 2
    assert all(a is b for a, b in zip(first, second))
    for build in _sl_and_so_configs():
        one, two = build(), build()
        for a, b in ((one.positives, two.positives), (one.cartans, two.cartans)):
            assert a is not b and len(a) == len(b)
            assert all(name_a == name_b and op_a is op_b for (name_a, op_a), (name_b, op_b) in zip(a, b))
    assert lie.sl_singular_config(3).positives[0][1] is sl_generator(3, 1, 2)


def test_changing_a_config_leaves_the_next_one_whole(fresh_reading):
    for build in _sl_and_so_configs():
        want = build()
        config = build()
        config.positives.append(("E99", sl_generator(3, 2, 1)))
        config.positives.pop(0)
        config.cartans.clear()
        again = build()
        assert again.positives == want.positives and again.cartans == want.cartans
    cartans = sl_cartan(3)
    cartans.append(sl_generator(3, 2, 1))
    assert len(sl_cartan(3)) == 2


def test_shared_nodes_are_read_only(fresh_reading):
    so3 = so_singular_config(3)
    for node in (sl_generator(2, 1, 2), sl_cartan(3)[0], so3.positives[0][1], so3.cartans[0][1]):
        with pytest.raises(TypeError):
            node.entries[("x1", "x1")] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.entries = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node.entries
    check = verify_singular(lie.sl_singular_config(2), variable("x1") ** 2 * variable("y2"))
    assert check.ok and check.weight == [3]


def test_a_sabotaged_config_is_reported_as_before(fresh_reading):
    """A swapped-in generator is read like any other and changes no shared node."""
    x1, x2, y1, y2 = (variable(v) for v in ("x1", "x2", "y1", "y2"))
    f = x1**2 * y2
    lowering = lie.sl_singular_config(2)
    lowering.positives[0] = ("E12", sl_generator(2, 2, 1))
    assert verify_singular(lowering, f).failures == [("E12", 2 * x1 * x2 * y2 - x1**2 * y1)]
    # x1 d/dx1 + x2 d/dx1 scales the leading term x1^2 y2 by 2: the rest is the residual
    skewed = lie.sl_singular_config(2)
    skewed.cartans[0] = ("h1", LinearVectorField({("x1", "x1"): 1, ("x2", "x1"): 1}))
    check = verify_singular(skewed, f)
    assert not check.ok and check.weight is None
    assert check.failures == [("h1", 2 * x1 * x2 * y2)]
    check = verify_singular(lie.sl_singular_config(2), f)
    assert check.ok and check.weight == [3]


def test_commutation_checks_prove_the_sl_half_on_each_call(monkeypatch):
    """The shared nodes save their builds, not the proofs: each call proves
    the contraction's commutation with every sl generator and the zeta law."""
    commutation_checks(2)  # the exceptional half is proved before the count
    calls = collections.Counter()
    for name in ("forms_commute", "operators_agree_on_sample"):
        original = getattr(lie, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(lie, name, counted)
    for n_sl in (2, 2, 3):
        commutation_checks(n_sl)
    # n^2 - n raising and lowering generators and n - 1 Cartans per call
    assert calls == {"forms_commute": 3 + 3 + 8, "operators_agree_on_sample": 3}


def test_mutating_a_report_leaves_the_next_one_whole():
    want = list(commutation_checks(2).items())
    report = commutation_checks(2)
    report.pop("laplacian reading")  # as cli._cmd_lie_check does
    report["closure"] = False
    report.clear()
    assert list(commutation_checks(2).items()) == want
    with pytest.raises(TypeError):
        lie._g2_reading()[2]["closure"] = False


def test_sabotaged_generator_leaves_no_reading():
    action = g2_polynomial_action()
    action["h1"] = MultiplyBy(variable("x1"))
    checks = lie._g2_reading_checks(lie._integral_invariant(), action)
    assert checks[1] == (False, True)  # [d1^2 / 2, x1] = d1
    assert not all(checks[2])
    with pytest.raises(VerificationError):
        lie._select_reading(checks)


def test_g2_eta_multiplication_law():
    lap = g2_laplacian(1)
    eta = g2_invariant()
    one = Polynomial.const(1, tuple(f"x{i}" for i in range(1, 8)))
    assert lap(eta * one) == 14 * one


def test_g2_module_bases():
    assert len(g2_module_basis(0)) == 1
    fam1 = g2_module_basis(1)
    assert len(fam1) == 7
    assert any(e.solution == variable("x4") for e in fam1.elements)
    fam2 = g2_module_basis(2)
    vars_ = tuple(f"x{i}" for i in range(1, 8))
    kernel = kernel_on_slice(g2_laplacian(1), monomials_of_degree(vars_, 2))
    sols = [e.solution for e in fam2.elements]
    assert len(kernel) == len(sols) == polys_rank(sols)
    assert polys_in_span(sols, kernel)


@pytest.mark.parametrize("k", range(6))
def test_g2_elements_match_fraction_products(k):
    for e in g2_module_basis(k).elements:
        want = g2_element_by_fractions(e.index["eps"], e.index["m"])
        assert typed_terms(e.solution) == typed_terms(want)


def test_g2_module_matches_series_route():
    from flagpde import SeriesConfig, solve_by_series
    from flagpde.operators import Integrate

    vars_ = tuple(f"x{i}" for i in range(1, 8))
    pair_part = Sum(
        Compose(Scale(Fraction(2)), Derivative(f"x{a}"), Derivative(f"x{b}"))
        for a, b in ((2, 5), (3, 6), (4, 7))
    )
    cfg = SeriesConfig(Derivative("x1", 2), Integrate("x1", 2), pair_part)
    fam = g2_module_basis(2)
    for e in fam.elements:
        eps = e.index["eps"]
        ms = e.index["m"]
        seed_exp = (0,) + tuple(ms)
        seed = Polynomial(vars_, {seed_exp: Fraction(1)})
        h = variable("x1") ** eps
        assert e.solution == solve_by_series(cfg, h, seed)


def test_g2_highest_vector_weight():
    config = g2_singular_config()
    for k in (1, 2, 3):
        check = verify_singular(config, variable("x4") ** k)
        assert check.ok, check.failures
        assert check.weight == [Fraction(k), Fraction(0)]


@pytest.mark.parametrize("k", range(4))
def test_integral_fields_preserve_the_rescaled_module(k):
    """Each integral field maps span{D(e) : e in g2_module_basis(k)} into
    itself: D is the coordinate change's map on the module, each element
    having one x1 parity.  Without D the span is not preserved from k = 2."""
    span = [to_integral(e.solution) for e in g2_module_basis(k).elements]
    rank = polys_rank(span)
    for name, gen in g2_polynomial_action().items():
        assert polys_rank(span + [gen(p) for p in span]) == rank, name


def test_g2_decomposition_of_degree_two():
    # degree-2 slice = module + eta * constants, exact rank split 27 + 1 = 28
    fam = g2_module_basis(2)
    combined = [e.solution for e in fam.elements] + [g2_invariant()]
    assert polys_rank(combined) == 28


# -- the generators as linear vector fields ---------------------------------------------------

def _xs(n):
    return tuple(f"x{i}" for i in range(1, n + 1))


def _xys(n):
    return _xs(n) + tuple(f"y{i}" for i in range(1, n + 1))


def _generator_cases():
    """(id, thunk giving (linear vector field, tree, variables)) per generator."""
    cases = []
    for n in range(2, 6):
        cases += [(f"sl{n} E{i}{j}", lambda n=n, i=i, j=j: (sl_generator(n, i, j), sl_generator_by_tree(n, i, j),
                                                             _xys(n)))
                  for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        cases += [(f"sl{n} h{i}", lambda n=n, i=i: (sl_cartan(n)[i - 1], sl_cartan_by_tree(n)[i - 1], _xys(n)))
                  for i in range(1, n)]
    for n in range(3, 9):
        cases += [(f"so{n} L{i}{j}", lambda n=n, i=i, j=j: (so_generator(n, i, j), so_generator_by_tree(n, i, j),
                                                            _xs(n)))
                  for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for kind in ("positives", "cartans"):
            size = len(getattr(so_singular_config(n), kind))
            cases += [(f"so{n} {kind} {k}",
                       lambda n=n, kind=kind, k=k: (getattr(so_singular_config(n), kind)[k][1],
                                                    getattr(so_singular_config_by_tree(n), kind)[k][1], _xs(n)))
                      for k in range(size)]
    for name in sorted(g2_matrices()):
        for part in ("rational", "radical"):
            cases.append((f"g2 {name} {part}",
                          lambda name=name, part=part: (_g2_block(name, part),
                                                        getattr(g2_pair_action_by_tree()[name], part), _xs(7))))
    cases.append(("euler x1..x7", lambda: (lie._euler_operator(_xs(7)), euler_operator_by_tree(_xs(7)), _xs(7))))
    return cases


def _g2_block(name, part):
    """The block of the integral field of name that is the paper-coordinate
    pair oracle's part: the entries off row and column 1, which the
    coordinate change leaves alone, for "rational"; the row-1 and column-1
    entries, mapped back (a row-1 entry 2q and a column-1 entry q are the
    sqrt(2) part q), for "radical"."""
    field = g2_polynomial_action()[name]
    assert isinstance(field, LinearVectorField)
    block = {}
    for (xi, xj), c in field.entries.items():
        if (part == "radical") == (xi != xj and "x1" in (xi, xj)):
            block[(xi, xj)] = Fraction(c, 2) if part == "radical" and xi == "x1" else c
    return LinearVectorField(block)


_GENERATOR_CASES = _generator_cases()


@pytest.mark.parametrize("build", [b for _, b in _GENERATOR_CASES], ids=[i for i, _ in _GENERATOR_CASES])
def test_generator_is_the_linear_vector_field_of_its_tree(build):
    """Every generator is one LinearVectorField with the normal form of the
    operator tree it replaces."""
    field, tree, vs = build()
    assert isinstance(field, LinearVectorField)
    assert differential_form(field, vs) == differential_form(tree, vs)


_SINGULAR_CONFIGS = {
    **{f"so{n}": (lambda n=n: so_singular_config(n), lambda n=n: so_singular_config_by_tree(n), _xs(n))
       for n in (3, 4, 5)},
    **{f"sl{n}": (lambda n=n: lie.sl_singular_config(n), lambda n=n: sl_singular_config_by_tree(n), _xys(n))
       for n in (2, 3)},
    "g2": (g2_singular_config, g2_singular_config_by_tree, _xs(7)),
}


def _top(name, vs):
    """Polynomials that every raising operator of the config kills:
    powers of x1 + i x2 for so(n), of x1 and y_n for sl(n), of x4 for G2."""
    if name.startswith("so"):
        return [(variable("x1") + IMAG * variable("x2")).with_variables(vs)]
    if name.startswith("sl"):
        return [variable("x1"), variable(vs[-1])]
    return [variable("x4")]


@st.composite
def _singular_candidates(draw):
    """A config name and f with at most 4 terms of degree at most 4, over
    all of the config's variables or only its top ones (``_top``)."""
    name = draw(st.sampled_from(sorted(_SINGULAR_CONFIGS)))
    vs = _SINGULAR_CONFIGS[name][2]
    return name, _drawn_polynomial(draw, vs, draw(st.sampled_from([[variable(v) for v in vs], _top(name, vs)])))


def _drawn_polynomial(draw, vs, bases):
    """At most 4 terms, each a Gaussian coefficient times at most 4 bases."""
    f = Polynomial.zero(vs)
    for _ in range(draw(st.integers(1, 4))):
        term = Polynomial.const(draw(gaussian_coefficients()), vs)
        for k in draw(st.lists(st.integers(0, len(bases) - 1), max_size=4)):
            term = term * bases[k]
        f = f + term
    return f


@settings(max_examples=60, deadline=None)
@given(_singular_candidates())
@example(("so3", so_highest_harmonic(3, 4)))
@example(("so5", so_highest_harmonic(5, 3)))
@example(("g2", variable("x4") ** 3))
@example(("sl3", variable("x1") ** 2 * variable("y3")))
@example(("sl2", variable("x1") + variable("y2") ** 2))
@example(("so4", so_highest_harmonic(4, 2) + so_highest_harmonic(4, 1)))
def test_verify_singular_matches_the_tree_fold(candidate):
    """One variable order per call and residuals as forms give the result
    (ok, weight, failure names and residuals) of applying every tree-built
    generator by its own fold."""
    name, f = candidate
    if f.is_zero():
        return
    build, build_by_tree, _ = _SINGULAR_CONFIGS[name]
    assert verify_singular(build(), f) == verify_singular_by_tree(build_by_tree(), f)


@st.composite
def _one_parity_g2_candidates(draw):
    """f in the paper's coordinates, drawn as ``_singular_candidates`` draws
    it over x1..x7 or over x1 and x4, cut to the terms whose x1 exponent has
    a drawn parity."""
    vs = _xs(7)
    f = _drawn_polynomial(draw, vs, draw(st.sampled_from([[variable(v) for v in vs], [_x1, _x4]])))
    parity, at = draw(st.integers(0, 1)), f.vars.index("x1")
    return Polynomial(f.vars, {exp: c for exp, c in f.terms.items() if exp[at] % 2 == parity})


@settings(max_examples=60, deadline=None)
@given(_one_parity_g2_candidates())
@example(variable("x4") ** 3)
@example(g2_invariant() * variable("x4") ** 2)
@example(_x1 * variable("x4"))
def test_integral_g2_config_agrees_with_the_pair_oracle(f):
    """verify_singular of the integral config on D(f) and the paper-coordinate
    Z[sqrt(2)] pair oracle on f agree on ok, the weight and the names of the
    failing operators."""
    if f.is_zero():
        return
    want = verify_singular_by_tree(g2_pair_singular_config_by_tree(), f)
    got = verify_singular(g2_singular_config(), to_integral(f))
    assert (got.ok, got.weight, [name for name, _ in got.failures]) == \
        (want.ok, want.weight, [name for name, _ in want.failures])


# -- the oracle and the suite ------------------------------------------------------------------

def test_kernel_oracle_simple_cases():
    lap = Sum((Derivative("x", 2), Derivative("y", 2)))
    cubics = monomials_of_degree(("x", "y"), 3)
    assert len(kernel_on_slice(lap, cubics)) == 2
    zero_op = Sum(())
    assert len(kernel_on_slice(zero_op, cubics)) == len(cubics)


def test_commutation_suite_all_green():
    for n_sl in (2, 3):
        report = commutation_checks(n_sl)
        failures = [k for k, v in report.items() if v is False]
        assert not failures, (n_sl, failures)
        assert report["laplacian reading"] == 1, (n_sl, report)


@pytest.mark.parametrize("n_sl", (1, 0, -1))
def test_commutation_checks_reject_an_sl_below_two(n_sl):
    with pytest.raises(ValueError, match="need n_sl >= 2"):
        commutation_checks(n_sl)


@pytest.mark.parametrize("max_degree", range(5))
@pytest.mark.parametrize("n_sl", (2, 3))
def test_commutation_checks_match_monomial_oracle(n_sl, max_degree):
    report = commutation_checks(n_sl, max_degree)
    assert len(report) == 13
    assert report == commutation_checks_by_monomials(n_sl, max_degree)


def test_normal_forms_see_past_the_sampled_degree():
    delta = sl_laplacian(2)
    perturbed = Sum((delta, Derivative("x1", 3)))
    vars_ = ("x1", "x2", "y1", "y2")
    assert agree_on_monomials(delta, perturbed, vars_, 2)
    assert not agree_on_monomials(delta, perturbed, vars_, 3)
    assert not operators_agree_on_sample(delta, perturbed, vars_)
    assert operators_agree_on_sample(perturbed, Sum((Derivative("x1", 3), delta)), vars_)

def test_closure_finds_a_bracket_outside_the_span():
    e, f = {(1, 2): 1}, {(2, 1): 1}
    h = {(1, 1): 1, (2, 2): -1}
    assert not _closed_under_bracket([e, f])
    assert _closed_under_bracket([e, f, h])
    assert not _closed_under_bracket([e, f, h, {(1, 2): 2}])
