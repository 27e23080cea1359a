import math
from fractions import Fraction

import pytest

from flagpde import (
    IMAG,
    Polynomial,
    Tree,
    check_splitting,
    compute_splitting,
    constant,
    evaluate_symbol,
    tricomi_operator,
    variable,
)
from flagpde.combinatorics import tuples_with_sum_at_most
from flagpde.operators import VerificationError
from flagpde.trees import (
    InvalidTreeError,
    _apply_exp_symbol,
    _symbol_applicator,
    all_trees,
)
from flagpde.poly import ExponentRangeError, _int_form

from oracles import _truncate_t, apply_symbol_termwise, check_splitting_termwise

x1, x2, x3 = variable("x1"), variable("x2"), variable("x3")
CHAIN3 = Tree(3, [(1, 2), (2, 3)])


# -- validation --------------------------------------------------------------------

def test_tree_accepts_chain_and_star():
    Tree(3, [(1, 2), (2, 3)])
    Tree(3, [(1, 2), (1, 3)])
    Tree(1, [])


def test_tree_rejects_duplicate_parent():
    with pytest.raises(InvalidTreeError, match="two parents"):
        Tree(3, [(1, 3), (2, 3)])


def test_tree_rejects_unreachable_node():
    with pytest.raises(InvalidTreeError, match="unreachable"):
        Tree(3, [(1, 2)])


def test_tree_rejects_backward_edge():
    with pytest.raises(InvalidTreeError):
        Tree(3, [(2, 1), (2, 3)])


def test_tree_tips():
    assert CHAIN3.tips() == [3]
    assert Tree(3, [(1, 2), (1, 3)]).tips() == [2, 3]
    assert Tree(1, []).tips() == [1]


def test_tree_json_round_trip():
    data = CHAIN3.to_json()
    assert Tree.from_json(data).edges == CHAIN3.edges


# -- the operator ------------------------------------------------------------------

def test_tricomi_chain_two():
    op = tricomi_operator(Tree(2, [(1, 2)]))
    assert op(x2**2) == 2 * x1
    assert op(x1**2) == constant(2).with_variables(("x1", "x2"))


def test_tricomi_single_node():
    op = tricomi_operator(Tree(1, []))
    assert op(x1**3) == 6 * x1


def test_tricomi_star():
    op = tricomi_operator(Tree(3, [(1, 2), (1, 3)]))
    assert op(x2**2 + x3**2) == 4 * x1


def test_tricomi_chain_three_example():
    assert tricomi_operator(CHAIN3)(x3**2) == 2 * x2


# -- the splitting recursion -----------------------------------------------------------

def _golden_chain3():
    t = variable("t")
    D1, D2, D3 = variable("D1"), variable("D2"), variable("D3")
    xi1 = (
        t * D1**2
        + t**2 * D1 * D2**2
        + t**3 / 3 * (D2**4 + 2 * D1 * D2 * D3**2)
        + t**4 / 6 * (3 * D2**3 * D3**2 + D1 * D3**4)
        + t**5 / 3 * D2**2 * D3**4
        + t**6 / 9 * D2 * D3**6
        + t**7 / 63 * D3**8
    )
    xi2 = x1 * (t * D2**2 + t**2 * D2 * D3**2 + t**3 / 3 * D3**4)
    xi3 = t * x2 * D3**2
    return xi1, xi2, xi3


def test_chain3_splitting_golden_values():
    s = compute_splitting(CHAIN3)
    g1, g2, g3 = _golden_chain3()
    assert s.exponents[0] == g1
    assert s.exponents[1] == g2
    assert s.exponents[2] == g3


def test_single_node_splitting():
    s = compute_splitting(Tree(1, []))
    assert s.exponents[0] == variable("t") * variable("D1") ** 2


def test_deep_tail_coefficient_adjudicated_by_expansion():
    """The top-degree splitting coefficient must reproduce exp(t d_T) on z^8.

    The full expansion of the eighth power of the last variable up to t^7
    distinguishes 1/63 from nearby candidates; the recursion's value is the
    one that matches.
    """
    mono = Polynomial(("x1", "x2", "x3"), {(0, 0, 8): Fraction(1)})
    d_t = tricomi_operator(CHAIN3)
    lhs = Polynomial.zero(("t",))
    piece = mono
    for k in range(8):
        lhs = lhs + Polynomial(("t",), {(k,): Fraction(1, math.factorial(k))}) * piece
        piece = d_t(piece)
    s = compute_splitting(CHAIN3)
    vs = ("t", "x1", "x2", "x3")
    rhs = _int_form(mono, vs)
    for xi in s.exponents:
        rhs = _apply_exp_symbol(_symbol_applicator(xi, vs), rhs, 7)
    rhs = rhs.to_poly(vs, frozenset())
    assert _truncate_t(lhs, 7) == _truncate_t(rhs, 7)
    # the constant monomial at t^7 pins the tail coefficient to 8!/63
    coeff = _truncate_t(lhs, 7).coefficient({"t": 7})
    assert coeff == Fraction(math.factorial(8), 63)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_splitting_identity_all_trees(n):
    for tree in all_trees(n):
        report = check_splitting(tree, 3, 3)
        assert report.monomials_checked > 0


def test_xi_terms_obey_the_order_bound():
    # every xi term has D-degree at most twice its t-degree (module docstring)
    terms = 0
    for n in range(1, 7):
        for tree in all_trees(n):
            for xi in compute_splitting(tree).exponents:
                for exp in xi.terms:
                    degrees = dict(zip(xi.vars, exp))
                    d = sum(e for v, e in degrees.items() if v.startswith("D"))
                    assert 1 <= d <= 2 * degrees["t"], (tree, xi)
                    terms += 1
    assert terms == 19378


def test_splitting_report_says_whether_the_sweep_is_a_proof():
    tree = Tree(4, [(1, 2), (2, 3), (2, 4)])
    assert check_splitting(tree, 6, 3).proof is True
    assert check_splitting(tree, 3, 3).proof is False  # the CLI default caps


@pytest.mark.parametrize("cap, tcap", [(-1, 3), (3, -1)])
def test_splitting_check_rejects_a_negative_cap(cap, tcap):
    with pytest.raises(ValueError, match="must be non-negative"):
        check_splitting(Tree(2, [(1, 2)]), cap, tcap)


def test_splitting_check_names_the_cap_a_tag_field_cannot_hold():
    """A 5-node chain at degree cap 21 has C(26, 5) = 65780 monomials, more
    than the 16384 tags of one batch."""
    chain5 = Tree(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(ExponentRangeError, match=r"degree_cap=21 .*at most 16384 entries, got 65780"):
        check_splitting(chain5, 21, 1)


@pytest.mark.parametrize("tree, cap, tcap", [
    (CHAIN3, 0, 3),
    (Tree(3, [(1, 2), (1, 3)]), 0, 2),
    (CHAIN3, 3, 0),
    (Tree(4, [(1, 2), (2, 3), (2, 4)]), 2, 0),
    (Tree(1, []), 4, 4),
    (Tree(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), 4, 4),
], ids=["cap 0", "star cap 0", "tcap 0", "tree4 tcap 0", "one node", "chain5 cap 4 tcap 4"])
def test_batched_splitting_matches_the_termwise_sweep(tree, cap, tcap):
    report = check_splitting(tree, cap, tcap)
    assert report.monomials_checked == check_splitting_termwise(compute_splitting(tree), cap, tcap)
    assert report.monomials_checked == math.comb(tree.nodes + cap, cap)


def test_splitting_check_reports_mismatch():
    s = compute_splitting(Tree(2, [(1, 2)]))
    # sabotage: drop the parent multiplier from the second exponent
    broken = s.exponents[1].substitute("x1", constant(2))
    s.exponents[1] = broken
    vs = ("t", "x1", "x2")
    mono = x2**2
    rhs = _int_form(mono, vs)
    for xi in s.exponents:
        rhs = _apply_exp_symbol(_symbol_applicator(xi, vs), rhs, 2)
    rhs = rhs.to_poly(vs, frozenset())
    lhs = mono + variable("t") * tricomi_operator(Tree(2, [(1, 2)]))(mono)
    assert _truncate_t(rhs, 1) != _truncate_t(lhs, 1)


def test_symbol_applicator_matches_termwise_application():
    for n in (1, 2, 3, 4):
        vs = ("t",) + tuple(f"x{i}" for i in range(1, n + 1))
        for tree in all_trees(n):
            for xi in compute_splitting(tree).exponents:
                app = _symbol_applicator(xi, vs)
                for exp in tuples_with_sum_at_most(n, 3):
                    mono = Polynomial(vs, {(0,) + exp: 1})
                    image = app.apply_form(_int_form(mono, vs)).to_poly(vs, frozenset())
                    assert image == apply_symbol_termwise(xi, mono)


def _sabotaged(tree, pick):
    """Splittings of the tree with one node's first or last exponent term, in
    graded order, scaled by 101/100."""
    for node in range(tree.nodes):
        s = compute_splitting(tree)
        xi = s.exponents[node]
        exp = pick(xi.terms, key=lambda e: (sum(e), e))
        s.exponents[node] = Polynomial(xi.vars, {**xi.terms, exp: xi.terms[exp] * Fraction(101, 100)})
        yield s


def test_sabotaged_splittings_raise_the_termwise_mismatch(monkeypatch):
    import flagpde.trees as trees

    raised = 0
    for n in (1, 2, 3, 4):
        for tree in all_trees(n):
            for pick in (max, min):
                for s in _sabotaged(tree, pick):
                    monkeypatch.setattr(trees, "compute_splitting", lambda _tree, s=s: s)
                    try:
                        expected = check_splitting_termwise(s, 3, 3)
                    except AssertionError as err:
                        with pytest.raises(VerificationError) as got:
                            check_splitting(tree, 3, 3)
                        assert str(got.value) == str(err)
                        raised += 1
                    else:
                        assert check_splitting(tree, 3, 3).monomials_checked == expected
    assert raised == 50


def test_sabotage_above_the_finite_cap_is_caught_by_the_proof_sweep(monkeypatch):
    """t^3 D1^6 added to xi_1 kills every monomial of degree <= 3, so the
    finite sweep at cap 3 passes; the proof sweep at cap 6 = 2 * tcap sees
    it on x1^6 at t^3."""
    import flagpde.trees as trees

    tree = Tree(4, [(1, 2), (2, 3), (2, 4)])
    s = compute_splitting(tree)
    s.exponents[0] = s.exponents[0] + variable("t") ** 3 * variable("D1") ** 6
    monkeypatch.setattr(trees, "compute_splitting", lambda _tree: s)
    report = check_splitting(tree, 3, 3)
    assert report.proof is False
    with pytest.raises(VerificationError) as got:
        check_splitting(tree, 6, 3)
    assert str(got.value) == "splitting mismatch on monomial {'x1': 6, 'x2': 0, 'x3': 0, 'x4': 0} at t^3"


# -- symbol evaluation --------------------------------------------------------------------

def _golden_symbol_polys():
    """The evaluated chain exponents as exact polynomials in t, x1, x2, the
    wave numbers K1..K3 (already divided by the half widths), and P standing
    for pi."""
    t, P = variable("t"), variable("P")
    K1, K2, K3 = variable("K1"), variable("K2"), variable("K3")
    x1v, x2v = variable("x1"), variable("x2")
    re1 = -4 * P**2 * t * (
        K1**2
        - 4 * P**2 * t**2 / 3 * (K2**4 + 2 * K1 * K2 * K3**2)
        + 16 * P**4 * t**4 / 3 * K2**2 * K3**4
        - Fraction(64, 63) * P**6 * t**6 * K3**8
    )
    im1 = -8 * P**3 * t**2 * (
        K1 * K2**2
        - 2 * P**2 * t**2 / 3 * (3 * K2**3 * K3**2 + K1 * K3**4)
        + Fraction(16, 9) * P**4 * t**4 * K2 * K3**6
    )
    xi1 = re1 + IMAG * im1
    xi2 = (
        -4 * P**2 * t * x1v * (K2**2 - 4 * P**2 * t**2 / 3 * K3**4)
        - IMAG * 8 * P**3 * K2 * K3**2 * t**2 * x1v
    )
    xi3 = -4 * P**2 * K3**2 * t * x2v
    return xi1, xi2, xi3


def test_chain3_symbols_match_golden_polynomials():
    s = compute_splitting(CHAIN3)
    P = variable("P")
    subs = {f"D{j}": 2 * P * variable(f"K{j}") * IMAG for j in (1, 2, 3)}
    golden = _golden_symbol_polys()
    for xi, want in zip(s.exponents, golden):
        got = xi
        for name, value in subs.items():
            got = got.substitute(name, value)
        assert got == want


def test_evaluate_symbol_zero_mode():
    s = compute_splitting(CHAIN3)
    assert evaluate_symbol(s, (0, 0, 0), (1.0, 1.0, 1.0), 0.7, (0.1, 0.2, 0.3)) == 0


def test_evaluate_symbol_single_node():
    s = compute_splitting(Tree(1, []))
    value = evaluate_symbol(s, (1,), (1.0,), 1.0, (0.4,))
    assert value == pytest.approx(-4 * math.pi**2)


def test_evaluate_symbol_matches_golden_numerically():
    s = compute_splitting(CHAIN3)
    golden = _golden_symbol_polys()
    k, a = (2, 1, 1), (1.0, 2.0, 1.5)
    tval, point = 0.3, (0.25, -0.4, 0.7)
    kd = [kv / av for kv, av in zip(k, a)]
    want = 0j
    for g in golden:
        assignment = {
            "t": tval, "P": math.pi,
            "K1": kd[0], "K2": kd[1], "K3": kd[2],
            "x1": point[0], "x2": point[1],
        }
        want += g.evaluate({v: assignment[v] for v in g.vars})
    got = evaluate_symbol(s, k, a, tval, point)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
