"""Golden hashes of exact family outputs, and golden bits of the numeric ones.

Each hash is the sha256 of ``json.dumps(family.to_json(), sort_keys=True)``.
The flag, constant, harmonic and dissipative hashes were recorded before
the Horner nested inverse and the shared stage prefixes replaced the
quadratic loops, the anisymmetric ones before integral coefficients were
kept as ``int``, and the n = 1 and n = 3 dissipative hashes with the
lambda = -1 and lambda = 5/2 anisymmetric ones before the Laplacian-power
families moved from iterated Laplacians to their multinomial closed form,
the lambda = -5 one (two Laplacian powers in its phi branch) before that
branch moved from a series of a many-term seed to Laplacians of its
kernel seeds, and the n = 1 lambda = -3 and lambda = -1 ones (no block
beside the corner) with the lambda = -7 one while that branch still applied
the Laplacian to its kernel seeds element by element, and the module
families (harmonic module, sl, g2) with the (2, 3, 1) constant family and
``harmonic_element(4, 1, (2, 0, 3))`` while each series block still kept an
exponent table shared by equal blocks and a key-offset table of its own,
so a refactor of the exact core that changes any coefficient, exponent,
term order or index of these families fails here.

The solver and ``basis`` command hashes pin outputs whose serialization
depends on the variable order (term order and exponent keys follow it);
they were recorded while every operator node still had a ``Polynomial``
``apply`` of its own, before application moved to integer forms.  The tree
splitting hashes pin the variable order of every exponent too; they were
recorded while the recursion still renamed t -> y and back around its
integral.

The commutation suite's items and the ``lie check`` results were recorded
while only the seven-variable Laplacian's reading was proved once per
process and the rest of the exceptional half was proved again on every
call.

The ``repr`` strings of ``solve_constant_ode`` and ``solve_flag_ivp`` values
were recorded while the ODE still had an evaluator of its own, before it
became the zero mode of the flag evaluator, and the Klein-Gordon values
(real, sparse arguments) while every argument list still ran the complex
recurrence at every weight after a float magnitude pass summed to 2^-60,
so a refactor of the numeric side that changes a single bit of these
values fails here.  The ``ivp tree-wave`` result hashes were recorded while
each carrier was still keyed by exponent tuples and rebuilt its blocks and
wave numbers per operator power.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from flagpde import (
    Compose,
    Derivative,
    FlagEquationSpec,
    Integrate,
    OdeProblem,
    Polynomial,
    Scale,
    Sum,
    TrigData,
    constant,
    constant_coefficient_basis,
    anisymmetric_basis,
    dissipative_wave_basis,
    flag_basis,
    g2_module_basis,
    harmonic_basis,
    harmonic_module_basis,
    klein_gordon_solutions,
    power_perturbation_solve,
    riemannian_wave_solution,
    sl_module_basis,
    solve_constant_ode,
    solve_flag_ivp,
    variable,
)
from flagpde.cli import main
from flagpde.bases import harmonic_element
from flagpde.lie import (
    commutation_checks,
    g2_singular_config,
    sl_singular_config,
    so_highest_harmonic,
    so_singular_config,
    verify_singular,
)
from flagpde.poly import IMAG
from flagpde.trees import Tree, all_trees, compute_splitting

x1, x2, x3 = variable("x1"), variable("x2"), variable("x3")

FAMILIES = {
    "flag_2222": lambda: flag_basis(
        FlagEquationSpec((2, 2, 2, 2), (x1 + 1, x2 + x1, x3 + x2)), 4),
    "flag_m1_3_zero": lambda: flag_basis(FlagEquationSpec((3, 2, 2), (x1**2 - 2, 0)), 5),
    "flag_gaussian": lambda: flag_basis(
        FlagEquationSpec((2, 1, 2), (IMAG * x1 + 1, x1 * x2 - Fraction(1, 2))), 5),
    "flag_first_order": lambda: flag_basis(FlagEquationSpec((1, 3, 2), (3 * x1**2, x2 - x1)), 6),
    "flag_mixed_4": lambda: flag_basis(
        FlagEquationSpec((2, 1, 3, 1), (x1, 0, x1 * x3 - x2)), 3),
    "flag_deep": lambda: flag_basis(
        FlagEquationSpec((2, 3, 2), (x1**2 + x1, x1 * x2**2 + 1)), 5),
    "constant_322": lambda: constant_coefficient_basis((3, 2, 2), 4),
    "harmonic_3": lambda: harmonic_basis(3, 5),
    "dissipative_2": lambda: dissipative_wave_basis(2, 5),
    "dissipative_3": lambda: dissipative_wave_basis(3, 5),
    "dissipative_1": lambda: dissipative_wave_basis(1, 6),
    "anisym_3_2_plus": lambda: anisymmetric_basis(3, Fraction(3, 2), 1, 4),
    "anisym_3_2_minus": lambda: anisymmetric_basis(3, Fraction(3, 2), -1, 4),
    "anisym_m2_plus": lambda: anisymmetric_basis(3, -2, 1, 4),
    "anisym_m2_minus": lambda: anisymmetric_basis(3, -2, -1, 4),
    "anisym_m3_plus": lambda: anisymmetric_basis(3, -3, 1, 4),
    "anisym_m3_minus": lambda: anisymmetric_basis(3, -3, -1, 4),
    "anisym_m1_minus_2": lambda: anisymmetric_basis(2, -1, -1, 6),
    "anisym_5_2_plus_1": lambda: anisymmetric_basis(1, Fraction(5, 2), 1, 6),
    "anisym_m5_plus_2": lambda: anisymmetric_basis(2, -5, 1, 6),
    "anisym_m3_plus_1": lambda: anisymmetric_basis(1, -3, 1, 6),
    "anisym_m1_minus_1": lambda: anisymmetric_basis(1, -1, -1, 5),
    "anisym_m7_plus_2": lambda: anisymmetric_basis(2, -7, 1, 6),
    "constant_231": lambda: constant_coefficient_basis((2, 3, 1), 5),
    "harmonic_module_4_5": lambda: harmonic_module_basis(4, 5),
    "sl_3_2_2": lambda: sl_module_basis(3, 2, 2),
    "sl_4_1_2": lambda: sl_module_basis(4, 1, 2),
    "g2_3": lambda: g2_module_basis(3),
}

GOLDEN = {
    "flag_2222": "7b12007e0d5c2f0d8ac32105c6cd5abcc7525dac6b3575904a8dd514e4d10bb3",
    "flag_m1_3_zero": "30a681c5b44575675e3c84b133616ef7ff539cf694e78083be32cbeba3834c07",
    "flag_gaussian": "f919d39623163b920f00d5a1961f6726b85ffef8d7f936176bd844f5e7808bef",
    "flag_first_order": "c0b237e7c123d97b245c00e53e2499a714ee7f37cc7d87a28ea0c1667a73018f",
    "flag_mixed_4": "0969700802f27d8a5ba15328f53cf72a6f622f8532b70f8bb75c1cd403bede35",
    "flag_deep": "99d9415ac2eee3361187631b67e0a2667d528a0e4de212e30b962ee50c950e8f",
    "constant_322": "b0109ccacf71bdddad430b2ed744942a154369acb0bf5fd57b2b4894a5f2e289",
    "harmonic_3": "15508dead90339595ce8d83b9068a4810fc19a0230157aaa928cd71741f6c309",
    "dissipative_2": "433dacb8512cf24c6b70d1f2a9fd13e2f1da43e7456e2a6fb9b95ecfceebebd6",
    "dissipative_3": "2f494b5ea848f3b4a6b260c4e826784926dd07538e34d2781fe8f1608bdedbef",
    "dissipative_1": "2c01d8801551a51a9f80830c64c030bd5b6d8a3b07d61bc2e7c81c5fda785721",
    "anisym_3_2_plus": "9eea69fd6f917141618c2c835d67d857587db6df728641e4c0ade2f714e39aff",
    "anisym_3_2_minus": "51b247fdc38302f6aa5f057f40e382c022b89d2d1d0d7fa5feaf9fabd72437fd",
    "anisym_m2_plus": "ac0b1f3051c900e6abc5863426b2a39be53a7433fc47cd8224eacd3665178fca",
    "anisym_m2_minus": "72ff283640cf9f13a3017b6db3fd224e8f1a4424784277e794253fd0f445dc94",
    "anisym_m3_plus": "d7e0d77ed10134702296db01c80c956d5dba6cfdbd99567edd18cadf05153ae2",
    "anisym_m3_minus": "7ee28ad6c0b8e14996ba72de9a37aa98b8c8d9a28eaa5ea6f30ebf883442d5d2",
    "anisym_m1_minus_2": "1cdca187aa52a1a7cc0e4c4b1e3845714832a1ef355080e82e54d282aa555849",
    "anisym_5_2_plus_1": "0b139af7635ed693cfef39cfa82192b43a389f5f1035ef26895d97fe79472470",
    "anisym_m5_plus_2": "7388b57115ba3ddf3fa8bb0e44c376e7b34e436972f66753d4617db78d5969f2",
    "anisym_m3_plus_1": "715f7e9a5b223c685c85be427bb024793183082946620bd7bdaa5872833902ed",
    "anisym_m1_minus_1": "8ac9f34c9d308690a8455f2accaae5c81528d339eb8498d6881b0b31c0f58166",
    "anisym_m7_plus_2": "86bf0516abac48165f77d4b2060df29015d5335bb50469a561e08bca98ceaff8",
    "constant_231": "00031a257ea4b416bc59f218a5851667192768af0597081bf119f68d145f3363",
    "harmonic_module_4_5": "d34a747e85727aa871d1db560c6ba760b198f35e1f9294666c8279c1304262df",
    "sl_3_2_2": "bd36031345288f7cc02d287451db4c62e32c17ff264788696059a2f48b81babc",
    "sl_4_1_2": "f06967fec1684303485e05a42ba586c4a21e01f8df29c337276392d2d6687b72",
    "g2_3": "b0c94bcc87de414e025fb4eee77c385ba41f7b03cdc005d4afed5083989d9ad5",
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_json_matches_golden_hash(name):
    payload = json.dumps(FAMILIES[name]().to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN[name]


# (coefficients, initial values, t, repr of y(t)); most t are not dyadic, so that
# a power of t computed another way changes some bits
ODE_GOLDEN = [
    ((0, -1), (1, 0), 1.0, "0.5403023058681398"),
    ((0, -400), (1, 0), 3.0, "-0.9524129804151563"),
    ((0, -100), (1, 0), 5.0, "0.9649660284921133"),
    ((1,), (1,), 2.0, "7.38905609893065"),
    ((-3,), (2,), 1.5, "0.022217993076484612"),
    ((0, 25), (1, -5), 2.0, "4.539992914942559e-05"),
    ((2, -5), (0, 1), 3.47, "9.811305335619096"),
    ((0, 0, -1), (1, 0, 0), 2.37, "-0.9789850884426456"),
    ((Fraction(1, 2), -3, Fraction(-2, 3)), (1, -1, Fraction(1, 2)), -1.29, "2.007601286204478"),
    ((0, 0, 0, -16), (1, 0, 0, 0), 1.73, "-4.468324836329188"),
    ((-1, -2, -3, -4), (1, 2, 3, 4), 3.91, "-15.241341648228646"),
    ((3, Fraction(-7, 3), 5, -11), (0, 1, -2, 3), 0.83, "0.9383975927872532"),
]


@pytest.mark.parametrize("coeffs, init, t, want", ODE_GOLDEN)
def test_constant_ode_value_matches_golden_repr(coeffs, init, t, want):
    assert repr(solve_constant_ode(OdeProblem(coeffs, init), t)) == want


D2, D3 = variable("D2"), variable("D3")

# half widths that are not powers of two, so that a reordered phase or
# amplitude computation changes some bits
FLAG_IVPS = {
    "heat": lambda: solve_flag_ivp(
        [D2 * D2], [TrigData((1.3,), {(1,): (1.0, 0.0), (2,): (0.0, 0.5)})],
        [(0.0, 0.25), (0.1, -0.4), (0.05, 0.8), (0.3, 1.1)]),
    "dalembert": lambda: solve_flag_ivp(
        [Polynomial.zero(("D2",)), D2 * D2],
        [TrigData((0.9,), {(6,): (1.0, 0.0), (1,): (0.25, -0.5)}),
         TrigData((0.9,), {(1,): (0.0, 2.0)})],
        [(1.0, 0.05), (1.0, -0.3), (0.8, 0.1), (0.37, 0.7)]),
    "third_order_2d": lambda: solve_flag_ivp(
        [D3, D2 * D2 + D3 * D3 - 1, Polynomial.zero(("D2", "D3")) + Fraction(1, 4)],
        [TrigData((1.1, 0.6), {(1, -1): (0.5, 0.25), (0, 1): (1.0, -1.0), (2, 1): (0.3, 0.0)}),
         TrigData((1.1, 0.6), {(0, 0): (0.75, 0.0), (1, -1): (-0.2, 0.4)}),
         TrigData((1.1, 0.6), {(2, 1): (0.0, 1.0), (0, 1): (0.6, 0.1)})],
        [(0.0, 0.1, 0.2), (0.3, -0.7, 0.4), (0.9, 0.5, -0.45), (0.3, 0.5, -0.45)]),
    "klein_gordon": lambda: solve_flag_ivp(
        [Polynomial.zero(("D2",)), D2 * D2 - Fraction(1, 4)],
        [TrigData((0.7,), {(3,): (1.0, 0.0), (1,): (-0.5, 0.25), (0,): (0.4, 0.0)}),
         TrigData((0.7,), {(1,): (0.0, 1.5), (2,): (0.3, -0.2)})],
        [(0.0, 0.15), (0.6, -0.35), (1.3, 0.2), (2.71, 0.55)]),
}

FLAG_GOLDEN = {
    "heat": ["0.6861662161629336", "-0.03426611440977853", "-0.22813529783782985",
             "0.0005138788597653719"],
    "dalembert": ["0.3619415911187419", "-0.4235229035830835", "0.03213790442374398",
                  "-0.11482821243174873"],
    "third_order_2d": ["-1.8905928574402449", "-0.10715183742227127", "0.15531103045404968",
                       "-0.17378517571334323"],
    "klein_gordon": ["-0.09101829079143497", "1.5805880823570684", "-0.13069346487097294",
                     "0.41863492886293713"],
}


@pytest.mark.parametrize("name", sorted(FLAG_IVPS))
def test_flag_ivp_values_match_golden_repr(name):
    assert [repr(v) for v in FLAG_IVPS[name]().values] == FLAG_GOLDEN[name]


# -- the tree wave IVP command -------------------------------------------------------

_WAVE_MODES = {
    "g0": {"modes": [{"k": [1, 1, 1], "cos": 0.8, "sin": 0.1}, {"k": [1, 0, 2], "cos": -0.3, "sin": 0.2}]},
    "g1": {"modes": [{"k": [1, 1, 1], "cos": 0.3}, {"k": [1, 0, 2], "sin": 0.25}]},
}

# (tree, data, t, grid); the half widths are not powers of two, so that a
# reordered phase, power or product changes some bits
TREE_WAVE_COMMANDS = {
    "chain3": ({"nodes": 3, "edges": [[1, 2], [2, 3]]}, {"halfWidths": [1.3, 0.9, 1.1], **_WAVE_MODES},
               "0.15", "2x2x2"),
    "star3": ({"nodes": 3, "edges": [[1, 2], [1, 3]]}, {"halfWidths": [1.3, 0.9, 1.1], **_WAVE_MODES},
              "0.15", "2x2x2"),
    # the 2-node case of the CI smoke test
    "ci_tree2": ({"nodes": 2, "edges": [[1, 2]]},
                 {"halfWidths": [1.0, 1.0], "g0": {"modes": [{"k": [1, 0], "cos": 1.0}]},
                  "g1": {"modes": [{"k": [0, 1], "sin": 0.5}]}}, "0.3", "3x3"),
}

TREE_WAVE_GOLDEN = {
    "chain3": "2e07f07f41c2d864f5f1232cb286d095e96e65a911c130f6705cc66afc846a54",
    "star3": "1f2a20a98d786d9108a75ad82f31d3bd36fb0661bfe6e5b31818e3cafd6c2305",
    "ci_tree2": "e72916a3c8e4875c74ad91bcba9779f6c2864444f71f938240423324f8c04bba",
}


@pytest.mark.parametrize("name", sorted(TREE_WAVE_COMMANDS))
def test_ivp_tree_wave_command_result_matches_golden_hash(name, tmp_path):
    tree, data, t, grid = TREE_WAVE_COMMANDS[name]
    tree_path, data_path, out = tmp_path / "tree.json", tmp_path / "data.json", tmp_path / "out.json"
    tree_path.write_text(json.dumps(tree))
    data_path.write_text(json.dumps(data))
    assert main(["ivp", "tree-wave", "--tree", str(tree_path), "--data", str(data_path), "--t", t,
                 "--grid", grid, "--out", str(out)]) == 0
    payload = json.dumps(json.loads(out.read_text())["result"], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == TREE_WAVE_GOLDEN[name]


# -- outputs whose serialization depends on the variable order ----------------------

def _poly_digest(*polys):
    """sha256 of the variable order and the serialized terms of each polynomial."""
    payload = json.dumps([[list(p.vars), p.to_json_terms()] for p in polys])
    return hashlib.sha256(payload.encode()).hexdigest()


def _power_wave():
    t, x = variable("t"), variable("x")
    return power_perturbation_solve(
        Derivative("t"), Integrate("t"), [Sum(()), Derivative("x", 2)], 2, t, x**4 - 3 * x**2)


def _power_mixed():
    t, x, y = variable("t"), variable("x"), variable("y")
    perturbations = [
        Sum((Compose(Scale(Fraction(3, 2)), Derivative("x")), Compose(Scale(-2), Derivative("y")))),
        Sum((Compose(Scale(Fraction(-1, 3)), Derivative("x", 2)),
             Compose(Scale(5), Derivative("x"), Derivative("y")))),
        Compose(Scale(Fraction(1, 4)), Derivative("y", 2)),
    ]
    g = 2 * x**5 * y - y**6 + Fraction(1, 2) * x**3 * y**3
    return power_perturbation_solve(Derivative("t"), Integrate("t"), perturbations, 3, t**2, g)


def _riemannian():
    z1, x2, x3 = variable("z1"), variable("x2"), variable("x3")
    g = {(2, 2): z1 + 1, (2, 3): Fraction(1, 2) * z1**2, (3, 3): constant(-1)}
    return riemannian_wave_solution(
        g, 3, variable("z0") ** 2, z1 ** 3, x2**3 * x3 - x3**2, x2 * x3**2 + 1)


def _kg(a, monomial):
    first, second = klein_gordon_solutions(a, monomial)
    return first.cos_part, first.sin_part, second.cos_part, second.sin_part


SOLVERS = {
    "kg_half_211": lambda: _kg(Fraction(1, 2), (2, 1, 1)),
    "kg_three_halves_302": lambda: _kg(Fraction(-3, 2), (3, 0, 2)),
    "kg_two_020": lambda: _kg(2, (0, 2, 0)),
    "power_wave": lambda: (_power_wave(),),
    "power_mixed": lambda: (_power_mixed(),),
    "riemannian_3": lambda: (_riemannian(),),
    "harmonic_element_4": lambda: (harmonic_element(4, 1, (2, 0, 3)),),
}

SOLVER_GOLDEN = {
    "kg_half_211": "b9851611fa16fa634e82c532429227fba1232fc05bcfd8fef3773ff85d77059a",
    "kg_three_halves_302": "b8adf966ceba5127437a563034053e21d5a735d3e709fbd70eb137174d16960f",
    "kg_two_020": "d8a9896095e4c96deb7dc8918d27c02e89de293c1331dc3366ff2e396cc10c4e",
    "power_mixed": "c50eecd4b722ac22c1ebc62bb23cbb73112f1f0cc07845f1a7720a2769430d1d",
    "power_wave": "cb7b5f9cfec33c37d7a8232f09edbdbe9321c71eebe1eb91e301e3b844563416",
    "riemannian_3": "28ec4d142f49988b68d036eea14d1c04dfa33d1f29c70eb396a6c502f46e4f9e",
    "harmonic_element_4": "ca7420b179cbcff620810e70eb34ada57ad119e4faffe83658420d0471311b5e",
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solver_output_matches_golden_hash(name):
    assert _poly_digest(*SOLVERS[name]()) == SOLVER_GOLDEN[name]


BASIS_COMMANDS = {
    "dissipative_n2": ["dissipative", "--n", "2", "--cap", "4"],
    "anisym_generic": ["anisym", "--n", "2", "--lambda", "3/2", "--cap", "4"],
    "anisym_generic_minus": ["anisym", "--n", "2", "--lambda=-5/2", "--epsilon", "-1", "--cap", "4"],
    "anisym_even": ["anisym", "--n", "2", "--lambda", "-2", "--cap", "4"],
    "anisym_odd": ["anisym", "--n", "2", "--lambda", "-3", "--cap", "4"],
    "anisym_odd_minus": ["anisym", "--n", "2", "--lambda", "-1", "--epsilon", "-1", "--cap", "4"],
}

BASIS_GOLDEN = {
    "anisym_even": "e3a614b3e6ccee9a023867e742dda50566a7027eae34830294aba3b94e21b098",
    "anisym_generic": "a7048881a7a113e2ff530f55981b65a3054d9f70433d61321b116b1d01d94790",
    "anisym_generic_minus": "db22fc71e5941e8c4c429aebcaf37e9ef255ff2b40f82fc53faac1225e5cb75d",
    "anisym_odd": "fa28ab3cebd6a230449bbd30548368d5a8cec37b7c03ef0bdecd5f32fe23f780",
    "anisym_odd_minus": "53ce3754c3ad5ad213e608a65d2a847d40bb42d756569bf3de7d29f3d94e2dfd",
    "dissipative_n2": "ee84bf02b1f6328ddefea326ed8bbb452db2f7e9d044c54ab45c14ca2853792b",
}


@pytest.mark.parametrize("name", sorted(BASIS_COMMANDS))
def test_basis_command_result_matches_golden_hash(name, tmp_path):
    out = tmp_path / "out.json"
    assert main(["basis", *BASIS_COMMANDS[name], "--out", str(out)]) == 0
    payload = json.dumps(json.loads(out.read_text())["result"], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == BASIS_GOLDEN[name]


# -- the tree splitting -------------------------------------------------------------

SPLITTING_GOLDEN = "dc9cfd57107913caf1d4ccb5e3b2ec9fe61e7577ef0e3e3d50bd3d100c372bc1"

# the 4-node tree of the CI smoke test
TREE_XI_GOLDEN = "3cd2e1ef5407caf5b0657d37c8b06bd8ae605dd0eecadc3ca6aba121e74be1d8"


def test_splitting_exponents_match_golden_hash():
    """Every exponent of every tree with at most five nodes, with its variables."""
    trees = [tree for n in range(1, 6) for tree in all_trees(n)]
    polys = [xi for tree in trees for xi in compute_splitting(tree).exponents]
    assert len(polys) == 153
    assert _poly_digest(*polys) == SPLITTING_GOLDEN


def test_tree_xi_command_result_matches_golden_hash(tmp_path):
    tree = tmp_path / "tree4.json"
    tree.write_text(json.dumps(Tree(4, [(1, 2), (2, 3), (2, 4)]).to_json()))
    out = tmp_path / "out.json"
    assert main(["tree", "xi", "--tree", str(tree), "--out", str(out)]) == 0
    payload = json.dumps(json.loads(out.read_text())["result"], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == TREE_XI_GOLDEN


# -- the commutation suite -------------------------------------------------------------

COMMUTATION_GOLDEN = [
    ("zeta invariant", True),
    ("contraction commutes with action", True),
    ("zeta multiplication law", True),
    ("eta invariant", True),
    ("laplacian reading", 1),
    ("g2 laplacian commutes with action", True),
    ("eta multiplication law", True),
    ("E3 = [E1,E2]", True),
    ("[E1,E3] = 2 E4", True),
    ("[E1,E4] = 3 E5", True),
    ("E6 = [E5,E2]", True),
    ("traceless", True),
    ("closure", True),
]

LIE_CHECK_GOLDEN = "ff63b7fc86c82bde090dd63f78716f1e4f075b686db336c07bc5d396953e7896"


@pytest.mark.parametrize("n_sl", (2, 3))
def test_commutation_checks_match_golden_items(n_sl):
    assert list(commutation_checks(n_sl).items()) == COMMUTATION_GOLDEN


@pytest.mark.parametrize("args", ([], ["--n", "2"]), ids=("default", "n2"))
def test_lie_check_command_result_matches_golden_hash(args, tmp_path):
    out = tmp_path / "out.json"
    assert main(["lie", "check", *args, "--out", str(out)]) == 0
    payload = json.dumps(json.loads(out.read_text())["result"], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == LIE_CHECK_GOLDEN


# -- singular vectors ----------------------------------------------------------------

def _sl_tops(n):
    return [(sl_singular_config(n), variable("x1") ** l1 * variable(f"y{n}") ** l2)
            for l1 in range(4) for l2 in range(4)]


SINGULAR_CASES = {
    "so": lambda: [(so_singular_config(n), so_highest_harmonic(n, k)) for n in range(3, 9) for k in range(5)],
    "sl2": lambda: _sl_tops(2),
    "sl3": lambda: _sl_tops(3),
    "g2": lambda: [(g2_singular_config(), variable("x4") ** k) for k in range(1, 5)],
    "failures": lambda: [
        # (x1 - i x2)^2 is the lowest weight vector of its so(5) module
        (so_singular_config(5),
         ((variable("x1") - IMAG * variable("x2")) ** 2).with_variables(tuple(f"x{i}" for i in range(1, 6)))),
        # killed by E12, but h1 scales x1 by 1 and x1 y2 by 2
        (sl_singular_config(2), variable("x1") + variable("x1") * variable("y2")),
    ],
}

SINGULAR_GOLDEN = {
    "so": "49fd72ae7084f88647b4b4fb994bb0e0982384d10ac65702759b694f211752c5",
    "sl2": "cfa0c0592f69d49e70e00d8faa234a1bdc483d65129d86407e8b595060eceb19",
    "sl3": "a44445c3409bb59cd83c452c0f2f5ac3cf19eac2a8836dafb3de435ae1e56022",
    "g2": "dd64333cb4003868f4e21e92f55303514dd66d7dc48c3c51dd68eb57d494c258",
    "failures": "ee6538fdbb914aecd01878b9819f5bb54b709d3060ca8dc2cab8a5e8a840588c",
}


@pytest.mark.parametrize("name", sorted(SINGULAR_CASES))
def test_verify_singular_matches_golden_hash(name):
    """ok, the repr of each weight, and each failure's name and residual
    digest, recorded while every call still built its own operators and
    read each weight off a Polynomial."""
    records = []
    for config, f in SINGULAR_CASES[name]():
        check = verify_singular(config, f)
        records.append([check.ok, None if check.weight is None else [repr(w) for w in check.weight],
                        [[op, _poly_digest(residual)] for op, residual in check.failures]])
    payload = json.dumps(records)
    assert hashlib.sha256(payload.encode()).hexdigest() == SINGULAR_GOLDEN[name]


LIE_SL_GOLDEN = "6720aa375c2d9600658ad30cd11dc23266150e2924d4887d9fe079aa289d2471"


def test_lie_sl_command_result_matches_golden_hash(tmp_path):
    out = tmp_path / "out.json"
    assert main(["lie", "sl", "--n", "3", "--l1", "2", "--l2", "1", "--out", str(out)]) == 0
    payload = json.dumps(json.loads(out.read_text())["result"], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == LIE_SL_GOLDEN


# -- the text form -------------------------------------------------------------------

# the Gaussian flag spec of the CI smoke test, with its cap
GAUSSIAN_SPEC = [
    [{"exp": {"x1": 1}, "re": "0", "im": "1"}, {"exp": {}, "re": "1"}],
    [{"exp": {"x1": 1, "x2": 1}, "re": "1"}, {"exp": {}, "re": "-1/2", "im": "1/3"}],
]


def _gaussian_spec():
    vs = ("x1", "x2", "x3")
    coeffs = tuple(Polynomial.from_json_terms(terms, vs) for terms in GAUSSIAN_SPEC)
    return flag_basis(FlagEquationSpec((2, 1, 2), coeffs, vs), 4)


TEXT_FAMILIES = [
    lambda: harmonic_basis(4, 9),
    _gaussian_spec,
    *(lambda lam=lam, eps=eps: anisymmetric_basis(3, lam, eps, 4)
      for lam in (Fraction(3, 2), -2, -3) for eps in (1, -1)),
    lambda: sl_module_basis(3, 2, 1),
    lambda: g2_module_basis(4),
]

TEXT_GOLDEN = "bd8f75f886881264f521fd42146892dca57edb4f38fd1d575d8a4b7772377b77"


def test_text_form_matches_golden_hash():
    """str and repr of every element, recorded before Polynomial kept its
    coefficients as integer numerators over one denominator (the g2 module
    was added before its elements came from the closed-form series builder):
    the JSON hashes above do not see __str__'s sign and 1* rules."""
    lines = [f"{e.solution}\t{e.solution!r}" for make in TEXT_FAMILIES for e in make().elements]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TEXT_GOLDEN
