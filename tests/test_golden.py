"""Golden hashes of exact family outputs.

Each hash is the sha256 of ``json.dumps(family.to_json(), sort_keys=True)``.
They were recorded before the Horner nested inverse and the shared stage
prefixes replaced the quadratic loops, so a refactor of the exact core that
changes any coefficient, exponent, term order or index of these families
fails here.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from flagpde import (
    FlagEquationSpec,
    constant_coefficient_basis,
    dissipative_wave_basis,
    flag_basis,
    harmonic_basis,
    variable,
)
from flagpde.poly import IMAG

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
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_json_matches_golden_hash(name):
    payload = json.dumps(FAMILIES[name]().to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN[name]
