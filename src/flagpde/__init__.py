"""Exact computer algebra for flag PDEs: operator-series solution families,
tree Tricomi operators with their heat-flow splitting, spectral initial
value solvers, and explicit Lie-algebra module bases.

Everything symbolic is exact (rationals or Gaussian rationals; the
exceptional algebra's generators are integer matrices in the coordinate
z = x1/sqrt(2)); floating point only enters the numeric IVP evaluators.
"""

__version__ = "0.1.0"

from .bases import (
    BasisElement,
    BasisFamily,
    FlagEquationSpec,
    constant_coefficient_basis,
    flag_basis,
    harmonic_basis,
    power_perturbation_solve,
    riemannian_to_tx,
    riemannian_wave_solution,
    twisted_flag_solve,
)
from .dissipative import (
    anisymmetric_basis,
    classify_lambda,
    dissipation_polynomial,
    dissipative_wave_basis,
    epd_transform,
    klein_gordon_solutions,
)
from .ivp import (
    OdeProblem,
    TrigData,
    generalized_exponential,
    ode_derivatives_at_zero,
    solve_constant_ode,
    solve_flag_ivp,
    solve_tree_heat_ivp,
    solve_tree_wave_ivp,
    solve_tree_wave_series,
)
from .lie import (
    commutation_checks,
    g2_module_basis,
    harmonic_module_basis,
    sl_module_basis,
    verify_singular,
)
from .operators import (
    Compose,
    DampedIntegration,
    Derivative,
    Integrate,
    MultiplyBy,
    NestedRightInverse,
    Scale,
    SeriesConfig,
    Sum,
    VerificationError,
    right_inverse_series,
    solve_by_series,
)
from .poly import (
    Fraction,
    GaussianRational,
    IMAG,
    Polynomial,
    TrigPolynomial,
    constant,
    variable,
)
from .trees import Tree, check_splitting, compute_splitting, evaluate_symbol, tricomi_operator
