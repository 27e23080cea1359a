"""Shared hypothesis strategies for exact polynomial tests."""

from hypothesis import strategies as st

from flagpde import GaussianRational, Polynomial


def coefficients():
    return st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


def gaussian_coefficients():
    """Nonzero Gaussian rationals, some with a zero imaginary part."""
    part = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.builds(GaussianRational, part, part).filter(bool)


@st.composite
def polynomials(draw, vars=("x", "y"), max_terms=6, max_exp=4, laurent=(), coeffs=None):
    n = len(vars)
    lo = -max_exp if laurent else 0
    exps = st.tuples(*(
        st.integers(lo if v in laurent else 0, max_exp) for v in vars
    ))
    if coeffs is None:
        coeffs = coefficients()
    terms = draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return Polynomial(vars, terms, laurent)
