"""Exact-arithmetic number theory: quadratic congruences, residue symbols,
Gaussian integers, sums of two squares and Pythagorean triples/quadruples."""

from .core import (
    Factorization,
    ResidueSet,
    crt_combine,
    factorize,
    is_prime,
)
from .congruences import (
    QuadCongruence,
    solve_linear,
    solve_quadratic,
)
from .diophantine import (
    CZ2Solution,
    PythQuadruple,
    PythTriple,
    ZlSolution,
    cz2_solution,
    cz2_solvable,
    enumerate_primitive_triples,
    enumerate_quadruples,
    pyth_quadruple,
    pyth_triple,
    vn_poly,
    zl_solution,
)
from .gaussian import (
    GaussianFactorization,
    GaussianInt,
    associates,
    canonical_associate,
    div_rem,
    factor,
    format_gaussian,
    is_gaussian_prime,
    is_unit,
    norm,
    parse_gaussian,
)
from .gaussian import gcd as gaussian_gcd
from .sqrtmod import (
    is_quadratic_residue,
    sqrt_mod,
    sqrt_mod_prime,
)
from .symbols import jacobi, legendre_euler
from .two_squares import (
    TwoSquareRep,
    all_representations,
    count_representations,
    has_primitive_representation,
    is_sum_of_two_squares,
    primitive_representations,
    rep_from_root,
    represent_prime,
)

__version__ = "0.1.0"

__all__ = [
    "CZ2Solution",
    "Factorization",
    "GaussianFactorization",
    "GaussianInt",
    "PythQuadruple",
    "PythTriple",
    "QuadCongruence",
    "ResidueSet",
    "TwoSquareRep",
    "ZlSolution",
    "all_representations",
    "associates",
    "canonical_associate",
    "count_representations",
    "crt_combine",
    "cz2_solution",
    "cz2_solvable",
    "div_rem",
    "enumerate_primitive_triples",
    "enumerate_quadruples",
    "factor",
    "factorize",
    "format_gaussian",
    "gaussian_gcd",
    "has_primitive_representation",
    "is_gaussian_prime",
    "is_prime",
    "is_quadratic_residue",
    "is_sum_of_two_squares",
    "is_unit",
    "jacobi",
    "legendre_euler",
    "norm",
    "parse_gaussian",
    "primitive_representations",
    "pyth_quadruple",
    "pyth_triple",
    "rep_from_root",
    "represent_prime",
    "solve_linear",
    "solve_quadratic",
    "sqrt_mod",
    "sqrt_mod_prime",
    "vn_poly",
    "zl_solution",
]
