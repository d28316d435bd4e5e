"""The library's domain: every refusal of a modulus, bound or zero argument is
a typed NumberTheoryError that is still a ValueError, and n = 1 is a modulus
everywhere, with the single residue 0."""

import re

import pytest

from quadres import core, diophantine, gaussian, oracle, sqrtmod, two_squares
from quadres.congruences import QuadCongruence, solve_linear
from quadres.core import ResidueSet
from quadres.errors import (
    BadParameters, DivisionByZero, NotARoot, NotQuadratic, ZeroArgument, ZeroOrUnit,
)
from quadres.gaussian import GaussianInt

# each refused call, evaluated as written, with the type and message it raises
REFUSALS = {
    "QuadCongruence(1, 1, 1, 0)": (BadParameters, "modulus must be positive"),
    "solve_linear(1, 1, 0)": (BadParameters, "modulus must be positive"),
    "sqrtmod.sqrt_mod(4, 0)": (BadParameters, "modulus must be positive"),
    "sqrtmod.is_quadratic_residue(4, -3)": (BadParameters, "modulus must be positive"),
    "diophantine.enumerate_primitive_triples(0)": (BadParameters, "r_max must be positive"),
    "diophantine.cz2_solvable(0)": (BadParameters, "c must be positive"),
    "diophantine.vn_poly(-1, 2, 1)": (BadParameters, "n must be nonnegative"),
    "diophantine.enumerate_quadruples(0)": (BadParameters, "w_max must be positive"),
    "two_squares.has_primitive_representation(-1)": (BadParameters, "n must be nonnegative"),
    "two_squares.count_representations(-1)": (BadParameters, "n must be nonnegative"),
    "two_squares.all_representations(-1)": (BadParameters, "n must be nonnegative"),
    "two_squares.rep_from_root(0, 1)": (BadParameters, "modulus must be at least 2"),
    "GaussianInt(1, 1) ** -1": (BadParameters, "exponent must be nonnegative"),
    "gaussian.div_rem(GaussianInt(1, 1), GaussianInt())": (
        DivisionByZero, "division by zero in Z(i)"
    ),
    "gaussian.canonical_associate(GaussianInt())": (ZeroArgument, "zero has no associates"),
    "core.crt_combine([ResidueSet(0, (0,))])": (BadParameters, "moduli must be positive"),
    "core.factorize(0)": (ZeroOrUnit, "0 has no prime factorization"),
    "oracle.brute_sqrt_mod(4, 0)": (BadParameters, "modulus must be positive"),
    "oracle.brute_quadratic(1, 0, -4, 0)": (BadParameters, "modulus must be positive"),
    "oracle.brute_two_squares(-1)": (BadParameters, "n must be nonnegative"),
    "oracle.pigeonhole_rep_from_root(0, 1)": (BadParameters, "modulus must be at least 2"),
    "oracle.pigeonhole_rep_from_root(2, 7)": (NotARoot, "2^2 != -1 (mod 7)"),
    "oracle.count_representations_by_divisors(-1)": (BadParameters, "n must be nonnegative"),
}


@pytest.mark.parametrize("call", list(REFUSALS))
def test_refusal_is_typed_and_still_a_value_error(call):
    kind, message = REFUSALS[call]
    with pytest.raises(kind, match=re.escape(message)) as info:
        eval(call)
    assert type(info.value) is kind and isinstance(info.value, ValueError)


def test_division_by_zero_is_also_a_zero_division_error():
    with pytest.raises(ZeroDivisionError):
        gaussian.div_rem(GaussianInt(3, 0), GaussianInt(0, 0))


def test_one_is_a_modulus_with_the_single_residue_zero():
    one = ResidueSet(1, (0,))
    assert sqrtmod.sqrt_mod(5, 1) == one
    assert solve_linear(7, 3, 1) == one
    assert oracle.brute_sqrt_mod(5, 1) == one
    assert oracle.brute_quadratic(3, 1, 1, 1) == one
    assert core.crt_combine([]) == one
    assert sqrtmod.is_quadratic_residue(3, 1) is True
    with pytest.raises(NotQuadratic):
        QuadCongruence(3, 1, 1, 1)
    # no x, y > 0 have x^2 + y^2 = 1
    with pytest.raises(BadParameters):
        two_squares.rep_from_root(0, 1)
    with pytest.raises(BadParameters):
        oracle.pigeonhole_rep_from_root(0, 1)
