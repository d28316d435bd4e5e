import pytest

from quadres.congruences import QuadCongruence
from quadres.errors import BudgetExceeded, NotOddPrime
from quadres.oracle import (
    SCAN_BUDGET,
    brute_legendre,
    brute_quadratic,
    brute_sqrt_mod,
    brute_two_squares,
    completing_square_quadratic,
    legendre_gauss_lemma,
    pigeonhole_rep_from_root,
)
from quadres.sqrtmod import sqrt_mod
from quadres.two_squares import has_primitive_representation, rep_from_root


def test_brute_sqrt_mod():
    assert brute_sqrt_mod(2, 9).residues == ()
    assert brute_sqrt_mod(61, 180).residues == (31, 41, 49, 59, 121, 131, 139, 149)
    assert brute_sqrt_mod(0, 4).residues == (0, 2)


def test_brute_quadratic():
    assert brute_quadratic(3, 7, -1, 15).residues == (4, 7)
    assert brute_quadratic(3, 7, -1, 1235).residues == (
        34, 72, 319, 502, 749, 787, 1022, 1034,
    )
    assert brute_quadratic(1, 0, 1, 2).residues == (1,)


def test_brute_two_squares():
    assert len(brute_two_squares(1)) == 4
    assert brute_two_squares(3) == []
    assert len(brute_two_squares(25)) == 12
    assert len(brute_two_squares(0)) == 1


def test_brute_legendre():
    assert brute_legendre(2, 7) == 1
    assert brute_legendre(2, 5) == -1
    assert brute_legendre(21, 7) == 0
    with pytest.raises(NotOddPrime):
        brute_legendre(2, 9)


def test_completing_square_matches_brute_force():
    # includes gcd(2a, n) > 1 and negative a, where a root t mod 4|a|n maps
    # back to X only when 2a divides t - b
    for n in range(1, 41):
        for a in range(-6, 7):
            if a % n == 0:
                continue
            for b in range(-3, 4):
                for c in range(-3, 4):
                    got = completing_square_quadratic(QuadCongruence(a, b, c, n))
                    assert got == brute_quadratic(a, b, c, n), (a, b, c, n)


def test_rep_from_root_matches_pigeonhole():
    for n in range(2, 2001):
        if not has_primitive_representation(n):
            continue
        for k in sqrt_mod(n - 1, n).residues:
            expected = pigeonhole_rep_from_root(k, n)
            for shifted in (k, k + n, k - n):
                assert rep_from_root(shifted, n) == expected, (shifted, n)


def test_budget():
    with pytest.raises(BudgetExceeded):
        brute_sqrt_mod(1, 10**6 + 1)
    with pytest.raises(BudgetExceeded):
        brute_quadratic(1, 0, -1, 10**7)
    with pytest.raises(BudgetExceeded):
        brute_two_squares(10**8)
    with pytest.raises(BudgetExceeded):
        pigeonhole_rep_from_root(1000, SCAN_BUDGET + 1)  # 1000^2 + 1 = 10^6 + 1
    with pytest.raises(BudgetExceeded):
        legendre_gauss_lemma(2, 1000003)
    with pytest.raises(BudgetExceeded):
        completing_square_quadratic(QuadCongruence(SCAN_BUDGET + 1, 1, 0, 7))
    # the scan runs mod 4|a|n: 4 * 250_001 is just over the budget
    assert 4 * 250_000 == SCAN_BUDGET
    at_budget = completing_square_quadratic(QuadCongruence(1, 0, -1, 250_000))
    assert at_budget == brute_quadratic(1, 0, -1, 250_000)
    with pytest.raises(BudgetExceeded):
        completing_square_quadratic(QuadCongruence(1, 0, -1, 250_001))
