"""Legendre and Jacobi symbols, one route each.

The Legendre symbol comes from Euler's criterion and the Jacobi symbol from
quadratic reciprocity, without factoring. Results are plain ints in
{-1, 0, +1}. The paper's other routes, Gauss's lemma and the Jacobi symbol
by definition, are test references in `oracle`.
"""

from __future__ import annotations

from .core import is_prime
from .errors import EvenModulus, NotOddPrime


def _check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion: a^((p-1)/2) mod p."""
    _check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n != 0, computed without factoring.

    Strips powers of two with the second supplement, swaps arguments with
    reciprocity and reduces; the sign of n is discarded since (a/n) = (a/|n|).
    """
    if n % 2 == 0:
        raise EvenModulus(f"modulus {n} must be odd and nonzero")
    n = abs(n)
    if n == 1:
        return 1
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
