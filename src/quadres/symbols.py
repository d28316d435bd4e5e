"""Legendre and Jacobi symbols, one route each.

The Legendre symbol comes from Euler's criterion and the Jacobi symbol from
quadratic reciprocity, without factoring; the Jacobi symbol is defined in
`core`, whose Lucas primality test needs it. Results are plain ints in
{-1, 0, +1}. The paper's other routes, Gauss's lemma and the Jacobi symbol
by definition, are test references in `oracle`.
"""

from __future__ import annotations

from .core import is_prime, jacobi  # jacobi is re-exported from here
from .errors import NotOddPrime


def _check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion: a^((p-1)/2) mod p."""
    _check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r
