"""Legendre and Jacobi symbols, one route for both.

The Jacobi symbol comes from quadratic reciprocity, without factoring; it is
defined in `core`, whose Lucas primality test needs it. At an odd prime p it
is the Legendre symbol, so `legendre_euler` checks that p is an odd prime and
returns `jacobi(a, p)`. Results are plain ints in {-1, 0, +1}. The paper's
other routes, Euler's criterion, Gauss's lemma and the Jacobi symbol by
definition, are test references in `oracle`.
"""

from .core import is_prime, jacobi  # jacobi is re-exported from here
from .errors import NotOddPrime


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol (a/p), p an odd prime: the value that Euler's criterion
    a^((p-1)/2) = (a/p) (mod p) defines, computed by reciprocity."""
    _check_odd_prime(p)
    return jacobi(a, p)
