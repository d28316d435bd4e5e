"""Solvers for linear and quadratic congruences a*X^2 + b*X + c = 0 (mod n).

`solve_quadratic` has one route for every a, b, c and n: prime power by
prime power, through the root finder in `sqrtmod`, joined by CRT. Its cost
follows the factorization of n and the number of roots, not the size of a.
"""

import math

from .core import ResidueSet, _Value
from .errors import NotQuadratic, check_positive
from .sqrtmod import _quadratic_roots


class QuadCongruence(_Value):
    """The congruence a*X^2 + b*X + c = 0 (mod n) with a not vanishing mod n."""

    __slots__ = ("a", "b", "c", "n")

    def __init__(self, a: int, b: int, c: int, n: int) -> None:
        check_positive("modulus", n)
        if a % n == 0:
            raise NotQuadratic(f"a = {a} vanishes mod {n}; use solve_linear instead")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_n(self, n)

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


_set_a, _set_b, _set_c, _set_n = (
    getattr(QuadCongruence, field).__set__ for field in QuadCongruence.__slots__
)


def solve_linear(a: int, b: int, n: int) -> ResidueSet:
    """All x in [0, n) with a*x = b (mod n): empty unless gcd(a, n) | b,
    else exactly gcd(a, n) residues."""
    check_positive("modulus", n)
    a %= n
    b %= n
    g = math.gcd(a, n)
    if b % g != 0:
        return ResidueSet(n, ())
    step = n // g
    x0 = b // g * pow(a // g, -1, step) % step
    return ResidueSet(n, tuple(range(x0, n, step)))


def solve_quadratic(q: QuadCongruence) -> ResidueSet:
    """Complete solution set of a*X^2 + b*X + c = 0 (mod n), for any gcd(2a, n),
    prime power by prime power (see `sqrtmod`)."""
    return _quadratic_roots(q.a, q.b, q.c, q.n)

