"""Solvers for linear and quadratic congruences a*X^2 + b*X + c = 0 (mod n).

`solve_quadratic` picks its route from gcd(2a, n) alone. When it is 1, the
roots t of T^2 = b^2 - 4ac (mod n) map one to one onto the solutions.
Otherwise it completes the square: it solves T^2 = b^2 - 4ac modulo 4|a|n,
keeps the roots with t = b (mod 2|a|) and maps each back through a linear
congruence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ResidueSet, mod_inverse
from .errors import NotCoprime, NotQuadratic
from .sqrtmod import _square_roots_any


@dataclass(frozen=True)
class QuadCongruence:
    """The congruence a*X^2 + b*X + c = 0 (mod n) with a not vanishing mod n."""

    a: int
    b: int
    c: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("modulus must be at least 2")
        if self.a % self.n == 0:
            raise NotQuadratic(
                f"a = {self.a} vanishes mod {self.n}; use solve_linear instead"
            )

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def solve_linear(a: int, b: int, n: int) -> ResidueSet:
    """All x in [0, n) with a*x = b (mod n): empty unless gcd(a, n) | b,
    else exactly gcd(a, n) residues."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    a %= n
    b %= n
    g = math.gcd(a, n)
    if b % g != 0:
        return ResidueSet(n, ())
    if a == 0:
        return ResidueSet(n, tuple(range(n)))
    step = n // g
    if step == 1:
        x0 = 0
    else:
        x0 = (b // g) * mod_inverse(a // g, step) % step
    return ResidueSet(n, tuple(x0 + k * step for k in range(g)))


def solve_quadratic(q: QuadCongruence) -> ResidueSet:
    """Complete solution set of a*X^2 + b*X + c = 0 (mod n).

    Takes the coprime route (`solve_quadratic_coprime`, modulo n) when
    gcd(2a, n) = 1 and completes the square modulo 4|a|n otherwise.
    """
    if math.gcd(2 * q.a, q.n) == 1:
        return solve_quadratic_coprime(q)
    return _solve_by_completing_square(q)


def _solve_by_completing_square(q: QuadCongruence) -> ResidueSet:
    """Solution set for any gcd(2a, n).

    Completing the square gives (2aX + b)^2 = b^2 - 4ac (mod 4|a|n); each
    root t with 2|a| dividing t - b yields the solutions of the linear
    congruence 2aX = t - b (mod 4|a|n), reduced mod n.
    """
    a, b, n = q.a, q.b, q.n
    m = 4 * abs(a) * n
    two_a = 2 * abs(a)
    solutions = set()
    for t in _square_roots_any(q.discriminant, m).residues:
        if (t - b) % two_a != 0:
            continue
        for x in solve_linear(2 * a, t - b, m).residues:
            solutions.add(x % n)
    return ResidueSet(n, tuple(sorted(solutions)))


def solve_quadratic_coprime(q: QuadCongruence) -> ResidueSet:
    """Solution set when gcd(2a, n) = 1, working modulo n throughout.

    Roots t of T^2 = b^2 - 4ac (mod n) biject with solutions via
    x = ((n+1)/2) * a^(-1) * (t - b) mod n.
    """
    a, b, n = q.a, q.b, q.n
    if math.gcd(2 * a, n) != 1:
        raise NotCoprime(f"gcd(2*{a}, {n}) != 1")
    a_inv = mod_inverse(a, n)
    half = (n + 1) // 2
    roots = _square_roots_any(q.discriminant, n).residues
    solutions = sorted(half * a_inv * (t - b) % n for t in roots)
    return ResidueSet(n, tuple(solutions))
