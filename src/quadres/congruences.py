"""Solvers for linear and quadratic congruences a*X^2 + b*X + c = 0 (mod n).

`solve_quadratic` picks its route from gcd(2a, n) alone. When it is 1, the
roots t of T^2 = b^2 - 4ac (mod n) map one to one onto the solutions.
Otherwise it completes the square: it solves T^2 = b^2 - 4ac modulo 4|a|n,
keeps the roots with t = b (mod 2|a|) and maps each back through a linear
congruence.

Square roots of an arbitrary d modulo m are found one prime power p^e at a
time and joined by CRT. With d reduced mod p^e and written d = p^v * u,
p not dividing u (the p-adic rule):

- d = 0: the roots are the multiples of p^ceil(e/2);
- v odd: there are no roots;
- v even: the roots are p^(v/2) * y, with y running over the roots of
  y^2 = u (mod p^(e-v)) taken mod p^(e-v/2). Those come from Hensel
  lifting, or from the 2^e ladder when p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CrtComponent, ResidueSet, crt_combine, factorize, mod_inverse
from .errors import NotCoprime, NotQuadratic
from .sqrtmod import lift_odd_prime_power, sqrt_mod_2e


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


def _prime_power_roots(d: int, p: int, e: int) -> tuple[int, ...]:
    """All roots of T^2 = d (mod p^e), sorted, by the p-adic rule."""
    pe = p**e
    d %= pe
    if d == 0:
        step = p ** ((e + 1) // 2)
        return tuple(step * j for j in range(p ** (e // 2)))
    u, v = d, 0
    while u % p == 0:
        u //= p
        v += 1
    if v % 2:
        return ()
    half = v // 2
    k = e - v
    base = sqrt_mod_2e(u, k) if p == 2 else lift_odd_prime_power(u, p, k)
    # y mod p^(e-half) is y mod p^k plus j*p^k; scaling by p^half keeps it below p^e
    scale, step = p**half, p**k
    return tuple(scale * (j * step + y) for j in range(scale) for y in base.residues)


def _square_roots_any(d: int, m: int) -> ResidueSet:
    """All roots of T^2 = d (mod m) with no coprimality assumption.

    Each prime power p^e of m gets its roots from the p-adic rule (see the
    module docstring); CRT joins them.
    """
    if m == 1:
        return ResidueSet(1, (0,))
    parts = []
    for p, e in factorize(m).factors:
        roots = _prime_power_roots(d, p, e)
        if not roots:
            return ResidueSet(m, ())
        parts.append(CrtComponent(p**e, roots))
    return crt_combine(parts)


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
