"""Deliberately naive brute-force references used by tests and `verify`.

These share no code with the fast paths they validate: everything here is a
definition-level scan, capped by a fixed budget so a typo cannot hang the
process. `pigeonhole_rep_from_root` is the paper's own construction of a
sum of two squares from a root of X^2 = -1 (mod n), the reference for the
Euclidean descent in `two_squares.rep_from_root`.
"""

from __future__ import annotations

import math

from .core import ResidueSet, is_prime
from .errors import BudgetExceeded, NotARoot, NotOddPrime
from .two_squares import TwoSquareRep

SCAN_BUDGET = 10**6


def _check_budget(n: int) -> None:
    if n > SCAN_BUDGET:
        raise BudgetExceeded(f"oracle scan of {n} exceeds budget {SCAN_BUDGET}")


def brute_sqrt_mod(a: int, n: int) -> ResidueSet:
    """All x in [0, n) with x^2 = a (mod n), by full scan."""
    if n < 1:
        raise ValueError("modulus must be positive")
    _check_budget(n)
    return ResidueSet(n, tuple(x for x in range(n) if (x * x - a) % n == 0))


def brute_quadratic(a: int, b: int, c: int, n: int) -> ResidueSet:
    """All x in [0, n) with a*x^2 + b*x + c = 0 (mod n), by full scan."""
    if n < 1:
        raise ValueError("modulus must be positive")
    _check_budget(n)
    return ResidueSet(n, tuple(x for x in range(n) if (a * x * x + b * x + c) % n == 0))


def brute_two_squares(n: int) -> list[TwoSquareRep]:
    """All ordered signed (A, B) with A^2 + B^2 = n, by lattice scan."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_budget(n)
    reps = []
    r = math.isqrt(n)
    for a in range(-r, r + 1):
        rem = n - a * a
        b = math.isqrt(rem)
        if b * b == rem:
            for bb in {b, -b}:
                reps.append(TwoSquareRep(a, bb, math.gcd(a, bb) == 1))
    reps.sort(key=lambda rep: (rep.a, rep.b))
    return reps


def pigeonhole_rep_from_root(k: int, n: int) -> TwoSquareRep:
    """The unique (x, y) with x, y > 0, gcd(x, y) = 1, x^2 + y^2 = n and
    k*x = y (mod n), given a root k of X^2 = -1 (mod n), by Thue's lemma.

    Pigeonhole over the (isqrt(n)+1)^2 grid: two pairs collide on
    k*x - y mod n, and their difference, sign-normalized (swapping the
    coordinates when the signs disagree), is the representation.
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if (k * k + 1) % n != 0:
        raise NotARoot(f"{k}^2 != -1 (mod {n})")
    _check_budget(n)
    limit = math.isqrt(n)
    seen: dict[int, tuple[int, int]] = {}
    x0 = y0 = 0
    for x in range(limit + 1):
        kx = k * x % n
        hit = None
        for y in range(limit + 1):
            key = (kx - y) % n
            if key in seen:
                hit = seen[key]
                x0, y0 = x - hit[0], y - hit[1]
                break
            seen[key] = (x, y)
        if hit is not None:
            break
    if (x0 > 0) == (y0 > 0):
        a, b = abs(x0), abs(y0)
    else:
        a, b = abs(y0), abs(x0)
    return TwoSquareRep(a, b, True)


def brute_legendre(a: int, p: int) -> int:
    """Legendre symbol by searching for a square root of a modulo p."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    _check_budget(p)
    a %= p
    if a == 0:
        return 0
    for x in range(1, (p - 1) // 2 + 1):
        if x * x % p == a:
            return 1
    return -1
