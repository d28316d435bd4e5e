"""Reference routes used by tests and `verify`.

Each shares no algorithm with the production route it checks: the extended
Euclid (Bezout) route `ext_gcd` against the builtin `pow(., -1, m)` that
`core.crt_combine` and `congruences.solve_linear` call; the `brute_*`
definition-level scans; Euler's criterion, Gauss's lemma and the Jacobi
symbol by definition (it calls `factorize` and `legendre_euler_criterion`)
against reciprocity, which computes `symbols.legendre_euler` and
`core.jacobi`; r(n) by divisor sums against the exponent formula; the
paper's pigeonhole construction against the Euclidean descent in
`two_squares.rep_from_root`; and the paper's completing-square solver, which
scans for the roots modulo 4|a|n and maps each back by one exact division,
against the prime-power route of `congruences.solve_quadratic`. Every scan
that grows with n, p or |a| is capped by `SCAN_BUDGET`, so a typo cannot
hang the process.
"""

import math

from .congruences import QuadCongruence
from .core import ResidueSet, factorize
from .errors import BadParameters, BudgetExceeded, EvenModulus, NotARoot, NotCoprime
from .errors import check_nonnegative, check_positive
from .symbols import _check_odd_prime
from .two_squares import TwoSquareRep

SCAN_BUDGET = 10**6


def _check_budget(n: int) -> None:
    if n > SCAN_BUDGET:
        raise BudgetExceeded(f"oracle scan of {n} exceeds budget {SCAN_BUDGET}")


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, s, t) with g = gcd(|a|, |b|) and s*a + t*b = g.

    gcd(0, 0) is taken to be 0 with coefficients (0, 0).
    """
    if a == 0 and b == 0:
        return 0, 0, 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def brute_sqrt_mod(a: int, n: int) -> ResidueSet:
    """All x in [0, n) with x^2 = a (mod n), by full scan."""
    check_positive("modulus", n)
    _check_budget(n)
    return ResidueSet(n, tuple(x for x in range(n) if (x * x - a) % n == 0))


def brute_quadratic(a: int, b: int, c: int, n: int) -> ResidueSet:
    """All x in [0, n) with a*x^2 + b*x + c = 0 (mod n), by full scan."""
    check_positive("modulus", n)
    _check_budget(n)
    return ResidueSet(n, tuple(x for x in range(n) if (a * x * x + b * x + c) % n == 0))


def completing_square_quadratic(q: QuadCongruence) -> ResidueSet:
    """Solution set of a*X^2 + b*X + c = 0 (mod n) for any gcd(2a, n).

    Completing the square gives (2aX + b)^2 = b^2 - 4ac (mod 4|a|n). The
    roots t come from `brute_sqrt_mod`'s scan mod 4|a|n, so 4|a|n above
    `SCAN_BUDGET` is refused. Each root t with 2a dividing t - b maps back
    by one exact division: 2aX = t - b (mod 4|a|n) holds exactly when
    X = (t - b)/(2a) (mod 2n).
    """
    a, b, n = q.a, q.b, q.n
    two_a = 2 * a
    roots = brute_sqrt_mod(q.discriminant, 4 * abs(a) * n)
    solutions = {(t - b) // two_a % n for t in roots if (t - b) % two_a == 0}
    return ResidueSet(n, tuple(sorted(solutions)))


def brute_two_squares(n: int) -> list[TwoSquareRep]:
    """All ordered signed (A, B) with A^2 + B^2 = n, by lattice scan."""
    check_nonnegative("n", n)
    _check_budget(n)
    reps = []
    r = math.isqrt(n)
    for a in range(-r, r + 1):
        rem = n - a * a
        b = math.isqrt(rem)
        if b * b == rem:
            for bb in {b, -b}:
                reps.append(TwoSquareRep(a, bb, math.gcd(a, bb) == 1))
    reps.sort()
    return reps


def pigeonhole_rep_from_root(k: int, n: int) -> TwoSquareRep:
    """The unique (x, y) with x, y > 0, gcd(x, y) = 1, x^2 + y^2 = n and
    k*x = y (mod n), given a root k of X^2 = -1 (mod n), by Thue's lemma.

    Pigeonhole over the (isqrt(n)+1)^2 grid: two pairs collide on
    k*x - y mod n, and their difference, sign-normalized (swapping the
    coordinates when the signs disagree), is the representation.
    """
    if n < 2:
        raise BadParameters("modulus must be at least 2")
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
    _check_odd_prime(p)
    _check_budget(p)
    a %= p
    if a == 0:
        return 0
    for x in range(1, (p - 1) // 2 + 1):
        if x * x % p == a:
            return 1
    return -1


def legendre_euler_criterion(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion: a^((p-1)/2) mod p."""
    _check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def legendre_gauss_lemma(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Gauss's lemma.

    Counts how many of a, 2a, ..., ((p-1)/2)a have minimal residue in
    (-p/2, 0); the symbol is (-1) to that count.
    """
    _check_odd_prime(p)
    _check_budget(p)
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"gcd({a}, {p}) != 1")
    a %= p
    half = (p - 1) // 2
    s = sum(1 for k in range(1, half + 1) if k * a % p > half)
    return -1 if s % 2 else 1


def jacobi_by_definition(a: int, n: int) -> int:
    """Jacobi symbol as the product of Euler's criterion over the factorization of n.

    Independent of jacobi(); used as its cross-check oracle.
    """
    if n % 2 == 0:
        raise EvenModulus(f"modulus {n} must be odd and nonzero")
    result = 1
    for p, e in factorize(n).factors:
        s = legendre_euler_criterion(a, p)
        if s == 0:
            return 0
        if s == -1 and e % 2 == 1:
            result = -result
    return result


def count_representations_by_divisors(n: int) -> int:
    """r(n): ordered signed pairs with A^2 + B^2 = n, as 4*(d1 - d3) over
    the divisors of n congruent to 1 and 3 mod 4; r(0) = 1."""
    check_nonnegative("n", n)
    if n == 0:
        return 1
    divisors = [1]
    for p, e in factorize(n).factors:
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    d1 = sum(1 for d in divisors if d % 4 == 1)
    d3 = sum(1 for d in divisors if d % 4 == 3)
    return 4 * (d1 - d3)
