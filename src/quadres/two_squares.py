"""Representations n = A^2 + B^2: decidability, construction, counting, enumeration.

The constructive heart turns any root of X^2 = -1 (mod n) into the
primitive representation it classifies by Euclid's algorithm on (n, k),
in O(log n) steps (Brillhart 1972). The paper's own construction, a
pigeonhole search over O(n) pairs, is kept as a test reference in
`oracle.pigeonhole_rep_from_root`. r(n) is read off the exponents of n, and
enumeration runs through the Gaussian factorization of n, on (re, im) int
pairs; both, like `gaussian.factor`, read n's primes as ramified, inert or
split from `_split_factorization`.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .core import factorize, is_prime
from .errors import BadParameters, NotARoot, NotPrime, WrongResidueClass, check_nonnegative
from .sqrtmod import sqrt_mod_prime


class TwoSquareRep(namedtuple("TwoSquareRep", "a b primitive")):
    """An ordered signed pair with a^2 + b^2 = n; primitive means gcd(a, b) = 1."""

    __slots__ = ()


def is_sum_of_two_squares(n: int) -> bool:
    """True iff every prime p = 3 (mod 4) divides n to an even power."""
    return count_representations(n) > 0


def has_primitive_representation(n: int) -> bool:
    """True iff 4 does not divide n and no prime q = 3 (mod 4) divides n,
    read off `_split_factorization`; False at n = 0, since gcd(0, 0) = 0."""
    check_nonnegative("n", n)
    if n == 0:
        return False
    g, inert, _ = _split_factorization(n)
    return g <= 1 and not inert


def rep_from_root(k: int, n: int) -> TwoSquareRep:
    """The unique (x, y) with x, y > 0, gcd(x, y) = 1, x^2 + y^2 = n and
    k*x = y (mod n), given a root k of X^2 = -1 (mod n).

    Brillhart's descent: run Euclid's algorithm on (n, k mod n) and stop at
    the first remainder r with r^2 < n; then n - r^2 is a square s^2, and
    (r, s) is ordered so that k*x = y (mod n). (J. Brillhart, "Note on
    representing a prime as a sum of two squares", Math. Comp. 26, 1972;
    Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.5.2.)
    `oracle.pigeonhole_rep_from_root` is the paper's proof, kept as the
    reference this is tested against.
    """
    if n < 2:
        raise BadParameters("modulus must be at least 2")
    if (k * k + 1) % n != 0:
        raise NotARoot(f"{k}^2 != -1 (mod {n})")
    a, b = n, k % n
    while b * b > n:
        a, b = b, a % b
    r, s = b, math.isqrt(n - b * b)
    if (k * r - s) % n == 0:
        return TwoSquareRep(r, s, True)
    return TwoSquareRep(s, r, True)


@lru_cache(maxsize=1 << 12)
def represent_prime(p: int) -> TwoSquareRep:
    """The essentially unique p = a^2 + b^2 with a >= b > 0, for p = 2 or
    p = 1 (mod 4)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        return TwoSquareRep(1, 1, True)
    if p % 4 == 3:
        raise WrongResidueClass(f"{p} = 3 (mod 4) is not a sum of two squares")
    k = sqrt_mod_prime(p - 1, p).residues[0]
    rep = rep_from_root(k, p)
    return TwoSquareRep(max(rep.a, rep.b), min(rep.a, rep.b), True)


def _split_factorization(n: int):
    """(g, [(q, f), ...], [(p, e), ...]) with n = 2^g * prod q^f * prod p^e
    for n >= 1: each q = 3 (mod 4) stays prime in Z(i), each p = 1 (mod 4)
    splits, since (-1/p) = (-1)^((p-1)/2), and 2 ramifies. The one place a
    factorization is read by p mod 4."""
    g, inert, split = 0, [], []
    for p, e in factorize(n).factors:
        if p == 2:
            g = e
        else:
            (inert if p % 4 == 3 else split).append((p, e))
    return g, inert, split


def _powers(a: int, b: int, e: int) -> list[tuple[int, int]]:
    # (a + b*i)^k for k = 0..e
    out = [(1, 0)]
    for _ in range(e):
        x, y = out[-1]
        out.append((x * a - y * b, x * b + y * a))
    return out


def _times(values, parts):
    # every product v * w, v in values, w in parts
    return [(x * u - y * v, x * v + y * u) for x, y in values for u, v in parts]


def _unit_multiples(values):
    # w, i*w, -w, -i*w for each w
    return [w for x, y in values for w in ((x, y), (-y, x), (-x, -y), (y, -x))]


def count_representations(n: int) -> int:
    """r(n): ordered signed pairs with A^2 + B^2 = n, as 4 * prod(1 + e) over
    p = 1 (mod 4), zero when any q = 3 (mod 4) has odd exponent; r(0) = 1."""
    check_nonnegative("n", n)
    if n == 0:
        return 1
    _, inert, split = _split_factorization(n)
    if any(f % 2 for _, f in inert):
        return 0
    return 4 * math.prod(e + 1 for _, e in split)


def all_representations(n: int) -> list[TwoSquareRep]:
    """Every ordered signed (A, B) with A^2 + B^2 = n, sorted lexicographically.

    Enumerates unit choices and exponent splits e' + e'' = e over the
    Gaussian factorization of n; the list length equals r(n), so n = 0
    gives the one pair (0, 0).
    """
    check_nonnegative("n", n)
    if n == 0:
        return [TwoSquareRep(0, 0, False)]
    g, inert, split = _split_factorization(n)
    if any(f % 2 for _, f in inert):
        return []
    c = math.prod(q ** (f // 2) for q, f in inert)
    x, y = _powers(1, -1, g)[-1]
    values = [(c * x, c * y)]
    for p, e in split:
        rep = represent_prime(p)
        pows = _powers(rep.a, rep.b, e)
        # pi^e1 * pibar^(e - e1), with pibar^k the conjugate of pi^k
        parts = [(x * u + y * v, y * u - x * v) for (x, y), (u, v) in zip(pows, reversed(pows))]
        values = _times(values, parts)
    # the values are pairwise non-associate, so no pair repeats
    pairs = sorted(_unit_multiples(values))
    return [TwoSquareRep(a, b, math.gcd(a, b) == 1) for a, b in pairs]


def primitive_representations(n: int) -> list[TwoSquareRep]:
    """The primitive representations with x > 0 and y > 0, sorted.

    Exponents go entirely to one conjugate per split prime, so there are
    2^R of them (R = number of distinct primes p = 1 (mod 4) dividing n),
    counted as ordered positive pairs; n = 0 and n = 1 = 1^2 + 0^2 have none.
    """
    if not has_primitive_representation(n):
        return []
    g, _, split = _split_factorization(n)
    values = _powers(1, -1, g)[-1:]
    for p, e in split:
        rep = represent_prime(p)
        x, y = _powers(rep.a, rep.b, e)[-1]
        values = _times(values, ((x, y), (x, -y)))
    # one of the four associates of each value lies in the open first quadrant
    pairs = sorted((x, y) for x, y in _unit_multiples(values) if x > 0 and y > 0)
    return [TwoSquareRep(a, b, math.gcd(a, b) == 1) for a, b in pairs]
