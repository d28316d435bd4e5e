"""Exact integer primitives: gcd machinery, modular arithmetic, factorization, CRT.

All functions are pure and operate on Python's unbounded integers, so every
result is exact; there is no overflow to detect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonCoprimeModuli, NotInvertible

# Miller-Rabin on the first 13 primes is deterministic below psi_13 (OEIS
# A014233; Sorenson and Webster, Math. Comp. 86, 2017); on 12, below 3.19e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Miller-Rabin on fixed witnesses: deterministic below
    psi_13 = 3317044064679887385961981, a strong probable-prime test above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


def mod_inverse(a: int, n: int) -> int:
    """Multiplicative inverse of a modulo n, in [1, n)."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    g, s, _ = ext_gcd(a % n, n)
    if g != 1:
        raise NotInvertible(f"{a} is not invertible modulo {n}")
    return s % n


@dataclass(frozen=True)
class Factorization:
    """A signed prime factorization: sign * prod(p**e), primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out


@lru_cache(maxsize=1 << 14)
def factorize(n: int) -> Factorization:
    """Factor a nonzero integer by trial division (fine at desk scale, < 1e12)."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    sign = -1 if n < 0 else 1
    m = abs(n)
    factors = []
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    if e:
        factors.append((2, e))
    p = 3
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(sign, tuple(factors))


@dataclass(frozen=True)
class ResidueSet:
    """The complete, sorted set of incongruent solutions modulo `modulus`."""

    modulus: int
    residues: tuple[int, ...]

    def __iter__(self):
        return iter(self.residues)

    def __len__(self) -> int:
        return len(self.residues)

    def __contains__(self, x: int) -> bool:
        return x % self.modulus in self.residues


def crt_combine(components: list[ResidueSet] | tuple[ResidueSet, ...]) -> ResidueSet:
    """Combine residue sets modulo pairwise coprime moduli into all residues
    mod the product.

    Every choice of one residue per component maps to exactly one residue
    x = sum(x_i * n_i * nbar_i) mod n, where n_i = n / m_i and nbar_i inverts
    n_i modulo m_i. The sums are built in one pass: each component in turn
    extends every partial sum by each of its residues' terms.
    """
    if not components:
        raise ValueError("at least one component is required")
    mods = [comp.modulus for comp in components]
    for m1, m2 in itertools.combinations(mods, 2):
        if math.gcd(m1, m2) != 1:
            raise NonCoprimeModuli(f"moduli {m1} and {m2} are not coprime")
    n = math.prod(mods)
    basis = []
    for comp in components:
        ni = n // comp.modulus
        if comp.modulus == 1:
            basis.append(0)
        else:
            basis.append(ni * mod_inverse(ni, comp.modulus))
    sums = [0]
    for comp, w in zip(components, basis):
        sums = [s + x * w for s in sums for x in comp.residues]
    return ResidueSet(n, tuple(sorted({s % n for s in sums})))
