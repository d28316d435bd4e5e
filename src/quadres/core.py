"""Exact integer primitives: the 2-adic split, the Jacobi symbol, primality,
factorization, CRT.

All functions are pure and operate on Python's unbounded integers, so every
result is exact; there is no overflow to detect.
"""

import itertools
import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache
from operator import attrgetter

from .errors import BudgetExceeded, EvenModulus, NonCoprimeModuli, ZeroOrUnit, check_positive

# Miller-Rabin on the first 13 primes is deterministic below psi_13 (OEIS
# A014233; Sorenson and Webster, Math. Comp. 86, 2017); on 12, below 3.19e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Primality of n.

    Below 2^12 it is a lookup in the sieve that trial division uses. Below
    psi_13 = 3317044064679887385961981 the answer is deterministic:
    Miller-Rabin on the first 13 prime bases has no pseudoprime there. At or
    above psi_13 it is BPSW (Baillie-Wagstaff, Math. Comp. 35, 1980): a strong
    base-2 test, then a strong Lucas test with Selfridge's parameters. No
    BPSW pseudoprime is known, but none has been ruled out above 2^64.
    """
    if n < _TRIAL_BOUND:
        return n in _SMALL_PRIMES
    for p in _MR_BASES:
        if n % p == 0:
            return False
    if n < _PSI_13:
        return _miller_rabin(n, _MR_BASES)
    return (
        math.isqrt(n) ** 2 != n
        and _miller_rabin(n, (2,))
        and _strong_lucas_probable_prime(n)
    )


def _odd_part(m: int) -> tuple[int, int]:
    """(d, s) with m = d * 2^s and d odd, for m >= 1."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    """True when the odd n > 2 is a strong probable prime to every base."""
    d, s = _odd_part(n - 1)
    for a in bases:
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


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n != 0, computed without factoring.

    Strips powers of two with the second supplement, swaps arguments with
    reciprocity and reduces; the sign of n is discarded since (a/n) = (a/|n|).
    """
    if n % 2 == 0:
        raise EvenModulus(f"modulus {n} must be odd and nonzero")
    n = abs(n)
    a %= n
    result = 1
    while a != 0:
        # not _odd_part: a call per step here costs a third of jacobi's time
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of the odd non-square n > 2, Selfridge's method A.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4. With n + 1 = d * 2^s, d odd, n passes when U_d = 0 or
    V_(d*2^r) = 0 (mod n) for some 0 <= r < s.
    """
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = _odd_part(n + 1)
    # U_1 = 1, V_1 = P = 1; doubling: U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k;
    # stepping: U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2.
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u = (u + n if u % 2 else u) // 2
            v = (v + n if v % 2 else v) // 2
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


class Factorization(namedtuple("Factorization", "sign factors")):
    """A signed prime factorization: sign * prod(p**e), primes strictly increasing."""

    __slots__ = ()

    def value(self) -> int:
        return math.prod((p**e for p, e in self.factors), start=self.sign)


def _odd_primes_below(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    for p in range(3, math.isqrt(limit) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = bytes(len(range(p * p, limit, 2 * p)))
    return tuple(p for p in range(3, limit, 2) if sieve[p])


# Trial division covers every prime below 2^12, so the smooth moduli a caller
# builds by hand never reach rho, and a cofactor below 2^24 left by it is prime.
# It takes one gcd with the product of each block of 32 consecutive primes.
_TRIAL_BOUND = 1 << 12
_ODD_PRIMES = _odd_primes_below(_TRIAL_BOUND)
_SMALL_PRIMES = frozenset((2, *_ODD_PRIMES))
_PRIME_BLOCKS = tuple(
    (block, math.prod(block))
    for block in (_ODD_PRIMES[i : i + 32] for i in range(0, len(_ODD_PRIMES), 32))
)

# Brent's rho takes one gcd per _RHO_BATCH products of |x - y|. Balanced
# semiprimes near 10^24 need 0.11-6.4 M steps, five times fewer than the cap.
_RHO_BATCH = 128
_RHO_MAX_STEPS = 1 << 25


@lru_cache(maxsize=1 << 14)
def factorize(n: int) -> Factorization:
    """Factor a nonzero integer: trial division below 2^12, then Pollard-Brent rho.

    Powers of 2 are stripped. The odd primes below 2^12 are tried in blocks of
    32: one gcd of the cofactor with the block's product finds the primes of
    the block that divide it, and only those are divided out (Bernstein, "How
    to find smooth parts of integers", 2004). Trial division stops at the
    first block whose least prime p has p^2 above the cofactor. A cofactor
    left above 2^24 is tested with `is_prime`; a composite one is split as a
    perfect power r^k if it is one, else by Brent's rho, until every part is
    prime. Rho's cost grows as the square root of the second-largest prime
    factor: balanced semiprimes took milliseconds near 10^18, up to a few
    seconds near 10^24 and up to 20 s near 10^28. Past its step cap rho raises
    BudgetExceeded (see `_brent_rho`), as on a balanced 10^40 semiprime. A
    negative n reuses the cached factorization of -n.
    """
    if n == 0:
        raise ZeroOrUnit("0 has no prime factorization")
    if n < 0:
        return Factorization(-1, factorize(-n).factors)
    m, e = _odd_part(n)
    factors = []
    if e:
        factors.append((2, e))
    for block, product in _PRIME_BLOCKS:
        if block[0] * block[0] > m:
            break
        g = math.gcd(m, product)
        if g == 1:
            continue
        # g is the product of the block's primes that divide m
        for p in block:
            if g % p == 0:
                g //= p
                m //= p
                e = 1
                while m % p == 0:
                    m //= p
                    e += 1
                factors.append((p, e))
                if g == 1:
                    break
    if m < _TRIAL_BOUND**2:
        if m > 1:
            factors.append((m, 1))
        return Factorization(1, tuple(factors))
    large: dict[int, int] = {}
    pending = [(m, 1)]  # (cofactor, multiplicity)
    while pending:
        m, e = pending.pop()
        if is_prime(m):
            large[m] = large.get(m, 0) + e
        elif root := _perfect_power(m):
            pending.append((root[0], e * root[1]))
        else:
            d = _brent_rho(m)
            pending += ((d, e), (m // d, e))
    factors += sorted(large.items())
    return Factorization(1, tuple(factors))


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with m = r^k for the least prime k that gives one, or None.

    Only for m with no prime factor below 2^12: a k-th power is then at least
    (2^12 + 1)^k, so k < log2(m)/12 bounds the search. k = 2 is `math.isqrt`,
    larger k an integer Newton root. A composite exponent needs no test of
    its own: the root found for its least prime factor is tested again.
    (Bach and Sorenson, Algorithmica 9, 1993.)
    """
    bits = m.bit_length()
    for k in itertools.chain((2,), _ODD_PRIMES):
        if 12 * k >= bits:
            return None
        r = math.isqrt(m) if k == 2 else _integer_root(m, k)
        if r**k == m:
            return r, k
    return None


def _integer_root(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _brent_rho(n: int) -> int:
    """A nontrivial factor of the odd composite n, by Pollard-Brent rho.

    Iterates y -> y^2 + c mod n with Brent's cycle detection (BIT 20, 1980),
    taking one gcd per _RHO_BATCH products of |x - y|; when a batch's gcd is
    n it backtracks one step at a time, and if that still gives n it retries
    with the next c = 1, 2, ... Iterations over all c are counted, and a
    doubling round (2r iterations at most) that could take the count past
    _RHO_MAX_STEPS = 2^25 raises BudgetExceeded instead of starting. A
    40-digit n is refused after about 23 s on a 2 vCPU host; the time per
    step grows slowly with the size of n.
    """
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > _RHO_MAX_STEPS:
                raise BudgetExceeded(
                    f"factoring {n} by rho exceeds its budget of {_RHO_MAX_STEPS} steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            steps += r + k
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


class _Value:
    """Base of `GaussianInt`, `ResidueSet` and `QuadCongruence`: equality, hash,
    repr and pickling follow the tuple of a value's slots, in slot order, and
    values of two classes never compare equal. A subclass sets each field once,
    in `__init__`, through the slot's member descriptor (bound after the class,
    as `_set_<field>`); setting or deleting a field after that raises, and
    `__reduce__` lets pickle and copy rebuild a value through `__init__`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # every subclass has two or more slots, so the getter returns a tuple
        cls._values = property(attrgetter(*cls.__slots__))
        fields = ", ".join(f"{name}={{!r}}" for name in cls.__slots__)
        cls._repr = f"{cls.__name__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        kind = type(self).__name__
        raise AttributeError(f"{kind} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return self._repr.format(*self._values)

    def __reduce__(self):
        return type(self), self._values


class ResidueSet(_Value):
    """The complete, sorted set of incongruent solutions modulo `modulus`."""

    __slots__ = ("modulus", "residues")

    def __init__(self, modulus: int, residues: tuple[int, ...]) -> None:
        _set_modulus(self, modulus)
        _set_residues(self, residues)

    def __iter__(self):
        return iter(self.residues)

    def __len__(self) -> int:
        return len(self.residues)

    def __contains__(self, x: int) -> bool:
        return x % self.modulus in self.residues


_set_modulus, _set_residues = ResidueSet.modulus.__set__, ResidueSet.residues.__set__


def crt_combine(components: Iterable[ResidueSet]) -> ResidueSet:
    """Combine residue sets modulo pairwise coprime moduli into all residues
    mod the product; no components give the empty product, ResidueSet(1, (0,)).

    Every choice of one residue per component maps to exactly one residue
    x = sum(x_i * n_i * nbar_i) mod n, where n_i = n / m_i and nbar_i inverts
    n_i modulo m_i. The sums stay sorted in [0, n): a component's distinct
    terms t make |terms| sorted runs s + t in [0, 2n), which one sort merges,
    and those at or above n, less n, are merged back by a second sort. The
    map is a bijection and the terms are distinct, so the outputs are too.
    """
    components = tuple(components)
    mods = [comp.modulus for comp in components]
    check_positive("moduli", min(mods, default=1))
    for m1, m2 in itertools.combinations(mods, 2):
        if math.gcd(m1, m2) != 1:
            raise NonCoprimeModuli(f"moduli {m1} and {m2} are not coprime")
    n = math.prod(mods)
    sums = [0]
    for comp, m in zip(components, mods):
        w = n // m * pow(n // m, -1, m)
        terms = sorted({x * w % n for x in comp.residues})
        sums = [s + t for t in terms for s in sums]
        sums.sort()
        i = bisect_left(sums, n)
        if i < len(sums):
            sums[i:] = [s - n for s in sums[i:]]
            sums.sort()
    return ResidueSet(n, tuple(sums))
