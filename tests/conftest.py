import math


def primes_upto(limit: int) -> list[int]:
    """Simple sieve; the tests' own source of primes, independent of the library."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


def odd_primes_upto(limit: int) -> list[int]:
    return [p for p in primes_upto(limit) if p > 2]


def rn_poly(n: int, x: int, y: int) -> int:
    """The companion of vn_poly over odd j:
    (x+y)^(2n+1) + (x-y)^(2n+1) = 2x*vn_poly(n,x,y) + 4xy*rn_poly(n,x,y)."""
    return sum(
        math.comb(2 * n + 1, 2 * j) * x ** (2 * (n - j)) * y ** (2 * j - 1)
        for j in range(1, n + 1, 2)
    )
