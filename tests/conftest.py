import contextlib
import math
import signal


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


def classification_grid() -> list[int]:
    """n = 2^g * 3^f * 5^e * 13^d for g, f in 0..3 and e, d in 0..2: 2 ramified,
    3 inert at odd and even exponents, 5 and 13 split; from n = 1 and n = 2
    up to 912,600, inside the oracle scans' budget."""
    return sorted(
        2**g * 3**f * 5**e * 13**d
        for g in range(4) for f in range(4) for e in range(3) for d in range(3)
    )


def odd_primes_upto(limit: int) -> list[int]:
    return [p for p in primes_upto(limit) if p > 2]


def rn_poly(n: int, x: int, y: int) -> int:
    """The companion of vn_poly over odd j:
    (x+y)^(2n+1) + (x-y)^(2n+1) = 2x*vn_poly(n,x,y) + 4xy*rn_poly(n,x,y)."""
    return sum(
        math.comb(2 * n + 1, 2 * j) * x ** (2 * (n - j)) * y ** (2 * j - 1)
        for j in range(1, n + 1, 2)
    )


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time have passed,
    so a call that hangs fails the test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
