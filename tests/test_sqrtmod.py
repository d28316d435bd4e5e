import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import odd_primes_upto, time_limit
from quadres import sqrtmod
from quadres.cli import main
from quadres.congruences import QuadCongruence, solve_quadratic
from quadres.core import Factorization, factorize
from quadres.errors import NotCoprime, NotOddPrime
from quadres.oracle import brute_sqrt_mod
from quadres.sqrtmod import is_quadratic_residue, sqrt_mod, sqrt_mod_prime
from quadres.symbols import jacobi


def test_sqrt_mod_prime_examples():
    assert sqrt_mod_prime(61, 13).residues == (3, 10)
    assert sqrt_mod_prime(2, 7).residues == (3, 4)
    for p in (5, 13, 97, 101):
        assert sqrt_mod_prime(1, p).residues == (1, p - 1)


def test_sqrt_mod_prime_nonresidue_empty():
    assert sqrt_mod_prime(2, 5).residues == ()
    assert sqrt_mod_prime(3, 7).residues == ()


def test_sqrt_mod_prime_errors():
    with pytest.raises(NotOddPrime):
        sqrt_mod_prime(1, 8)
    with pytest.raises(NotCoprime):
        sqrt_mod_prime(26, 13)


def test_sqrt_mod_prime_sweep():
    for p in odd_primes_upto(250):
        for a in range(1, p):
            got = sqrt_mod_prime(a, p).residues
            assert got == brute_sqrt_mod(a, p).residues, (a, p)
            assert len(got) in (0, 2)


# p - 1 = q * 2^s with s = 16, 20, 23, 30 and 32: the loop runs up to s - 1 rounds
HIGH_TWO_ADIC_PRIMES = {
    65537: 16,
    7340033: 20,
    998244353: 23,
    3 * 2**30 + 1: 30,
    2**64 - 2**32 + 1: 32,
}


def _two_adic_valuation(m):
    return (m & -m).bit_length() - 1


def _prime_in_class(sympy, start, mod, residue):
    p = start + (residue - start) % mod
    while not sympy.isprime(p):
        p += mod
    return p


def _residues_and_non_residues(sympy, p, rng):
    squares = [pow(rng.randrange(1, p), 2, p) for _ in range(6)]
    non_residues = []
    while len(non_residues) < 6:
        a = rng.randrange(1, p)
        if sympy.legendre_symbol(a, p) == -1:
            non_residues.append(a)
    return [1, p - 1, *squares, *non_residues]


def test_sqrt_mod_prime_matches_sympy_at_high_two_adic_valuation():
    sympy = pytest.importorskip("sympy")
    for p, s in HIGH_TWO_ADIC_PRIMES.items():
        assert sympy.isprime(p) and _two_adic_valuation(p - 1) == s, p
    # s = 1, s = 2 and s >= 8, near 10^18 and 10^30
    primes = [*HIGH_TWO_ADIC_PRIMES] + [
        _prime_in_class(sympy, start, mod, residue)
        for start in (10**18, 10**30)
        for mod, residue in ((4, 3), (8, 5), (256, 1))
    ]
    rng = random.Random(20)
    for p in primes:
        for a in _residues_and_non_residues(sympy, p, rng):
            expected = tuple(sorted(sympy.sqrt_mod(a, p, all_roots=True)))
            with time_limit(1):
                got = sqrt_mod_prime(a, p).residues
            assert got == expected, (a, p)
            assert len(expected) == (2 if sympy.legendre_symbol(a, p) == 1 else 0)


def test_sqrt_mod_prime_seeks_a_non_residue_only_when_the_loop_runs(monkeypatch):
    # p = 3 (mod 4) is the closed form, and Euler's criterion refuses a
    # non-residue before any search; else the search stops at the least one
    calls = []

    def counted(z, p):
        calls.append(p)
        return jacobi(z, p)

    monkeypatch.setattr(sqrtmod, "jacobi", counted)
    for p in [*odd_primes_upto(250), 65537, 998244353, 10**18 + 3, 10**18 + 9]:
        least = next(z for z in range(2, p) if jacobi(z, p) == -1)
        for a in range(1, min(p, 250)):
            calls.clear()
            roots = sqrt_mod_prime(a, p).residues
            t = pow(a, (p - 1) >> _two_adic_valuation(p - 1), p)
            if p % 4 == 3 or not roots or t == 1:
                assert calls == [], (a, p)
            else:
                assert calls == [p] * (least - 1), (a, p)


def test_lift_odd_prime_power_examples():
    assert sqrt_mod(7, 3**2).residues == (4, 5)
    assert sqrt_mod(2, 7**3).residues == (108, 235)
    for p, e in ((3, 3), (5, 2), (7, 4)):
        assert sqrt_mod(1, p**e).residues == (1, p**e - 1)
    assert sqrt_mod(2, 3**4).residues == ()


def test_lift_odd_prime_power_sweep():
    for p in (3, 5, 7, 11):
        for e in (1, 2, 3):
            pe = p**e
            for a in range(1, min(pe, 60)):
                if a % p == 0:
                    continue
                assert (
                    sqrt_mod(a, p**e).residues
                    == brute_sqrt_mod(a, pe).residues
                ), (a, p, e)


def test_sqrt_mod_2e():
    assert sqrt_mod(61, 2**2).residues == (1, 3)
    assert sqrt_mod(17, 2**3).residues == (1, 3, 5, 7)
    assert sqrt_mod(3, 2**3).residues == ()
    assert sqrt_mod(5, 2**1).residues == (1,)
    assert sqrt_mod(3, 2**2).residues == ()
    with pytest.raises(NotCoprime):
        sqrt_mod(4, 8)


def test_sqrt_mod_2e_sweep():
    for e in range(1, 9):
        m = 2**e
        for a in range(1, m, 2):
            got = sqrt_mod(a, 2**e).residues
            assert got == brute_sqrt_mod(a, m).residues, (a, e)
            if got:
                assert len(got) == (1 if e == 1 else 2 if e == 2 else 4)


def test_sqrt_mod_golden():
    assert sqrt_mod(61, 180).residues == (31, 41, 49, 59, 121, 131, 139, 149)
    assert len(sqrt_mod(61, 2340)) == 16
    assert sqrt_mod(2, 9).residues == ()
    assert jacobi(2, 9) == 1


def test_sqrt_mod_trivial_modulus():
    assert sqrt_mod(5, 1).residues == (0,)


def test_sqrt_mod_errors():
    with pytest.raises(NotCoprime):
        sqrt_mod(3, 9)
    with pytest.raises(ValueError):
        sqrt_mod(1, 0)


def _solution_count(n: int) -> tuple[int, int]:
    # (e0, number of odd prime divisors)
    e0 = 0
    while n % 2 == 0:
        n //= 2
        e0 += 1
    s = 0
    p = 3
    while p * p <= n:
        if n % p == 0:
            s += 1
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        s += 1
    return e0, s


def test_sqrt_mod_oracle_and_count_law():
    for n in range(1, 200):
        e0, s = _solution_count(n)
        expected = 2**s * (1 if e0 <= 1 else 2 if e0 == 2 else 4)
        for a in range(n):
            if math.gcd(a, n) != 1:
                continue
            got = sqrt_mod(a, n)
            assert got.residues == brute_sqrt_mod(a, n).residues, (a, n)
            if got.residues and n > 1:
                assert len(got) == expected, (a, n)
            for x in got:
                assert (n - x) % n in got


def test_sqrt_mod_structured_moduli():
    # higher prime powers and 2-power mixes than the dense sweep reaches
    mods = [2**e for e in range(1, 12)] + [625, 864, 1372, 2025, 3456, 3969, 4000]
    for n in mods:
        for a in range(1, min(n, 300)):
            if math.gcd(a, n) == 1:
                assert sqrt_mod(a, n).residues == brute_sqrt_mod(a, n).residues, (a, n)


def test_jacobi_is_necessary_but_not_sufficient():
    assert not is_quadratic_residue(2, 9)
    assert jacobi(2, 9) == 1
    for n in range(3, 250, 2):
        for a in range(n):
            if math.gcd(a, n) == 1 and is_quadratic_residue(a, n):
                assert jacobi(a, n) == 1


def test_is_quadratic_residue_examples():
    assert is_quadratic_residue(61, 180)
    assert not is_quadratic_residue(2, 9)
    for n in (1, 2, 9, 40, 180):
        assert is_quadratic_residue(1, n)
    with pytest.raises(NotCoprime):
        is_quadratic_residue(10, 15)


def test_is_quadratic_residue_matches_enumeration():
    for n in range(1, 200):
        for a in range(n):
            if math.gcd(a, n) == 1:
                assert is_quadratic_residue(a, n) == bool(sqrt_mod(a, n).residues)


@settings(deadline=None)
@given(
    st.integers(0, 4),
    st.lists(
        st.integers(6, 15).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
        min_size=2,
        max_size=4,
    ),
    st.booleans(),
    st.data(),
)
def test_is_quadratic_residue_matches_sqrt_mod_at_large_moduli(g, seeds, square, data):
    sympy = pytest.importorskip("sympy")
    primes = []
    for s in sorted(seeds):
        primes.append(sympy.nextprime(max(s, primes[-1]) if primes else s))
    known = Factorization(1, tuple(([(2, g)] if g else []) + [(p, 1) for p in primes]))
    n = known.value()
    x = 2 * data.draw(st.integers(0, n // 2 - 1)) + 1
    assume(math.gcd(x, n) == 1)
    a = x * x % n if square else x
    # rho would take about 10^7 steps on two 15-digit primes; the factorization
    # is known because the primes were chosen
    with mock.patch.object(sqrtmod, "factorize", lambda m: known if m == n else factorize(m)):
        assert is_quadratic_residue(a, n) == bool(sqrt_mod(a, n).residues), (a, n)


def test_sqrt_mod_hard_semiprime():
    # trial division alone would run to p, about 70 s
    p, q = 998244353, 1000000007
    with time_limit(1):
        roots = sqrt_mod(4, p * q).residues
    inv_q, inv_p = pow(q, -1, p), pow(p, -1, q)
    expected = sorted(
        (a * q * inv_q + b * p * inv_p) % (p * q) for a in (2, p - 2) for b in (2, q - 2)
    )
    assert list(roots) == expected


def test_empty_answers_at_deep_valuations(capsys):
    # X^2 = p^v * u with u a non-square unit has no root; the answer must not
    # cost p^(v/2) steps, as a loop over the lifts of an empty base would
    with time_limit(1):
        for v in (40, 2000):
            q = QuadCongruence(1, 0, -2 * 3**v, 3 ** (v + 1))
            assert solve_quadratic(q).residues == ()
        assert solve_quadratic(QuadCongruence(1, 0, -3 * 2**60, 2**62)).residues == ()
        code = main(["solve-quadratic", "1", "0", str(-2 * 3**40), "--mod", str(3**41)])
    assert code == 0 and capsys.readouterr().out == ""


def test_sqrt_mod_prime_square_modulus_near_1e32():
    # factorize splits p^2 as a perfect power; rho would need ~10^8 steps here
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(10**16)
    x = 123456789123456789
    with time_limit(1):
        roots = sqrt_mod(x * x, p * p)
    assert len(roots) == 2 and x % (p * p) in roots
    assert all((r * r - x * x) % (p * p) == 0 for r in roots)
