import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import odd_primes_upto
from quadres.errors import EvenModulus, NotCoprime, NotOddPrime
from quadres.oracle import jacobi_by_definition, legendre_euler_criterion, legendre_gauss_lemma
from quadres.symbols import jacobi, legendre_euler


def test_legendre_euler_examples():
    assert legendre_euler(2, 7) == 1
    assert legendre_euler(2, 5) == -1
    assert legendre_euler(13, 13) == 0


def test_legendre_euler_two_supplement():
    # (2/p) = +1 exactly for p = +-1 (mod 8)
    for p in odd_primes_upto(500):
        assert legendre_euler(2, p) == (1 if p % 8 in (1, 7) else -1)


@settings(deadline=None)
@given(
    st.sampled_from((18, 30, 60)).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
    st.data(),
)
def test_legendre_matches_euler_criterion_at_benchmark_magnitudes(x, data):
    # the benchmark's legendre requests use 30-digit primes
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(x)
    a = data.draw(st.one_of(st.integers(-2, 2).map(lambda k: k * p), st.integers(-2 * p, 2 * p)))
    assert legendre_euler(a, p) == legendre_euler_criterion(a, p)


def test_legendre_gauss_lemma_examples():
    assert legendre_gauss_lemma(-1, 13) == 1
    assert legendre_gauss_lemma(-1, 7) == -1
    assert legendre_gauss_lemma(3, 13) == 1


def test_legendre_rejects_bad_modulus():
    for fn in (legendre_euler, legendre_euler_criterion, legendre_gauss_lemma):
        for p in (2, 9, 15, 1, -7, 4, 2 * (10**30 + 57)):
            with pytest.raises(NotOddPrime):
                fn(2, p)
    with pytest.raises(NotCoprime):
        legendre_gauss_lemma(26, 13)


def test_jacobi_examples():
    assert jacobi(365, 1847) == 1
    assert jacobi(2, 9) == 1
    for a in (-3, 0, 1, 17):
        assert jacobi(a, 1) == 1
        assert jacobi_by_definition(a, 1) == 1
        assert jacobi_by_definition(a, -1) == 1


def test_jacobi_by_definition_examples():
    assert jacobi_by_definition(365, 1847) == 1
    assert jacobi_by_definition(2, 9) == 1
    assert jacobi_by_definition(4, 15) == 1


def test_jacobi_even_modulus_rejected():
    for n in (0, 2, -6, 100):
        with pytest.raises(EvenModulus):
            jacobi(1, n)
        with pytest.raises(EvenModulus):
            jacobi_by_definition(1, n)


def test_jacobi_negative_modulus():
    for a in range(-20, 21):
        for n in (3, 9, 15, 21, 45):
            assert jacobi(a, -n) == jacobi(a, n)


def test_jacobi_matches_definition_sweep():
    for n in range(3, 2001, 2):
        for a in range(-2000, 2001, 7):
            assert jacobi(a, n) == jacobi_by_definition(a, n), (a, n)


@given(st.integers(-10**6, 10**6), st.integers(1, 2000))
def test_jacobi_matches_definition_property(a, m):
    n = 2 * m + 1
    assert jacobi(a, n) == jacobi_by_definition(a, n)


def test_jacobi_zero_iff_common_factor():
    for n in range(3, 200, 2):
        for a in range(-50, 120):
            assert (jacobi(a, n) == 0) == (math.gcd(a, n) > 1)


def test_half_split():
    # exactly half of 1..p-1 are quadratic residues
    for p in odd_primes_upto(300):
        plus = sum(1 for a in range(1, p) if legendre_euler(a, p) == 1)
        assert plus == (p - 1) // 2


def test_multiplicativity():
    for n in (3, 9, 15, 35, 45, 99, 105):
        for a in range(-12, 13):
            for b in range(-12, 13):
                assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(1, 400))
def test_periodicity(a, k, m):
    n = 2 * m + 1
    assert jacobi(a, n) == jacobi(a + k * n, n)


def test_supplements():
    for n in range(1, 4000, 2):
        assert jacobi(-1, n) == (-1) ** ((n - 1) // 2)
        assert jacobi(2, n) == (-1) ** ((n * n - 1) // 8)


def test_reciprocity_odd_coprime():
    for m in range(1, 200, 2):
        for n in range(1, 200, 2):
            if math.gcd(m, n) == 1:
                expected = (-1) ** ((m - 1) // 2 * ((n - 1) // 2))
                assert jacobi(m, n) * jacobi(n, m) == expected


def test_euler_conjecture_classes():
    # (a/p) depends only on p mod 4|a|. Negated residue classes carry equal
    # values for a > 0 and opposite values for a < 0: the classical flip
    # statement holds only for negative a, e.g. (3/5) = (3/7) = -1 although
    # 5 = -7 (mod 12).
    primes = odd_primes_upto(3000)
    for a in (-7, -2, -1, 2, 3, 5, 6, 10, 15):
        m = 4 * abs(a)
        sign = 1 if a > 0 else -1
        classes: dict[int, int] = {}
        for p in primes:
            if a % p == 0:
                continue
            value = legendre_euler(a, p)
            r = p % m
            if r in classes:
                assert classes[r] == value, (a, p)
            else:
                classes[r] = value
        flips = 0
        for r, value in classes.items():
            opposite = (-r) % m
            if opposite in classes:
                assert classes[opposite] == sign * value, (a, r)
                flips += 1
        assert flips > 0


def test_odd_prime_characterization():
    # (q/p) = 1 iff p is congruent mod 4q to +-(an odd square)
    for q in (3, 5, 7, 11, 13):
        wanted = set()
        for k in range(1, q - 1, 2):
            wanted.add(k * k % (4 * q))
            wanted.add(-k * k % (4 * q))
        for p in odd_primes_upto(2000):
            if p == q:
                continue
            assert (legendre_euler(q, p) == 1) == (p % (4 * q) in wanted), (q, p)


def test_wilson():
    for p in odd_primes_upto(200):
        acc = 1
        for k in range(2, p):
            acc = acc * k % p
        assert acc == p - 1
