import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import classification_grid, primes_upto
from quadres.core import factorize
from quadres.errors import NotARoot, NotPrime, WrongResidueClass
from quadres.oracle import brute_two_squares, count_representations_by_divisors
from quadres.sqrtmod import sqrt_mod, sqrt_mod_prime
from quadres.two_squares import (
    TwoSquareRep,
    all_representations,
    count_representations,
    has_primitive_representation,
    is_sum_of_two_squares,
    primitive_representations,
    rep_from_root,
    represent_prime,
)


def test_is_sum_of_two_squares_examples():
    assert is_sum_of_two_squares(0)
    assert not is_sum_of_two_squares(21)
    assert is_sum_of_two_squares(45)
    with pytest.raises(ValueError):
        is_sum_of_two_squares(-1)


def test_is_sum_of_two_squares_matches_scan():
    for n in range(500):
        assert is_sum_of_two_squares(n) == bool(brute_two_squares(n)), n


def test_has_primitive_representation_examples():
    assert not has_primitive_representation(45)
    assert has_primitive_representation(50)
    assert not has_primitive_representation(4)


def test_has_primitive_representation_matches_scan():
    for n in [*range(1, 500), *classification_grid()]:
        exists = any(rep.primitive for rep in brute_two_squares(n))
        assert has_primitive_representation(n) == exists, n


def test_represent_prime_examples():
    assert (represent_prime(2).a, represent_prime(2).b) == (1, 1)
    assert (represent_prime(13).a, represent_prime(13).b) == (3, 2)
    assert (represent_prime(5).a, represent_prime(5).b) == (2, 1)


def test_represent_prime_errors():
    with pytest.raises(WrongResidueClass):
        represent_prime(7)
    with pytest.raises(NotPrime):
        represent_prime(9)


def test_represent_prime_sweep():
    for p in primes_upto(1500):
        if p != 2 and p % 4 == 3:
            continue
        rep = represent_prime(p)
        assert rep.a * rep.a + rep.b * rep.b == p
        assert rep.a >= rep.b > 0
        assert math.gcd(rep.a, rep.b) == 1


def test_rep_from_root_examples():
    rep = rep_from_root(2, 5)
    assert (rep.a, rep.b) == (1, 2)
    rep = rep_from_root(5, 13)
    assert (rep.a, rep.b) == (3, 2)
    rep = rep_from_root(12, 29)
    assert (rep.a, rep.b) == (5, 2)


def test_rep_from_root_rejects_non_roots():
    with pytest.raises(NotARoot):
        rep_from_root(3, 13)
    with pytest.raises(ValueError):
        rep_from_root(0, 1)


def test_rep_from_root_round_trip():
    for n in range(2, 500):
        if not has_primitive_representation(n):
            continue
        roots = sqrt_mod(n - 1, n).residues
        pairs = set()
        for k in roots:
            rep = rep_from_root(k, n)
            assert rep.a > 0 and rep.b > 0
            assert rep.a**2 + rep.b**2 == n
            assert math.gcd(rep.a, rep.b) == 1
            assert (k * rep.a - rep.b) % n == 0
            pairs.add((rep.a, rep.b))
        assert len(pairs) == len(roots)


# Primes p = 1 (mod 4) near 10^12, 10^18 and 10^24, below the 3.3e24 bound up
# to which is_prime is deterministic. A search over O(p) pairs cannot finish.
LARGE_PRIMES_1_MOD_4 = (
    10**12 + 61,
    1200000012361,
    10**18 + 9,
    1200000000000012413,
    10**24 + 49,
    1200000000000000000012413,
)


def test_represent_prime_large_magnitudes():
    t0 = time.perf_counter()
    for p in LARGE_PRIMES_1_MOD_4:
        rep = represent_prime(p)
        assert rep.a * rep.a + rep.b * rep.b == p
        assert rep.a >= rep.b > 0
        assert math.gcd(rep.a, rep.b) == 1
        for k in sqrt_mod_prime(p - 1, p).residues:
            rep = rep_from_root(k, p)
            assert rep.a * rep.a + rep.b * rep.b == p
            assert (k * rep.a - rep.b) % p == 0
    assert time.perf_counter() - t0 < 1.0


def test_lists_at_zero():
    assert all_representations(0) == brute_two_squares(0) == [TwoSquareRep(0, 0, False)]
    assert len(all_representations(0)) == count_representations(0) == 1
    assert primitive_representations(0) == []
    assert has_primitive_representation(0) is False
    for fn in (all_representations, primitive_representations, has_primitive_representation):
        with pytest.raises(ValueError):
            fn(-1)


def test_count_examples():
    assert count_representations(0) == 1
    assert count_representations(1) == 4
    assert count_representations(3) == 0
    assert count_representations(25) == 12
    assert count_representations(9) == 4
    assert count_representations(6) == 0
    with pytest.raises(ValueError):
        count_representations(-1)
    for p in primes_upto(1000):
        if p % 4 == 1:
            assert count_representations(p) == 8
            assert count_representations_by_divisors(p) == 8
    split = [p for p in primes_upto(1000) if p % 4 == 1]
    # omega = 16: the divisor sum walks 2^16 divisors
    n16 = math.prod(split[:16])
    assert count_representations(n16) == count_representations_by_divisors(n16) == 4 * 2**16
    # omega = 22: 4 * 2^22 from the exponents alone, no divisor walk
    n22 = math.prod(split[:22])
    t0 = time.perf_counter()
    assert count_representations(n22) == 4 * 2**22
    assert time.perf_counter() - t0 < 1.0


def test_count_triple_agreement():
    for n in [*range(1, 1500), *classification_grid()]:
        lattice = len(brute_two_squares(n))
        assert count_representations(n) == lattice, n
        assert count_representations_by_divisors(n) == lattice, n


def test_all_representations_examples():
    assert {(r.a, r.b) for r in all_representations(1)} == {
        (1, 0), (-1, 0), (0, 1), (0, -1)
    }
    assert all_representations(3) == []
    pairs = {(r.a, r.b) for r in all_representations(25)}
    assert pairs == {
        (3, 4), (3, -4), (-3, 4), (-3, -4),
        (4, 3), (4, -3), (-4, 3), (-4, -3),
        (0, 5), (0, -5), (5, 0), (-5, 0),
    }


def test_all_representations_sweep():
    for n in [*range(1, 800), *classification_grid()]:
        reps = all_representations(n)
        assert len(reps) == count_representations(n), n
        assert len({(r.a, r.b) for r in reps}) == len(reps)
        assert [(r.a, r.b) for r in reps] == sorted((r.a, r.b) for r in reps)
        for rep in reps:
            assert rep.a**2 + rep.b**2 == n
            assert rep.primitive == (math.gcd(rep.a, rep.b) == 1)
        assert reps == brute_two_squares(n)


def test_primitive_representations_examples():
    assert {(r.a, r.b) for r in primitive_representations(5)} == {(1, 2), (2, 1)}
    assert {(r.a, r.b) for r in primitive_representations(25)} == {(3, 4), (4, 3)}
    assert primitive_representations(12) == []
    assert primitive_representations(1) == [] and has_primitive_representation(1)


def test_primitive_representations_count_is_power_of_two():
    # n = 1 is 1^2 + 0^2 only: primitive, but not in the open first quadrant
    for n in [*range(2, 800), *classification_grid()[1:]]:
        reps = primitive_representations(n)
        for rep in reps:
            assert math.gcd(rep.a, rep.b) == 1
            assert rep.a > 0 and rep.b > 0
            assert rep.a**2 + rep.b**2 == n
        if has_primitive_representation(n):
            big = sum(1 for p, _ in factorize(n).factors if p % 4 == 1)
            assert len(reps) == 2**big, n
        else:
            assert reps == []


_SPLIT_PRIMES = [p for p in primes_upto(400) if p % 4 == 1]
_INERT_PRIMES = [q for q in primes_upto(100) if q % 4 == 3]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_SPLIT_PRIMES), min_size=3, max_size=6, unique=True),
       st.data(), st.sampled_from([1] + _INERT_PRIMES), st.integers(0, 6))
def test_all_representations_with_many_split_primes(primes, data, q, g):
    exps = data.draw(st.lists(st.integers(1, 3), min_size=len(primes), max_size=len(primes)))
    n = 2**g * q * q * math.prod(p**e for p, e in zip(primes, exps))
    reps = all_representations(n)
    assert len(reps) == count_representations_by_divisors(n) == 4 * math.prod(e + 1 for e in exps)
    pairs = [(r.a, r.b) for r in reps]
    assert pairs == sorted(set(pairs))
    for rep in reps:
        assert rep.a**2 + rep.b**2 == n
        assert rep.primitive == (math.gcd(rep.a, rep.b) == 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_SPLIT_PRIMES), min_size=3, max_size=6, unique=True),
       st.data(), st.integers(0, 1))
def test_primitive_representations_with_many_split_primes(primes, data, g):
    exps = data.draw(st.lists(st.integers(1, 3), min_size=len(primes), max_size=len(primes)))
    n = 2**g * math.prod(p**e for p, e in zip(primes, exps))
    reps = primitive_representations(n)
    assert len(reps) == 2 ** len(primes)
    assert reps == [r for r in all_representations(n) if r.primitive and r.a > 0 and r.b > 0]
    pairs = [(r.a, r.b) for r in reps]
    assert pairs == sorted(set(pairs))
    for rep in reps:
        assert rep.a > 0 and rep.b > 0 and rep.a**2 + rep.b**2 == n
        assert rep.primitive and math.gcd(rep.a, rep.b) == 1


def test_primitive_representations_factor_n_once():
    # has_primitive_representation and the enumeration read the same cached
    # factorization of n, even n included
    for n in (2 * 5 * 13 * 17 * 29, 5 * 13 * 17 * 29):
        factorize.cache_clear()
        assert len(primitive_representations(n)) == 16
        info = factorize.cache_info()
        assert (info.misses, info.hits) == (1, 1), n


def test_descent_for_inert_prime_divisors():
    # any representation of n with a prime p = 3 (mod 4) dividing n has p | gcd(x, y)
    for n in range(2, 800):
        for p, _ in factorize(n).factors:
            if p % 4 != 3:
                continue
            for rep in brute_two_squares(n):
                assert rep.a % p == 0 and rep.b % p == 0, (n, p)


@given(st.integers(-200, 200), st.integers(-200, 200),
       st.integers(-200, 200), st.integers(-200, 200))
def test_product_identity(a, b, c, d):
    lhs = (a * a + b * b) * (c * c + d * d)
    assert lhs == (a * c + b * d) ** 2 + (a * d - b * c) ** 2
    assert lhs == (a * c - b * d) ** 2 + (a * d + b * c) ** 2
