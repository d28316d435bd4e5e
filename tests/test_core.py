import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import primes_upto, time_limit
from quadres import core
from quadres.congruences import solve_linear
from quadres.core import (
    ResidueSet,
    _odd_part,
    crt_combine,
    factorize,
    is_prime,
)
from quadres.errors import (
    BudgetExceeded,
    NonCoprimeModuli,
    NotOddPrime,
    NotPrime,
)
from quadres.oracle import ext_gcd
from quadres.symbols import legendre_euler
from quadres.two_squares import represent_prime

# The smallest strong pseudoprimes to the first 12 and 13 prime bases
# (OEIS A014233), each a product of two primes near 10^12.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_ext_gcd_degenerate():
    assert ext_gcd(0, 0) == (0, 0, 0)


def test_ext_gcd_examples():
    g, s, t = ext_gcd(3, 1235)
    assert g == 1 and 3 * s + 1235 * t == 1
    assert s % 1235 == 412
    g, s, t = ext_gcd(12, 18)
    assert g == 6 and 12 * s + 18 * t == 6


@pytest.mark.parametrize("a", range(-10000, 10001, 1021))
@pytest.mark.parametrize("b", range(-10000, 10001, 947))
def test_ext_gcd_grid(a, b):
    g, s, t = ext_gcd(a, b)
    assert g == math.gcd(a, b)
    assert s * a + t * b == g


@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_ext_gcd_property(a, b):
    g, s, t = ext_gcd(a, b)
    assert g == math.gcd(a, b) >= 0
    assert s * a + t * b == g


# The modular inverse is the builtin pow(a, -1, n); solve_linear(a, 1, n)
# is the library's route to it, and oracle.ext_gcd its Bezout reference.
def test_mod_inverse_examples():
    assert solve_linear(3, 1, 1235).residues == (412,)
    assert solve_linear(20, 1, 9).residues == (5,)
    for n in (2, 7, 100, 1235):
        assert solve_linear(1, 1, n).residues == (1,)


def test_mod_inverse_errors():
    assert solve_linear(6, 1, 9).residues == ()
    assert solve_linear(1, 1, 1).residues == (0,)


@given(st.integers(-10**6, 10**6), st.integers(2, 10**4))
def test_mod_inverse_property(a, n):
    g, s, _ = ext_gcd(a % n, n)
    expected = (s % n,) if g == 1 else ()
    assert solve_linear(a, 1, n).residues == expected


def test_odd_part_matches_the_division_loop():
    def by_division(m):
        s = 0
        while m % 2 == 0:
            m //= 2
            s += 1
        return m, s

    cases = list(range(1, 4097))
    cases += [d << k for d in range(1, 100, 2) for k in range(301)]
    for m in cases:
        d, s = _odd_part(m)
        assert (d, s) == by_division(m), m
        assert d % 2 == 1


def test_factorize_examples():
    assert factorize(1).sign == 1 and factorize(1).factors == ()
    minus_one = factorize(-1)
    assert minus_one.sign == -1 and minus_one.factors == () and minus_one.value() == -1
    assert factorize(2340).factors == ((2, 2), (3, 2), (5, 1), (13, 1))
    f = factorize(-180)
    assert f.sign == -1 and f.factors == ((2, 2), (3, 2), (5, 1))
    assert f.value() == -180
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reassembles_and_lists_primes():
    for n in range(2, 3000):
        for m in (n, -n):
            f = factorize(m)
            assert f.value() == m
            assert all(is_prime(p) for p, _ in f.factors)
            assert all(e >= 1 for _, e in f.factors)
            assert list(f.factors) == sorted(f.factors)


def test_factorize_reassembles_full_range():
    for n in range(2, 100001):
        assert factorize(n).value() == n
    for n in range(2, 100001, 97):
        assert factorize(-n).value() == -n


@given(st.integers(2, 10**9))
def test_factorize_reassembles_property(n):
    assert factorize(n).value() == n


def test_is_prime_against_sieve():
    # both sides of the 2^12 bound below which is_prime is a lookup
    primes = set(primes_upto(1 << 14))
    for n in range(1 << 14):
        assert is_prime(n) == (n in primes), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_strong_pseudoprimes():
    # composites that fool Miller-Rabin for small base sets
    for n in (3215031751, 3825123056546413051, 341550071728321):
        assert not is_prime(n)
    # Carmichael numbers
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)


def test_psi12_is_composite():
    assert 399165290221 * 798330580441 == PSI_12
    assert is_prime(PSI_12) is False
    with pytest.raises(NotOddPrime):
        legendre_euler(2, PSI_12)
    with pytest.raises(NotPrime):
        represent_prime(PSI_12)


def test_psi13_is_composite_and_factors():
    assert is_prime(PSI_13) is False
    with time_limit(1):
        assert factorize(PSI_12).factors == ((399165290221, 1), (798330580441, 1))
    # rho takes about 1.8 M steps here, 0.8-0.9 s on a 2 vCPU host
    with time_limit(3):
        assert factorize(PSI_13).factors == ((1287836182261, 1), (2575672364521, 1))


def test_strong_lucas_pseudoprimes_below_1e5():
    # the odd composite non-squares passing the Selfridge strong Lucas test
    # (OEIS A217255); every odd prime passes
    primes = set(primes_upto(10**5))
    passing = [
        n
        for n in range(3, 10**5, 2)
        if math.isqrt(n) ** 2 != n and core._strong_lucas_probable_prime(n)
    ]
    assert [n for n in passing if n not in primes] == [
        5459, 5777, 10877, 16109, 18971, 22499,
        24569, 25199, 40309, 58519, 75077, 97439,
    ]
    assert primes - {2} <= set(passing)


def _chernick_carmichael(k: int) -> int:
    """(6k+1)(12k+1)(18k+1) for the first k >= the given one with all three prime."""
    from sympy import isprime

    while not all(isprime(m * k + 1) for m in (6, 12, 18)):
        k += 1
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def test_is_prime_matches_sympy_above_psi13():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    for _ in range(3000):
        n = rng.randrange(10**20, 10**60) | 1
        assert is_prime(n) == sympy.isprime(n), n
    p = sympy.nextprime(PSI_13)
    assert is_prime(p) and is_prime(p * p) is False
    assert is_prime(_chernick_carmichael(10**8)) is False


def test_factorize_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(9)

    def prime(lo, hi):
        return sympy.nextprime(rng.randrange(lo, hi))

    cases = [
        4093 * 4099, 4099 * 4099, 4093**2 * 4099 * 4111, 4091 * 4093 * 4099 * 4111,
        4093**3 * 4099**3, 2**5 * 4079 * 4091 * 4093 * 4099 * 4111 * 4127,
        561, 1105, 1729, 41041, 825265, 3215031751,
    ]
    cases += [_chernick_carmichael(k) for k in (10**3, 10**5, 10**7, 5 * 10**8)]
    for digits in (6, 6, 9, 9, 12):
        cases.append(prime(10**digits, 3 * 10**digits) * prime(10**digits, 3 * 10**digits))
    for hi in (10**5, 10**8, 10**10):
        p = prime(4097, hi)
        cases += [p * p, p**3, 4093 * p * p, p * p * prime(4097, hi)]
    for _ in range(30):
        n = math.prod(prime(3, 10**rng.randrange(1, 6)) for _ in range(rng.randrange(1, 3)))
        cases.append(n * prime(10**9, 10**rng.randrange(10, 20)))
    assert max(cases) < 10**30
    for n in cases:
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def _perfect_power_cases(sympy):
    cases = [
        sympy.nextprime(base) ** k for base in (10**10, 10**16, 10**30) for k in range(2, 6)
    ]
    return cases + [sympy.nextprime(10**10) ** 2 * sympy.nextprime(10**8)]


def test_factorize_splits_perfect_powers_without_rho_time():
    sympy = pytest.importorskip("sympy")
    for n in _perfect_power_cases(sympy):
        with time_limit(1):
            f = factorize(n)
        assert dict(f.factors) == sympy.factorint(n), n


def test_rho_never_starts_on_a_perfect_power(monkeypatch):
    sympy = pytest.importorskip("sympy")
    calls = []
    rho = core._brent_rho
    monkeypatch.setattr(core, "_brent_rho", lambda m: calls.append(m) or rho(m))
    *powers, mixed = _perfect_power_cases(sympy)
    for n in powers:
        core.factorize.__wrapped__(n)
    assert calls == []
    core.factorize.__wrapped__(mixed)
    assert calls and not any(sympy.perfect_power(m) for m in calls)


def test_integer_root_is_the_floor_root():
    for k in (3, 5, 7, 13):
        for m in [*range(1, 3000), 10**40 - 1, 10**40, 10**40 + 1, (10**9 + 7) ** k]:
            r = core._integer_root(m, k)
            assert r**k <= m < (r + 1) ** k, (m, k)


def test_factorize_refuses_above_the_rho_step_cap(monkeypatch):
    n = 999999999989 * 1000000000039
    monkeypatch.setattr(core, "_RHO_MAX_STEPS", 1 << 12)
    with time_limit(1), pytest.raises(BudgetExceeded, match="budget"):
        factorize(n)


def test_factorize_negative_reuses_the_cache_for_n(monkeypatch):
    # -n differs from n only in sign, so factoring it right after n starts no rho
    calls = []
    rho = core._brent_rho
    monkeypatch.setattr(core, "_brent_rho", lambda m: calls.append(m) or rho(m))
    n = 10007 * 10009
    factorize.cache_clear()
    assert factorize(n).factors == ((10007, 1), (10009, 1))
    assert calls == [n]
    f = factorize(-n)
    assert f.sign == -1 and f.factors == ((10007, 1), (10009, 1))
    assert calls == [n]


def test_prime_blocks_cover_the_trial_primes_in_order():
    blocks = [block for block, _ in core._PRIME_BLOCKS]
    assert [p for block in blocks for p in block] == list(core._ODD_PRIMES)
    assert {len(block) for block in blocks[:-1]} == {32} and 0 < len(blocks[-1]) <= 32
    assert all(product == math.prod(block) for block, product in core._PRIME_BLOCKS)


def _block_gcds(monkeypatch):
    # records the gcds that factorize takes with a block product
    products = {product for _, product in core._PRIME_BLOCKS}
    calls = []

    def gcd(*args):
        if args[-1] in products:
            calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(core, "math", SimpleNamespace(**{**vars(math), "gcd": gcd}))
    return calls


def test_factorize_takes_one_gcd_per_block(monkeypatch):
    calls = _block_gcds(monkeypatch)
    n = 999983 * 1000003
    assert core.factorize.__wrapped__(n).factors == ((999983, 1), (1000003, 1))
    assert len(calls) == len(core._PRIME_BLOCKS) == 18 < len(core._ODD_PRIMES) == 563


def test_factorize_of_small_n_takes_one_block(monkeypatch):
    # below 139^2, the square of the second block's least prime, trial
    # division stops after the first block
    calls = _block_gcds(monkeypatch)
    for n in (2, 3 * 5 * 7, 137 * 139, 19321 - 2, 4093, 2 * 4099):
        calls.clear()
        assert core.factorize.__wrapped__(n).value() == n
        assert len(calls) <= 1, n


def _block_edge_cases():
    blocks = [block for block, _ in core._PRIME_BLOCKS]
    below, above = 16777213, 16777259  # the primes next to 2^24
    cases = [1, 4093, 4093**2, 4093 * 4099, 4093**3 * 4099, 4091 * 4093 * 4099]
    cases += [2**k for k in (1, 2, 31, 32, 100)]
    for left, right in zip(blocks, blocks[1:]):
        p, q = left[-1], right[0]
        cases += [p * q, p * p, q * q, 3 * p * q, 2**7 * p**2 * q, p * q * below]
    for block in blocks:
        p, q = block[0], block[-1]
        cases += [p**5, p * q, p**2 * q**3, p * block[len(block) // 2] * q]
    for c in (below, above, 4093 * 4099, 4099 * 4111):
        cases += [c, 3 * c, 2**5 * 4093 * c, 139 * 4093 * c, 3**4 * c * c]
    return cases


def test_factorize_at_block_edges_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in _block_edge_cases():
        f = factorize(n)
        assert f.sign == 1 and f.factors == tuple(sorted(sympy.factorint(n).items())), n
        assert factorize(-n) == core.Factorization(-1, f.factors), n


def test_factorize_block_edge_golden():
    assert factorize(1) == core.Factorization(1, ())
    assert factorize(-1) == core.Factorization(-1, ())
    assert factorize(2**100).factors == ((2, 100),)
    assert factorize(-(2**31)) == core.Factorization(-1, ((2, 31),))
    assert factorize(4093).factors == ((4093, 1),)
    assert factorize(4093**2).factors == ((4093, 2),)
    assert factorize(4093 * 4099).factors == ((4093, 1), (4099, 1))
    # 137 ends the first block and 139 starts the second
    assert factorize(137 * 139).factors == ((137, 1), (139, 1))
    assert factorize(-(2**3) * 137**2 * 139).factors == ((2, 3), (137, 2), (139, 1))
    # 3 * 5 * 7 share the first block; 16777213 < 2^24 < 16777259 are prime
    assert factorize(3**4 * 5 * 7**2).factors == ((3, 4), (5, 1), (7, 2))
    assert factorize(3 * 16777213).factors == ((3, 1), (16777213, 1))
    assert factorize(4093 * 16777259).factors == ((4093, 1), (16777259, 1))
    assert factorize(3 * 4099 * 4111).factors == ((3, 1), (4099, 1), (4111, 1))


def test_is_prime_matches_sympy_below_psi13():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240613)
    for _ in range(5000):
        n = rng.randrange(10**20, 3 * 10**24) | 1
        assert n < PSI_13
        assert is_prime(n) == sympy.isprime(n), n


def test_crt_combine_example_mod_180():
    rs = crt_combine(
        [ResidueSet(4, (1, 3)), ResidueSet(9, (4, 5)), ResidueSet(5, (1, 4))]
    )
    assert rs.modulus == 180
    assert rs.residues == (31, 41, 49, 59, 121, 131, 139, 149)


def test_crt_combine_example_mod_1235():
    rs = crt_combine(
        [ResidueSet(5, (1, 4)), ResidueSet(13, (3, 10)), ResidueSet(19, (2, 17))]
    )
    assert rs.modulus == 1235
    assert rs.residues == (36, 211, 439, 549, 686, 796, 1024, 1199)


def test_crt_combine_single_component():
    assert crt_combine([ResidueSet(7, (2,))]).residues == (2,)


def test_crt_combine_errors():
    with pytest.raises(NonCoprimeModuli):
        crt_combine([ResidueSet(4, (1,)), ResidueSet(6, (1,))])
    assert crt_combine([]) == ResidueSet(1, (0,))
    with pytest.raises(ValueError):
        crt_combine([ResidueSet(-7, (2,)), ResidueSet(5, (1,))])
    with pytest.raises(ValueError):
        crt_combine([ResidueSet(0, (0,))])


def test_crt_combine_takes_any_iterable():
    comps = [ResidueSet(5, (1, 4)), ResidueSet(7, (3,))]
    expected = ResidueSet(35, (24, 31))
    assert crt_combine(comps) == expected
    assert crt_combine(c for c in comps) == expected
    assert crt_combine(iter(comps)) == expected
    assert crt_combine(c for c in []) == ResidueSet(1, (0,))


def _crt_by_reduction(components):
    """The reference CRT: every sum in full, each reduced mod n, then a set."""
    mods = [comp.modulus for comp in components]
    if min(mods, default=1) < 1:
        raise ValueError(f"moduli must be positive, got {min(mods)}")
    for m1, m2 in itertools.combinations(mods, 2):
        if math.gcd(m1, m2) != 1:
            raise NonCoprimeModuli(f"moduli {m1} and {m2} are not coprime")
    n = math.prod(mods)
    basis = [n // m * pow(n // m, -1, m) for m in mods]
    sums = [0]
    for comp, w in zip(components, basis):
        sums = [s + x * w for s in sums for x in comp.residues]
    return ResidueSet(n, tuple(sorted({s % n for s in sums})))


@st.composite
def _coprime_components(draw):
    """1-5 components on pairwise coprime moduli from {1, 2^e, 3^e, 5^e, small
    primes}; residue tuples may be empty, unreduced, negative or repeated."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]),
                           max_size=5, unique=True))
    mods = [p ** draw(st.integers(1, 6 if p == 2 else 4 if p in (3, 5) else 1)) for p in primes]
    mods += [1] * draw(st.integers(0 if mods else 1, 5 - len(mods)))
    sizes = [draw(st.integers(1, 3)) for _ in mods]
    if draw(st.integers(0, 9)) == 0:  # about one example in ten has no residues
        sizes[0] = 0
    return [
        ResidueSet(m, tuple(draw(st.lists(st.integers(-3 * m, 3 * m), min_size=k, max_size=k))))
        for m, k in zip(mods, sizes)
    ]


@settings(deadline=None)
@given(_coprime_components())
def test_crt_combine_matches_the_reduction_reference(comps):
    expected = _crt_by_reduction(comps)
    for order in itertools.permutations(comps):
        assert crt_combine(order) == expected
    n = expected.modulus
    if n <= 20_000:
        allowed = [{x % c.modulus for x in c.residues} for c in comps]
        scan = tuple(x for x in range(n) if all(x % c.modulus in a for c, a in zip(comps, allowed)))
        assert expected.residues == scan


def test_crt_combine_size_and_membership():
    cases = [
        [ResidueSet(8, (1, 3, 5)), ResidueSet(9, (2, 7)), ResidueSet(5, (0, 1, 2))],
        [ResidueSet(3, (0, 1, 2)), ResidueSet(25, (4, 21))],
        [ResidueSet(1, (0,)), ResidueSet(7, (3, 4))],
    ]
    for comps in cases:
        rs = crt_combine(comps)
        assert len(rs) == math.prod(len(c.residues) for c in comps)
        assert list(rs.residues) == sorted(set(rs.residues))
        for x in rs:
            for c in comps:
                assert x % c.modulus in c.residues
