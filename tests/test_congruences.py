import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import primes_upto
from quadres.congruences import QuadCongruence, solve_linear, solve_quadratic
from quadres.errors import NotQuadratic
from quadres.oracle import brute_quadratic, completing_square_quadratic
from quadres.sqrtmod import _quadratic_prime_power_roots, _quadratic_roots


def test_solve_linear_examples():
    assert solve_linear(6, 114, 180).residues == (19, 49, 79, 109, 139, 169)
    assert solve_linear(4, 2, 6).residues == (2, 5)
    for b, n in ((7, 12), (-3, 5), (0, 9)):
        assert solve_linear(1, b, n).residues == (b % n,)


def test_solve_linear_unsolvable_and_degenerate():
    assert solve_linear(2, 1, 4).residues == ()
    assert solve_linear(6, 3, 9).residues == (2, 5, 8)
    assert solve_linear(0, 0, 5).residues == (0, 1, 2, 3, 4)
    assert solve_linear(0, 3, 5).residues == ()


def test_solve_linear_oracle():
    for n in range(2, 40):
        for a in range(-8, 9):
            for b in range(-8, 9):
                got = solve_linear(a, b, n).residues
                want = tuple(x for x in range(n) if (a * x - b) % n == 0)
                assert got == want, (a, b, n)
                g = math.gcd(a, n)
                assert len(got) == (g if b % g == 0 else 0)


def test_quad_congruence_validation():
    q = QuadCongruence(3, 7, -1, 15)
    assert q.discriminant == 61
    with pytest.raises(NotQuadratic):
        QuadCongruence(15, 1, 1, 15)
    with pytest.raises(NotQuadratic):
        QuadCongruence(0, 1, 1, 7)
    with pytest.raises(ValueError):
        QuadCongruence(1, 1, 1, 1)


def test_solve_quadratic_golden():
    assert solve_quadratic(QuadCongruence(3, 7, -1, 15)).residues == (4, 7)
    assert solve_quadratic(QuadCongruence(3, 7, -1, 195)).residues == (7, 34, 112, 124)
    assert solve_quadratic(QuadCongruence(1, 0, 0, 5)).residues == (0,)


def test_solve_quadratic_coprime_golden():
    # gcd(2a, n) = 1 in every case
    got = solve_quadratic(QuadCongruence(3, 7, -1, 1235))
    assert got.residues == (34, 72, 319, 502, 749, 787, 1022, 1034)
    assert solve_quadratic(QuadCongruence(1, 0, -1, 9)).residues == (1, 8)
    # 5x^2 = 1 (mod 11) checked exhaustively over 0..10
    assert solve_quadratic(QuadCongruence(5, 0, -1, 11)).residues == (3, 8)


def test_solve_quadratic_oracle_grid():
    for n in range(2, 40):
        for a in range(-5, 6):
            if a % n == 0:
                continue
            for b in range(-4, 5):
                for c in range(-4, 5):
                    q = QuadCongruence(a, b, c, n)
                    got = solve_quadratic(q).residues
                    assert got == brute_quadratic(a, b, c, n).residues, (a, b, c, n)


def test_path_agreement_and_root_count():
    for n in range(3, 60, 2):
        for a in range(1, 8):
            if math.gcd(2 * a, n) != 1 or a % n == 0:
                continue
            for b in range(-3, 4):
                for c in range(-3, 4):
                    q = QuadCongruence(a, b, c, n)
                    fast = solve_quadratic(q)
                    general = completing_square_quadratic(q)
                    assert fast.residues == general.residues, (a, b, c, n)
                    roots = tuple(
                        t for t in range(n) if (t * t - q.discriminant) % n == 0
                    )
                    assert len(fast) == len(roots)


def test_solve_quadratic_large_leading_coefficient():
    # x*(a*x + 1) = 0 (mod p*a): the unit linear term makes 0 the one root
    t0 = time.perf_counter()
    for a, p in ((2**16, 2), (2**20, 2), (3**12, 3), (2**40, 2), (3**25, 3)):
        assert solve_quadratic(QuadCongruence(a, 1, 0, p * a)).residues == (0,), a
    # p-content 27 reaches the whole of 27: every x = 0 or 4 (mod 5) is a root
    got = solve_quadratic(QuadCongruence(27, 27, 0, 27 * 5)).residues
    assert got == tuple(x for x in range(135) if x % 5 in (0, 4))
    assert time.perf_counter() - t0 < 1.0


# coefficients with high 2- and 3-content, so every branch of the
# per-prime-power rule is taken, including p-content at or above e
_RICH_A = (1, -2, 3, 4, 8, 9, 27, 32, 81, 128)
_RICH_B = (0, 1, 2, 3, 6, 9, -4)
_RICH_C = (0, 1, -1, 8, 27)


def test_solve_quadratic_prime_power_content_grid():
    for n in range(2, 300):
        for a in _RICH_A:
            if a % n == 0:
                continue
            for b in _RICH_B:
                for c in _RICH_C:
                    got = solve_quadratic(QuadCongruence(a, b, c, n)).residues
                    assert got == brute_quadratic(a, b, c, n).residues, (a, b, c, n)


@pytest.mark.parametrize(
    "a, b, c, n",
    [
        (2**20, 1, 0, 2**21),
        (12, 6, -18, 2**5 * 3**4 * 5**3),
        (9, 3, -6, 2**6 * 3**5 * 5**2),
        (5, 1, -6, 2**10 * 3**3 * 7),
    ],
    ids=["2^21", "2^5*3^4*5^3", "2^6*3^5*5^2", "2^10*3^3*7"],
)
def test_solve_quadratic_matches_sympy(a, b, c, n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want = sorted(sympy.ntheory.polynomial_congruence(a * x**2 + b * x + c, n))
    assert list(solve_quadratic(QuadCongruence(a, b, c, n)).residues) == want


def test_membership():
    for a, b, c, n in ((3, 7, -1, 15), (3, 7, -1, 195), (2, 3, 1, 36), (-4, 2, 6, 21)):
        q = QuadCongruence(a, b, c, n)
        for x in solve_quadratic(q):
            assert (a * x * x + b * x + c) % n == 0


@settings(deadline=None)
@given(
    st.integers(-9, 9).filter(lambda a: a != 0),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(2, 80),
)
def test_solve_quadratic_oracle_property(a, b, c, n):
    if a % n == 0:
        return
    q = QuadCongruence(a, b, c, n)
    assert solve_quadratic(q).residues == brute_quadratic(a, b, c, n).residues


def _prime_powers_below(limit):
    for p in primes_upto(limit):
        pe, e = p, 1
        while pe < limit:
            yield p, e, pe
            pe, e = pe * p, e + 1


def test_prime_power_roots_match_scan():
    for p, e, pe in _prime_powers_below(1000):
        # one scan gives the roots of every d at once
        scan = [[] for _ in range(pe)]
        for x in range(pe):
            scan[x * x % pe].append(x)
        for d in range(pe):
            want = tuple(scan[d])
            assert _quadratic_prime_power_roots(1, 0, -d, p, e) == want, (d, p, e)
            assert _quadratic_roots(1, 0, -d, pe).residues == want, (d, p, e)


def test_prime_power_roots_large_exponents():
    t0 = time.perf_counter()
    got = solve_quadratic(QuadCongruence(1, 0, 0, 3**20)).residues
    assert got == tuple(range(0, 3**20, 3**10))
    assert len(got) == 59_049
    # T^2 = 2^10 * u (mod 2^40), u = 1 (mod 8): 2^5 * y, y the 4 roots mod 2^30
    # taken mod 2^35, so 4 * 2^5 = 128 roots
    u = 8 * 12345 + 1
    roots = _quadratic_prime_power_roots(1, 0, -(2**10 * u), 2, 40)
    assert len(roots) == 128 and roots == tuple(sorted(set(roots)))
    assert all((x * x - 2**10 * u) % 2**40 == 0 for x in roots)
    assert all(x % 2**5 == 0 for x in roots)
    # odd valuation: 5^7 * 2 is never a square mod 5^15
    assert _quadratic_prime_power_roots(1, 0, -(5**7 * 2), 5, 15) == ()
    assert solve_quadratic(QuadCongruence(1, 0, -(5**7) * 2, 5**15 * 7)).residues == ()
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "p, e", [(3, 20), (5, 15), (2, 36)], ids=["3^20", "5^15", "2^36"]
)
def test_prime_power_roots_match_sympy(p, e):
    sympy_ntheory = pytest.importorskip("sympy.ntheory")
    for v in (0, 1, 2, 4, e, e + 3):
        for u in (1, 7, 17, 2 * p + 1):
            if u % p == 0:
                continue
            d = p**v * u
            want = sorted(sympy_ntheory.sqrt_mod(d, p**e, all_roots=True))
            assert list(_quadratic_prime_power_roots(1, 0, -d, p, e)) == want, (d, p, e)
