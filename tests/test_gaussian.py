import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import classification_grid, time_limit

from quadres import gaussian
from quadres.errors import BothZero, ZeroArgument, ZeroOrUnit
from quadres.gaussian import (
    UNITS,
    GaussianInt,
    associates,
    canonical_associate,
    div_rem,
    factor,
    format_gaussian,
    gcd,
    is_gaussian_prime,
    is_unit,
    norm,
    parse_gaussian,
)

Z = GaussianInt


def _disk(limit_norm: int):
    r = math.isqrt(limit_norm)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            g = Z(x, y)
            if norm(g) <= limit_norm:
                yield g


def test_norm_examples():
    assert norm(Z(1, 1)) == 2
    assert norm(Z(0, 0)) == 0
    assert norm(Z(2, 3)) == 13


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60))
def test_norm_multiplicative(a, b, c, d):
    x, y = Z(a, b), Z(c, d)
    assert norm(x * y) == norm(x) * norm(y)


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60))
def test_sub_and_neg(a, b, c, d):
    x, y = Z(a, b), Z(c, d)
    assert x - y == Z(a - c, b - d) == x + -y
    assert -x == Z(-a, -b)


def test_units():
    assert is_unit(Z(0, 1))
    assert is_unit(Z(-1, 0))
    assert not is_unit(Z(1, 1))
    assert not is_unit(Z(0, 0))


def test_associates_examples():
    assert associates(Z(1, 0)) == {Z(1, 0), Z(0, 1), Z(-1, 0), Z(0, -1)}
    assert associates(Z(2, 1)) == {Z(2, 1), Z(-1, 2), Z(-2, -1), Z(1, -2)}
    assert Z(1, -1) in associates(Z(1, 1))
    with pytest.raises(ZeroArgument):
        associates(Z(0, 0))


def test_canonical_associate():
    for g in _disk(200):
        if g == Z(0, 0):
            continue
        canon = canonical_associate(g)
        assert canon in associates(g)
        assert canon.re > 0 and canon.im >= 0
    assert canonical_associate(Z(0, -3)) == Z(3, 0)
    assert canonical_associate(Z(-1, 1)) == Z(1, 1)


def test_div_rem_examples():
    for alpha in (Z(5, 0), Z(-3, 7), Z(0, 0)):
        assert div_rem(alpha, Z(1, 0)) == (alpha, Z(0, 0))
    kappa, rho = div_rem(Z(5, 0), Z(1, 1))
    assert (kappa, rho) == (Z(2, -3), Z(0, 1))
    assert norm(rho) * 2 <= norm(Z(1, 1))
    kappa, rho = div_rem(Z(7, 2), Z(3, -1))
    assert kappa == Z(2, 1) and rho == Z(0, 1)
    assert 2 * norm(rho) <= norm(Z(3, -1))


def test_div_rem_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        div_rem(Z(1, 2), Z(0, 0))


def test_div_rem_contract_grid():
    betas = [g for g in _disk(150) if g != Z(0, 0)]
    for x in range(-12, 13):
        for y in range(-12, 13):
            alpha = Z(x, y)
            for beta in betas:
                kappa, rho = div_rem(alpha, beta)
                assert kappa * beta + rho == alpha
                assert 2 * norm(rho) <= norm(beta)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**3, 10**3), st.integers(-10**3, 10**3))
def test_div_rem_contract_property(a, b, c, d):
    beta = Z(c, d)
    if beta == Z(0, 0):
        return
    alpha = Z(a, b)
    kappa, rho = div_rem(alpha, beta)
    assert kappa * beta + rho == alpha
    assert 2 * norm(rho) <= norm(beta)


def _by_digits(lo, hi):
    # a nonzero int of k decimal digits, lo <= k <= hi, drawn by magnitude
    return (
        st.integers(lo, hi)
        .flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))
        .flatmap(lambda v: st.sampled_from((v, -v)))
    )


@given(_by_digits(28, 30), _by_digits(28, 30), _by_digits(1, 30), _by_digits(1, 30))
def test_div_rem_contract_at_30_digits(a, b, c, d):
    alpha, beta = Z(a, b), Z(c, d)
    kappa, rho = div_rem(alpha, beta)
    assert kappa * beta + rho == alpha
    assert 2 * norm(rho) <= norm(beta)


def _div_rem_ints_by_divmod(a, b, c, d):
    # the earlier rounding, kept as the reference: floor, then step up where
    # the remainder exceeds half the norm
    n = c * c + d * d
    q1, s = divmod(a * c + b * d, n)
    q2, t = divmod(b * c - a * d, n)
    if 2 * s > n:
        q1 += 1
    if 2 * t > n:
        q2 += 1
    return q1, q2, a - q1 * c + q2 * d, b - q1 * d - q2 * c


def _assert_div_rem_matches_reference(alpha, beta):
    q1, q2, r1, r2 = _div_rem_ints_by_divmod(alpha.re, alpha.im, beta.re, beta.im)
    assert div_rem(alpha, beta) == (Z(q1, q2), Z(r1, r2))


@given(_by_digits(1, 30), _by_digits(1, 30), _by_digits(1, 30), _by_digits(1, 30))
def test_div_rem_matches_the_divmod_rounding(a, b, c, d):
    _assert_div_rem_matches_reference(Z(a, b), Z(c, d))
    _assert_div_rem_matches_reference(Z(a, b), Z(c, 0))
    _assert_div_rem_matches_reference(Z(a, b), Z(0, d))


@given(_by_digits(1, 30), _by_digits(1, 30), _by_digits(1, 30), _by_digits(1, 30),
       st.sampled_from((Z(1, 0), Z(0, 1), Z(1, 1))))
def test_div_rem_matches_the_divmod_rounding_at_planted_ties(k1, k2, g1, g2, shift):
    # with beta = 2*gamma, alpha/beta = kappa + shift/2 lies halfway between
    # integers in the real, the imaginary or both coordinates
    kappa, gamma = Z(k1, k2), Z(g1, g2)
    beta = Z(2, 0) * gamma
    for sign in (Z(1, 0), Z(-1, 0)):
        alpha = kappa * beta + sign * shift * gamma
        _assert_div_rem_matches_reference(alpha, beta)
        rho = div_rem(alpha, beta)[1]
        assert 2 * norm(rho) <= norm(beta)


def test_div_rem_ties_round_toward_the_floor():
    # alpha/beta lands exactly halfway in one or both coordinates
    assert div_rem(Z(1, 0), Z(2, 0)) == (Z(0, 0), Z(1, 0))
    assert div_rem(Z(1, 1), Z(2, 0)) == (Z(0, 0), Z(1, 1))
    assert div_rem(Z(-1, 0), Z(2, 0)) == (Z(-1, 0), Z(1, 0))
    assert div_rem(Z(-1, -1), Z(2, 0)) == (Z(-1, -1), Z(1, 1))
    assert div_rem(Z(1, -1), Z(2, 0)) == (Z(0, -1), Z(1, 1))
    assert div_rem(Z(1, 0), Z(1, 1)) == (Z(0, -1), Z(0, 1))
    assert div_rem(Z(1, 0), Z(0, 2)) == (Z(0, -1), Z(-1, 0))
    assert div_rem(Z(3, 1), Z(2, 0)) == (Z(1, 0), Z(1, 1))


def test_gcd_examples():
    assert gcd(Z(5, 0), Z(2, 1)) == Z(2, 1)
    assert gcd(Z(3, 0), Z(7, 0)) == Z(1, 0)
    assert gcd(Z(-3, 7), Z(0, 0)) == canonical_associate(Z(-3, 7))
    with pytest.raises(BothZero):
        gcd(Z(0, 0), Z(0, 0))


def _divides(d: GaussianInt, a: GaussianInt) -> bool:
    n = norm(d)
    num = a * d.conjugate()
    return num.re % n == 0 and num.im % n == 0


def test_gcd_divides_both_and_is_greatest():
    values = [g for g in _disk(60) if g != Z(0, 0)]
    for alpha in values[::3]:
        for beta in values[::5]:
            g = gcd(alpha, beta)
            assert _divides(g, alpha) and _divides(g, beta)
            # every common divisor divides g
            for zeta in _disk(norm(g)):
                if zeta != Z(0, 0) and _divides(zeta, alpha) and _divides(zeta, beta):
                    assert _divides(zeta, g)


@settings(deadline=None)  # the first example imports SymPy
@given(_by_digits(1, 15), _by_digits(1, 15), _by_digits(5, 15), _by_digits(5, 15),
       _by_digits(5, 15), _by_digits(5, 15))
def test_gcd_matches_sympy_with_a_planted_factor(g1, g2, a1, a2, b1, b2):
    # operands of 6 to 30 digits sharing gamma = g1 + g2*i; SymPy's Z(i) gcd
    # shares no code with ours and picks the same associate (re > 0, im >= 0)
    zzi = pytest.importorskip("sympy.polys.domains").ZZ_I
    gamma = Z(g1, g2)
    alpha, beta = gamma * Z(a1, a2), gamma * Z(b1, b2)
    expected = zzi.gcd(zzi(alpha.re, alpha.im), zzi(beta.re, beta.im))
    g = gcd(alpha, beta)
    assert (g.re, g.im) == (int(expected.x), int(expected.y))
    assert _divides(gamma, g)


def test_gcd_of_conjugates_and_of_equal_norms():
    # N(2+i) = N(2-i) = 5, so the gcd of the norms is 5 but the gcd is 1
    assert gcd(Z(2, 1), Z(2, -1)) == Z(1, 0)
    assert gcd(Z(1, 2), Z(5, 0)) == Z(1, 2)
    assert gcd(Z(5, 0), Z(1, 2)) == Z(1, 2)
    assert gcd(Z(2, 1) ** 3, Z(2, -1) ** 2 * Z(2, 1)) == Z(2, 1)


def test_gcd_with_shared_inert_and_ramified_factors():
    pairs = [(Z(7, 2), Z(11, -4)), (Z(1, 0), Z(0, 1)), (Z(-13, 8), Z(9, 40)), (Z(5, 0), Z(3, 4))]
    for alpha, beta in pairs:
        base = gcd(alpha, beta)
        assert gcd(Z(3, 0) * alpha, Z(3, 0) * beta) == canonical_associate(Z(3, 0) * base)
        assert gcd(Z(21, 0) * alpha, Z(0, 9) * beta) == canonical_associate(Z(3, 0) * base)
    # (1+i)^k * alpha against 2 * beta = -i(1+i)^2 * beta, both with odd norm
    alpha, beta = Z(7, 2), Z(11, -4)
    assert norm(alpha) % 2 == 1 and norm(beta) % 2 == 1 and gcd(alpha, beta) == Z(1, 0)
    for k in range(8):
        expected = canonical_associate(Z(1, 1) ** min(k, 2))
        assert gcd(Z(1, 1) ** k * alpha, Z(2, 0) * beta) == expected, k
        assert gcd(Z(2, 0) * beta, Z(1, 1) ** k * alpha) == expected, k


def test_gcd_of_associates_and_multiples():
    for alpha in (Z(3, 0), Z(-7, 4), Z(123456789012345, -98765432109876), Z(2, 1) ** 40):
        for u in UNITS:
            assert gcd(alpha, u * alpha) == canonical_associate(alpha)
            assert gcd(u * alpha, alpha) == canonical_associate(alpha)
        for k in (Z(2, 0), Z(1, 1), Z(-3, 5), Z(10**20 + 7, 3)):
            assert gcd(alpha * k, alpha) == canonical_associate(alpha)
            assert gcd(alpha, k * alpha) == canonical_associate(alpha)


def test_gcd_with_one_zero_operand():
    for alpha in (Z(-3, 7), Z(0, -1), Z(1, 1), Z(-6, 0), Z(10**30, -(10**29))):
        assert gcd(alpha, Z(0, 0)) == canonical_associate(alpha)
        assert gcd(Z(0, 0), alpha) == canonical_associate(alpha)
    with pytest.raises(BothZero):
        gcd(Z(0, 0), Z(0, 0))


@settings(deadline=None)  # the first example imports SymPy
@given(_by_digits(1, 60), _by_digits(1, 60), _by_digits(1, 60), _by_digits(1, 60))
def test_gcd_matches_sympy_on_unrelated_operands(a, b, c, d):
    zzi = pytest.importorskip("sympy.polys.domains").ZZ_I
    expected = zzi.gcd(zzi(a, b), zzi(c, d))
    g = gcd(Z(a, b), Z(c, d))
    assert (g.re, g.im) == (int(expected.x), int(expected.y))


@settings(deadline=None)  # the first example imports SymPy
@given(_by_digits(1, 20), _by_digits(1, 20), _by_digits(1, 60), _by_digits(1, 60),
       _by_digits(1, 60), _by_digits(1, 60))
def test_gcd_matches_sympy_on_operands_sharing_a_factor(g1, g2, a, b, c, d):
    # both operands times gamma, so g = gcd of the norms is at least N(gamma)
    # and the route through the operands reduced mod g runs whenever g^2 is
    # below both norms
    zzi = pytest.importorskip("sympy.polys.domains").ZZ_I
    gamma = Z(g1, g2)
    alpha, beta = gamma * Z(a, b), gamma * Z(c, d)
    expected = zzi.gcd(zzi(alpha.re, alpha.im), zzi(beta.re, beta.im))
    g = gcd(alpha, beta)
    assert (g.re, g.im) == (int(expected.x), int(expected.y))


def _counting_div_rem(monkeypatch):
    calls = []
    div_rem_ints = gaussian._div_rem_ints

    def counted(*args):
        calls.append(args)
        return div_rem_ints(*args)

    monkeypatch.setattr(gaussian, "_div_rem_ints", counted)
    return calls


def _random_gaussian(rng, digits):
    return Z(rng.randrange(10 ** (digits - 1), 10**digits), -rng.randrange(10**digits))


def test_gcd_of_coprime_norms_takes_no_euclid_run(monkeypatch):
    rng = random.Random(14)
    alpha, beta = _random_gaussian(rng, 300), _random_gaussian(rng, 300)
    while math.gcd(norm(alpha), norm(beta)) != 1:
        beta = _random_gaussian(rng, 300)
    calls = _counting_div_rem(monkeypatch)
    assert gcd(alpha, beta) == Z(1, 0)
    assert len(calls) <= 1


def test_gcd_of_an_associate_takes_one_step(monkeypatch):
    rng = random.Random(15)
    alpha = _random_gaussian(rng, 300)
    calls = _counting_div_rem(monkeypatch)
    assert gcd(alpha, Z(0, 1) * alpha) == canonical_associate(alpha)
    assert len(calls) <= 2


def test_gcd_of_a_multiple_takes_at_most_two_steps(monkeypatch):
    # g = N(alpha) and g^2 is not below N(alpha), so Euclid runs on the two
    # operands, in either order; the route through g would first run Euclid
    # on (alpha, g), a long run on operands of norm g^2
    rng = random.Random(17)
    alpha, kappa = _random_gaussian(rng, 150), _random_gaussian(rng, 150)
    calls = _counting_div_rem(monkeypatch)
    for pair in ((alpha * kappa, alpha), (alpha, alpha * kappa)):
        calls.clear()
        assert gcd(*pair) == canonical_associate(alpha)
        assert len(calls) <= 2


def test_gcd_with_a_small_shared_factor_runs_on_small_operands(monkeypatch):
    # the plain Euclid run on these 300-digit operands takes over 500 steps;
    # through g, the gcd of the norms, every divisor has norm at most g^2
    # and every dividend norm below 2g^2
    rng = random.Random(16)
    gamma = Z(389, 112)
    alpha, beta = gamma * _random_gaussian(rng, 297), gamma * _random_gaussian(rng, 297)
    calls = _counting_div_rem(monkeypatch)
    g = gcd(alpha, beta)
    assert _divides(gamma, g) and _divides(g, alpha) and _divides(g, beta)
    assert len(calls) < 50
    g2 = math.gcd(norm(alpha), norm(beta)) ** 2
    assert all(c * c + d * d <= g2 for _, _, c, d in calls)
    # each dividend is reduced mod g, or is an earlier divisor
    assert all(a * a + b * b < 2 * g2 for a, b, _, _ in calls)


def test_is_gaussian_prime_examples():
    assert is_gaussian_prime(Z(3, 0))
    assert not is_gaussian_prime(Z(5, 0))
    assert is_gaussian_prime(Z(1, 1))
    assert is_gaussian_prime(Z(0, -7))
    assert not is_gaussian_prime(Z(2, 0))
    assert not is_gaussian_prime(Z(0, 1))
    assert not is_gaussian_prime(Z(0, 0))


def test_factor_examples():
    f = factor(Z(2, 0))
    assert f.unit == Z(0, -1)
    assert f.factors == ((Z(1, 1), 2),)
    assert f.value() == Z(2, 0)

    f = factor(Z(5, 0))
    assert {p for p, _ in f.factors} == {
        canonical_associate(Z(2, 1)),
        canonical_associate(Z(2, -1)),
    }
    assert f.value() == Z(5, 0)

    f = factor(Z(9, 0))
    assert f.factors == ((Z(3, 0), 2),) and f.unit == Z(1, 0)


def test_factor_norm_near_1e14():
    # two split primes of norm about 1.3e7; trial division took 1 s here
    pi1, pi2 = Z(3000, 2011), Z(3010, 2007)
    xi = pi1 * pi2
    with time_limit(1):
        f = factor(xi)
    assert f.value() == xi
    assert f.factors == tuple(sorted(
        ((canonical_associate(pi1), 1), (canonical_associate(pi2), 1)),
        key=lambda pe: norm(pe[0]),
    ))
    assert [norm(p) for p, _ in f.factors] == [13044121, 13088149]


def test_factor_rejects_zero_and_units():
    with pytest.raises(ZeroOrUnit):
        factor(Z(0, 0))
    with pytest.raises(ZeroOrUnit):
        factor(Z(0, 1))


def test_factor_reassembles_disk():
    for g in [*_disk(600), *(Z(n, 0) for n in classification_grid())]:
        if g == Z(0, 0) or is_unit(g):
            continue
        f = factor(g)
        assert f.value() == g
        assert is_unit(f.unit)
        for prime, e in f.factors:
            assert e >= 1
            assert is_gaussian_prime(prime)
            assert prime == canonical_associate(prime)
        keys = [(norm(p), p.re, p.im) for p, _ in f.factors]
        assert keys == sorted(keys)


# SHA-256 of one line per xi, "re,im unit.re,unit.im p.re,p.im^e ...", joined
# by newlines, for re and im in -60..60 in that order, 0 and the units left
# out; recorded when factor still found each exponent by dividing with
# remainder and testing the remainder for zero
FACTOR_DIGEST_60 = "ee0b5eee6311bea76341bc5df7b8f735369d77bec6df4e5025301afdaf47c72f"


def test_factor_is_unchanged_over_the_square_of_side_60():
    lines = []
    for x in range(-60, 61):
        for y in range(-60, 61):
            if x * x + y * y <= 1:
                continue
            f = factor(Z(x, y))
            parts = [f"{x},{y}", f"{f.unit.re},{f.unit.im}"]
            parts += [f"{p.re},{p.im}^{e}" for p, e in f.factors]
            lines.append(" ".join(parts))
    assert len(lines) == 121 * 121 - 5
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FACTOR_DIGEST_60


def test_factor_canonical_across_associates():
    for g in _disk(300):
        if g == Z(0, 0) or is_unit(g):
            continue
        base = factor(g).factors
        for u in (Z(0, 1), Z(-1, 0), Z(0, -1)):
            f = factor(g * u)
            assert f.factors == base
            assert f.value() == g * u


def test_is_gaussian_prime_matches_factor():
    for g in _disk(300):
        if g == Z(0, 0) or is_unit(g):
            continue
        f = factor(g)
        single = len(f.factors) == 1 and f.factors[0][1] == 1
        assert is_gaussian_prime(g) == single


def test_parse_and_format():
    cases = {
        "3": Z(3, 0),
        "-7": Z(-7, 0),
        "4i": Z(0, 4),
        "-i": Z(0, -1),
        "i": Z(0, 1),
        "3+4i": Z(3, 4),
        "3-i": Z(3, -1),
        "-2-5i": Z(-2, -5),
        "+8+1i": Z(8, 1),
        " 3+4i ": Z(3, 4),
        "3 + 4i": Z(3, 4),
        "+i": Z(0, 1),
        "3+i": Z(3, 1),
        "+3-i": Z(3, -1),
        "-3-4i": Z(-3, -4),
    }
    for text, value in cases.items():
        assert parse_gaussian(text) == value
    for g in _disk(100):
        assert parse_gaussian(format_gaussian(g)) == g
    # whitespace between two digits is refused, not deleted
    for bad in ("", "2+", "ii", "3 + x", "1.5i", "1 2", "1 2i", "3+4 5i", "+", "-", "--1",
                "3+-4i", "1e+5i", "i3"):
        with pytest.raises(ValueError):
            parse_gaussian(bad)
