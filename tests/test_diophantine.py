import itertools
import math

import pytest

from conftest import rn_poly as _rn_poly
from quadres.diophantine import (
    PythQuadruple,
    PythTriple,
    cz2_solution,
    cz2_solvable,
    enumerate_primitive_triples,
    enumerate_quadruples,
    pyth_quadruple,
    pyth_triple,
    vn_poly,
    zl_solution,
)
from quadres.errors import BadParameters
from quadres.gaussian import GaussianInt


def _valid_zl_pairs(limit):
    for a in range(2, limit + 1):
        for b in range(1, a):
            if math.gcd(a, b) == 1 and (a - b) % 2 == 1:
                yield a, b


def test_pyth_triple_examples():
    t = pyth_triple(2, 1)
    assert (t.s, t.t, t.r) == (4, 3, 5)
    t = pyth_triple(3, 2)
    assert (t.s, t.t, t.r) == (12, 5, 13)
    t = pyth_triple(4, 1)
    assert (t.s, t.t, t.r) == (8, 15, 17)
    assert t.s**2 + t.t**2 == t.r**2


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1), (4, 2), (1, 2), (2, 0)])
def test_pyth_triple_bad_parameters(m, n):
    with pytest.raises(BadParameters):
        pyth_triple(m, n)


def test_enumerate_primitive_triples_examples():
    assert [(t.s, t.t, t.r) for t in enumerate_primitive_triples(5)] == [(4, 3, 5)]
    assert [(t.s, t.t, t.r) for t in enumerate_primitive_triples(13)] == [
        (4, 3, 5),
        (12, 5, 13),
    ]
    assert enumerate_primitive_triples(4) == []


def test_triple_bijection_against_brute_force():
    r_max = 120
    brute = set()
    for s in range(2, r_max, 2):
        for t in range(1, r_max):
            rr = s * s + t * t
            r = math.isqrt(rr)
            if r * r == rr and r <= r_max and math.gcd(s, t) == 1:
                brute.add((s, t, r))
    generated = {(t.s, t.t, t.r) for t in enumerate_primitive_triples(r_max)}
    assert generated == brute


def test_cz2_solvable():
    assert cz2_solvable(1)
    assert not cz2_solvable(3)
    assert cz2_solvable(5)


def test_cz2_solution_examples():
    t = pyth_triple(2, 1)
    sol = cz2_solution(5, 1, 2, 1, 0, t)
    assert (sol.x, sol.y, sol.z) == (2, 11, 5)
    sol = cz2_solution(2, 1, 1, 0, 1, t)
    assert (sol.x, sol.y, sol.z) == (7, 1, 5)
    sol = cz2_solution(1, 1, 1, 0, 0, t)
    assert (sol.x, sol.y, sol.z) == (3, 4, 5)


def test_cz2_solution_bad_parameters():
    t = pyth_triple(2, 1)
    with pytest.raises(BadParameters):
        cz2_solution(5, 2, 2, 1, 0, t)  # d3^2 does not divide c
    with pytest.raises(BadParameters):
        cz2_solution(5, 1, 1, 2, 0, t)  # u <= v
    with pytest.raises(BadParameters):
        cz2_solution(20, 1, 4, 2, 0, t)  # gcd(u, v) != 1
    with pytest.raises(BadParameters):
        cz2_solution(7, 1, 2, 1, 0, t)  # c mismatch
    with pytest.raises(BadParameters):
        cz2_solution(5, 1, 2, 1, 2, t)  # g out of range
    with pytest.raises(BadParameters):
        cz2_solution(125, 5, 2, 1, 0, t)  # gcd(r, d3) = 5


def test_cz2_equation_grid():
    # the defining equation holds for every parameter tuple meeting the
    # documented preconditions, primitive output or not
    triples = enumerate_primitive_triples(30 * 30 + 1)
    uv = [(u, v) for u in range(1, 31) for v in range(u) if math.gcd(u, v) == 1]
    for tr in triples[:40]:
        for u, v in uv[:60]:
            for g in (0, 1):
                c = 2**g * (u * u + v * v)
                sol = cz2_solution(c, 1, u, v, g, tr)
                assert sol.x**2 + sol.y**2 == c * sol.z**2


def test_cz2_primitivity_for_structural_parameters():
    # primitivity needs the parameters the derivation actually produces:
    # u, v of opposite parity (odd u^2 + v^2) and no split prime shared
    # between u^2 + v^2 and the hypotenuse
    triples = enumerate_primitive_triples(30 * 30 + 1)
    uv = [
        (u, v)
        for u in range(1, 31)
        for v in range(u)
        if math.gcd(u, v) == 1 and (u - v) % 2 == 1
    ]
    checked = 0
    for tr in triples[:40]:
        for u, v in uv[:60]:
            if math.gcd(u * u + v * v, tr.r) != 1:
                continue
            for g in (0, 1):
                c = 2**g * (u * u + v * v)
                sol = cz2_solution(c, 1, u, v, g, tr)
                assert math.gcd(sol.x, sol.y) == 1, (u, v, g, tr)
                checked += 1
    assert checked > 1000


def test_zl_solution_examples():
    assert (zl_solution(2, 2, 1).x, zl_solution(2, 2, 1).y, zl_solution(2, 2, 1).z) == (3, 4, 5)
    sol = zl_solution(3, 2, 1)
    assert (sol.x, sol.y, sol.z) == (2, 11, 5)
    assert sol.x**2 + sol.y**2 == sol.z**3
    sol = zl_solution(5, 2, 1)
    assert (sol.x, sol.y, sol.z) == (-38, 41, 5)
    assert sol.x**2 + sol.y**2 == 5**5


def test_zl_solution_bad_parameters():
    for l, a, b in ((1, 2, 1), (3, 1, 1), (3, 2, 2), (3, 1, 2), (3, 3, 1), (3, 4, 2)):
        with pytest.raises(BadParameters):
            zl_solution(l, a, b)


def test_zl_equation_and_primitivity_grid():
    for l in range(2, 9):
        for a, b in _valid_zl_pairs(12):
            sol = zl_solution(l, a, b)
            assert sol.x**2 + sol.y**2 == sol.z**l
            assert math.gcd(sol.x, sol.y) == 1


def test_vn_poly_examples():
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert vn_poly(0, x, y) == 1
    assert vn_poly(1, 2, 1) == 1
    assert vn_poly(2, 2, 1) == -19


def test_vn_expansion_identity():
    # (x+y)^(2n+1) + (x-y)^(2n+1) = 2x*V_n(x,y) + 4xy*R_n(x,y)
    for n in range(0, 6):
        l = 2 * n + 1
        for x in range(-8, 9):
            for y in range(-8, 9):
                lhs = (x + y) ** l + (x - y) ** l
                rhs = 2 * x * vn_poly(n, x, y) + 4 * x * y * _rn_poly(n, x, y)
                assert lhs == rhs, (n, x, y)


def test_vn_resolvent_identity():
    # (-1)^n V_n(y, x) = Z^n + sum_{j<n} Z^j [(x+iy)^(2(n-j)) + (x-iy)^(2(n-j))]
    for n in range(0, 6):
        for x in range(-6, 7):
            for y in range(-6, 7):
                z = x * x + y * y
                acc = z**n
                for j in range(n):
                    w = GaussianInt(x, y) ** (2 * (n - j))
                    wbar = GaussianInt(x, -y) ** (2 * (n - j))
                    assert w.im + wbar.im == 0
                    acc += z**j * (w.re + wbar.re)
                assert (-1) ** n * vn_poly(n, y, x) == acc, (n, x, y)


def test_zl_component_structure_odd_exponent():
    # x = a * V_n(a, b) and y = b * (-1)^n * V_n(b, a). The cofactors are
    # coprime to each other; against their own outer factor the gcd is
    # exactly gcd(., l) because V_n(a, b) = a*k + (-1)^n * l * b^(2n), so
    # gcd(a, V_n(a, b)) = 1 only when gcd(a, l) = 1 (e.g. l = 3, a = 3,
    # b = 2 gives x = -9 = 3 * V_1(3, 2) = 3 * (-3)).
    for l in (3, 5, 7, 9, 11):
        n = (l - 1) // 2
        for a, b in _valid_zl_pairs(12):
            sol = zl_solution(l, a, b)
            u = vn_poly(n, a, b)
            v = (-1) ** n * vn_poly(n, b, a)
            assert sol.x == a * u
            assert sol.y == b * v
            assert math.gcd(a, u) == math.gcd(a, l)
            assert math.gcd(b, v) == math.gcd(b, l)
            assert (u - v) % sol.z == 0
            assert math.gcd(u, v) == 1


def test_zl_odd_exponent_symmetry():
    # x from (a, b) equals (-1)^((l-1)/2) * Im((b + ia)^l)
    for l in (3, 5, 7, 9, 11):
        for a, b in _valid_zl_pairs(12):
            sol = zl_solution(l, a, b)
            swapped = GaussianInt(b, a) ** l
            sign = (-1) ** ((l - 1) // 2)
            assert sol.x == sign * swapped.im
            assert sol.y == sign * swapped.re


def test_pyth_quadruple_examples():
    q = pyth_quadruple(1, 1, 1, 0)
    assert (q.x, q.y, q.z, q.w) == (2, -1, 2, 3)
    assert q.primitive
    q = pyth_quadruple(2, 1, 0, 0)
    assert (q.x, q.y, q.z, q.w) == (4, 3, 0, 5)
    q = pyth_quadruple(2, 1, 1, 0)
    assert (q.x, q.y, q.z, q.w) == (4, 2, 4, 6)
    assert not q.primitive


def test_pyth_quadruple_bad_parameters():
    with pytest.raises(BadParameters):
        pyth_quadruple(2, 2, 4, 0)
    with pytest.raises(BadParameters):
        pyth_quadruple(0, 0, 0, 0)


def test_pyth_quadruple_equation_grid():
    for m in range(0, 13):
        for n in range(0, 13):
            for u in range(0, 13):
                for v in range(0, 13):
                    if math.gcd(math.gcd(m, n), math.gcd(u, v)) != 1:
                        continue
                    q = pyth_quadruple(m, n, u, v)
                    assert q.x**2 + q.y**2 + q.z**2 == q.w**2


def test_enumerate_quadruples_examples():
    assert [(q.x, q.y, q.z, q.w) for q in enumerate_quadruples(3)] == [(1, 2, 2, 3)]
    assert enumerate_quadruples(2) == []
    assert (1, 4, 8, 9) in {(q.x, q.y, q.z, q.w) for q in enumerate_quadruples(9)}


def test_enumerate_quadruples_coverage():
    w_max = 30
    brute = set()
    for x in range(1, w_max + 1):
        for y in range(x, w_max + 1):
            for z in range(y, w_max + 1):
                ww = x * x + y * y + z * z
                w = math.isqrt(ww)
                if w * w == ww and w <= w_max and math.gcd(math.gcd(x, y), z) == 1:
                    brute.add((x, y, z, w))
    generated = {(q.x, q.y, q.z, q.w) for q in enumerate_quadruples(w_max)}
    assert generated == brute
    for q in enumerate_quadruples(w_max):
        assert q.x**2 + q.y**2 + q.z**2 == q.w**2
        assert 0 < q.x <= q.y <= q.z
        assert math.gcd(math.gcd(q.x, q.y), q.z) == 1


def _box_scan_quadruples(w_max):
    """The 4-D box scan that enumerate_quadruples once ran: every (m, n, u, v)
    with |m|, |n|, |u|, |v| <= isqrt(w_max), skipping points outside the ball."""
    bound = math.isqrt(w_max)
    span = range(-bound, bound + 1)
    seen = {}
    for m in span:
        for n in span:
            for u in span:
                for v in span:
                    if m * m + n * n + u * u + v * v > w_max:
                        continue
                    if math.gcd(math.gcd(m, n), math.gcd(u, v)) != 1:
                        continue
                    quad = pyth_quadruple(m, n, u, v)
                    if not quad.primitive:
                        continue
                    xs = sorted((abs(quad.x), abs(quad.y), abs(quad.z)))
                    if xs[0] == 0:
                        continue
                    key = (xs[0], xs[1], xs[2], quad.w)
                    if key not in seen:
                        seen[key] = PythQuadruple(xs[0], xs[1], xs[2], quad.w, m, n, u, v, True)
    return sorted(seen.values(), key=lambda q: (q.w, q.z, q.y, q.x))


def test_enumerate_quadruples_matches_the_box_scan():
    # the same quadruples in the same order, each with the same (m, n, u, v):
    # the first in lexicographic order that generates it
    for w_max in range(1, 61):
        assert enumerate_quadruples(w_max) == _box_scan_quadruples(w_max), w_max


def _ball_scan_quadruples(w_max):
    """The ball scan that enumerate_quadruples once ran: (m, n, u, v) over
    m^2 + n^2 + u^2 + v^2 <= w_max, each over range(-k, k + 1) with k the
    integer square root of what the earlier ones leave of w_max."""
    seen = {}
    km = math.isqrt(w_max)
    for m in range(-km, km + 1):
        mm = m * m
        kn = math.isqrt(w_max - mm)
        for n in range(-kn, kn + 1):
            nn = n * n
            left = w_max - mm - nn
            gmn = math.gcd(m, n)
            ku = math.isqrt(left)
            for u in range(-ku, ku + 1):
                uu = u * u
                gmnu = math.gcd(gmn, u)
                kv = math.isqrt(left - uu)
                for v in range(-kv, kv + 1):
                    if math.gcd(gmnu, v) != 1:
                        continue
                    x = 2 * (m * n - u * v)
                    y = mm - nn - uu + v * v
                    z = 2 * (m * u + n * v)
                    if x == 0 or y == 0 or z == 0 or math.gcd(x, y, z) != 1:
                        continue
                    x, y, z = sorted((abs(x), abs(y), abs(z)))
                    w = mm + nn + uu + v * v
                    key = (x, y, z, w)
                    if key not in seen:
                        seen[key] = PythQuadruple(x, y, z, w, m, n, u, v, True)
    return sorted(seen.values(), key=lambda q: (q.w, q.z, q.y, q.x))


def test_enumerate_quadruples_matches_the_ball_scan():
    # the fundamental domain keeps, for each quadruple, the parameters the
    # whole ball would have recorded first
    for w_max in [*range(1, 121), 300]:
        assert enumerate_quadruples(w_max) == _ball_scan_quadruples(w_max), w_max


def _xyzw(m, n, u, v):
    return (
        2 * (m * n - u * v),
        m * m - n * n - u * u + v * v,
        2 * (m * u + n * v),
        m * m + n * n + u * u + v * v,
    )


# the parameter symmetries that enumerate_quadruples folds away
_QUADRUPLE_SYMMETRIES = (
    lambda m, n, u, v: (-m, -n, -u, -v),
    lambda m, n, u, v: (m, -n, u, -v),  # negates x
    lambda m, n, u, v: (m, n, -u, -v),  # negates z
    lambda m, n, u, v: (n, m, v, u),  # negates y
    lambda m, n, u, v: (m, u, n, -v),  # swaps x and z
)


def test_quadruple_symmetries_keep_w_the_coordinates_and_the_gcd():
    span = range(-7, 8)
    for t in itertools.product(span, repeat=4):
        x, y, z, w = _xyzw(*t)
        sorted_abs = sorted((abs(x), abs(y), abs(z)))
        for f in _QUADRUPLE_SYMMETRIES:
            image = f(*t)
            x2, y2, z2, w2 = _xyzw(*image)
            assert w2 == w, (t, image)
            assert sorted((abs(x2), abs(y2), abs(z2))) == sorted_abs, (t, image)
            assert math.gcd(*image) == math.gcd(*t), (t, image)


def _plain_triples(r_max):
    triples = [
        PythTriple(2 * m * n, m * m - n * n, m * m + n * n, m, n)
        for m in range(2, math.isqrt(r_max) + 1)
        for n in range(1, m)
        if (m - n) % 2 == 1 and math.gcd(m, n) == 1 and m * m + n * n <= r_max
    ]
    return sorted(triples, key=lambda tr: (tr.r, tr.t))


def test_enumerate_primitive_triples_matches_a_plain_scan_at_the_boundaries():
    # r_max exactly at m^2 + 1, the first hypotenuse of a new m, and exactly at
    # m^2 + n^2, the last n admitted for that m, and one past or short of each
    bounds = {1, 2, 4, 5}
    for m in range(2, 20):
        for n in range(1, m):
            for r in (m * m + 1, m * m + n * n):
                bounds.update((r - 1, r, r + 1))
    for r_max in sorted(bounds):
        assert enumerate_primitive_triples(r_max) == _plain_triples(r_max), r_max


@pytest.mark.parametrize("bad", [0, -1, -25])
def test_enumerators_refuse_a_nonpositive_bound(bad):
    with pytest.raises(ValueError):
        enumerate_primitive_triples(bad)
    with pytest.raises(ValueError):
        enumerate_quadruples(bad)
