"""Parametric generators for X^2 + Y^2 = Z^2, = c*Z^2, = Z^l and
X^2 + Y^2 + Z^2 = W^2, plus the alternating binomial polynomials governing
the real and imaginary parts of odd powers of a + ib.
"""

import math
from collections import namedtuple

from .errors import BadParameters, check_nonnegative, check_positive
from .gaussian import GaussianInt
from .two_squares import is_sum_of_two_squares


class PythTriple(namedtuple("PythTriple", "s t r m n")):
    """Primitive triple s^2 + t^2 = r^2 with s = 2mn, t = m^2 - n^2, r = m^2 + n^2."""

    __slots__ = ()


def pyth_triple(m: int, n: int) -> PythTriple:
    """The primitive Pythagorean triple generated by m > n > 0, coprime,
    of opposite parity."""
    if not (m > n > 0) or math.gcd(m, n) != 1 or (m - n) % 2 == 0:
        raise BadParameters(
            f"need m > n > 0 coprime of opposite parity, got m={m}, n={n}"
        )
    return PythTriple(2 * m * n, m * m - n * n, m * m + n * n, m, n)


def enumerate_primitive_triples(r_max: int) -> list[PythTriple]:
    """All primitive triples with hypotenuse at most r_max, sorted by (r, t).

    n runs over the values of opposite parity to m with m^2 + n^2 <= r_max,
    so only the coprimality of (m, n) is left to test.
    """
    check_positive("r_max", r_max)
    triples = []
    for m in range(2, math.isqrt(r_max - 1) + 1):
        mm = m * m
        for n in range(1 + m % 2, min(m, math.isqrt(r_max - mm) + 1), 2):
            if math.gcd(m, n) == 1:
                triples.append(PythTriple(2 * m * n, mm - n * n, mm + n * n, m, n))
    triples.sort(key=lambda tr: (tr.r, tr.t))
    return triples


def cz2_solvable(c: int) -> bool:
    """X^2 + Y^2 = c*Z^2 has a nontrivial solution iff c is a sum of two squares."""
    check_positive("c", c)
    return is_sum_of_two_squares(c)


class CZ2Solution(namedtuple("CZ2Solution", "x y z c d3 g u v")):
    """A solution of X^2 + Y^2 = c*Z^2 built from c = d3^2 * 2^g * (u^2 + v^2)
    and a primitive Pythagorean triple."""

    __slots__ = ()


def cz2_solution(
    c: int, d3: int, u: int, v: int, g: int, triple: PythTriple
) -> CZ2Solution:
    """Rotate the triple by the representation (u, v) of c / d3^2.

    v = 0 is allowed (with u = 1) so that c = 1 and c = 2 reproduce the
    plain Pythagorean case.
    """
    if c < 1 or d3 < 1 or c % (d3 * d3) != 0:
        raise BadParameters(f"d3^2 = {d3 * d3} must divide c = {c}")
    if g not in (0, 1):
        raise BadParameters("g must be 0 or 1")
    if not (u > v >= 0) or math.gcd(u, v) != 1:
        raise BadParameters(f"need u > v >= 0 coprime, got u={u}, v={v}")
    if c != d3 * d3 * 2**g * (u * u + v * v):
        raise BadParameters(f"c = {c} != d3^2 * 2^{g} * ({u}^2 + {v}^2)")
    if math.gcd(triple.r, d3) != 1:
        raise BadParameters(f"gcd(r={triple.r}, d3={d3}) != 1")
    s, t = triple.s, triple.t
    if g:  # t + s*i times 1 - i
        s, t = s - t, s + t
    x = d3 * (t * u - s * v)
    y = d3 * (s * u + t * v)
    return CZ2Solution(x, y, triple.r, c, d3, g, u, v)


class ZlSolution(namedtuple("ZlSolution", "x y z l a b")):
    """A primitive solution of X^2 + Y^2 = Z^l with x + iy = (a + ib)^l."""

    __slots__ = ()


def zl_solution(l: int, a: int, b: int) -> ZlSolution:
    """x = Re((a+ib)^l), y = Im((a+ib)^l), z = a^2 + b^2 for a > b > 0
    coprime of opposite parity."""
    if l < 2:
        raise BadParameters("exponent must be at least 2")
    if not (a > b > 0) or math.gcd(a, b) != 1 or (a - b) % 2 == 0:
        raise BadParameters(
            f"need a > b > 0 coprime of opposite parity, got a={a}, b={b}"
        )
    w = GaussianInt(a, b) ** l
    return ZlSolution(w.re, w.im, a * a + b * b, l, a, b)


def vn_poly(n: int, x: int, y: int) -> int:
    """The alternating binomial sum sum_j (-1)^j C(2n+1, 2j) x^(2(n-j)) y^(2j).

    a * vn_poly(n, a, b) is the real part of (a + ib)^(2n+1).

    For coprime x, y: gcd(x, vn_poly(n, x, y)) = gcd(x, 2n+1), since modulo x
    only the last term survives, (-1)^n (2n+1) y^(2n). The cofactor is coprime
    to x only when gcd(x, 2n+1) = 1: vn_poly(1, 3, 2) = -3.
    """
    check_nonnegative("n", n)
    return sum(
        (-1) ** j * math.comb(2 * n + 1, 2 * j) * x ** (2 * (n - j)) * y ** (2 * j)
        for j in range(n + 1)
    )


class PythQuadruple(namedtuple("PythQuadruple", "x y z w m n u v primitive")):
    """A solution of X^2 + Y^2 + Z^2 = W^2 with its generating parameters.

    The parameters produce (x, y, z) up to permutation and sign; the
    primitive flag records whether gcd(x, y, z) = 1, which the parameter
    conditions alone do not guarantee.
    """

    __slots__ = ()


def pyth_quadruple(m: int, n: int, u: int, v: int) -> PythQuadruple:
    """The quadruple x = 2(mn - uv), y = m^2 - n^2 - u^2 + v^2,
    z = 2(mu + nv), w = m^2 + n^2 + u^2 + v^2 for gcd(m, n, u, v) = 1."""
    if math.gcd(math.gcd(m, n), math.gcd(u, v)) != 1:
        raise BadParameters(f"gcd({m}, {n}, {u}, {v}) != 1")
    x = 2 * (m * n - u * v)
    y = m * m - n * n - u * u + v * v
    z = 2 * (m * u + n * v)
    w = m * m + n * n + u * u + v * v
    primitive = math.gcd(math.gcd(x, y), z) == 1
    return PythQuadruple(x, y, z, w, m, n, u, v, primitive)


def enumerate_quadruples(w_max: int) -> list[PythQuadruple]:
    """All primitive quadruples with 0 < w <= w_max and x, y, z all nonzero,
    canonicalized so that 0 < x <= y <= z, deduplicated, sorted by (w, z, y, x).

    A zero coordinate degenerates to a plain Pythagorean triple and is left
    to the triple enumerator. Each quadruple records the lexicographically
    first (m, n, u, v) with m^2 + n^2 + u^2 + v^2 = w that gives it. The maps
    t -> -t, (m, -n, u, -v), (m, n, -u, -v), (n, m, v, u) and (m, u, n, -v)
    keep w, the sorted (|x|, |y|, |z|) and gcd(m, n, u, v); together they
    bring any coordinate to the front and flip any even set of signs. So
    the first generator has m = -max|coordinate| < 0, n <= 0, u <= 0,
    |u| <= |n| and |v| <= -m, or one of the maps would give an earlier one,
    and the scan runs over that domain alone, in lexicographic order.
    """
    check_positive("w_max", w_max)
    seen: dict[tuple[int, int, int, int], PythQuadruple] = {}
    for m in range(-math.isqrt(w_max), 0):
        mm = m * m
        for n in range(max(m, -math.isqrt(w_max - mm)), 1):
            nn = n * n
            left = w_max - mm - nn
            gmn = math.gcd(m, n)
            for u in range(max(n, -math.isqrt(left)), 1):
                uu = u * u
                gmnu = math.gcd(gmn, u)
                kv = min(-m, math.isqrt(left - uu))
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
