"""Seeded request mixes for the quadres benchmark.

A workload is a fixed list of request classes, each with an exact quota.
The seed picks the concrete inputs inside every class, never how many
requests of each class there are or where they stand in the list, so every
seed gives the same mix in the same order. Repetition k of a run draws from
(workload, seed, k).

Nothing here imports quadres. Each request carries the facts the checker
needs (the factorization of a modulus, the Gaussian primes of a product),
known because they were chosen, not computed by the library under test.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from sympy import isprime

WORKLOADS = ("congruence", "two_squares", "cli")


class Request(NamedTuple):
    kind: str  # the call the worker makes; see worker.OPS
    args: tuple  # what the library receives
    meta: dict  # what only the checker sees


def draw(workload: str, seed: int, rep: int) -> list[Request]:
    """The request list of repetition `rep` of `workload` under `seed`.

    The list is shuffled once per workload, not per draw, so each request
    meets the memory its predecessors left behind (pigeonhole dicts of
    ~100 MB at 10^6) the same way in every draw. Shuffled per draw, the
    two_squares tail spread about twice as much across repetitions, once
    the host's speed was divided out.
    """
    requests = _BUILDERS[workload](random.Random(f"quadres-bench/{workload}/{seed}/{rep}"))
    random.Random(f"quadres-bench/{workload}/order").shuffle(requests)
    return requests


# --- number helpers -------------------------------------------------------


def _prime(rng, lo: int, hi: int, ok=lambda p: True) -> int:
    """A random odd prime in [lo, hi) that satisfies `ok`."""
    while True:
        p = rng.randrange(lo | 1, hi, 2)
        if ok(p) and isprime(p):
            return p


def _distinct_primes(rng, k: int, lo: int, hi: int) -> list[int]:
    primes: set[int] = set()
    while len(primes) < k:
        primes.add(_prime(rng, lo, hi))
    return sorted(primes)


def _coprime(rng, n: int) -> int:
    while True:
        x = rng.randrange(1, n)
        if math.gcd(x, n) == 1:
            return x


def _value(factors) -> int:
    return math.prod(p**e for p, e in factors)


def _gaussian_product(z, factors):
    for g in factors:
        z = (z[0] * g[0] - z[1] * g[1], z[0] * g[1] + z[1] * g[0])
    return z


def _two_square_rep(p: int) -> tuple[int, int]:
    # p = a^2 + b^2 with a >= b > 0, for a prime p = 1 (mod 4); plain scan
    for b in range(1, math.isqrt(p // 2) + 1):
        a = math.isqrt(p - b * b)
        if a * a + b * b == p:
            return a, b
    raise ValueError(f"{p} is not a sum of two squares")


# --- congruence -------------------------------------------------------------

# Smooth moduli of known factorization, by magnitude: (odd primes, prime range).
# mag30 takes nine odd primes, so a residue there has 512 roots. The 2-adic
# exponent and one repeated odd prime vary with the request's index, so each
# class mixes the 2^e ladder and Hensel lifts in fixed proportions.
SMOOTH = {
    "mag06": (3, 70, 140),
    "mag12": (4, 600, 1400),
    "mag18": (6, 600, 1400),
    "mag30": (9, 1500, 3000),
}

# Hard semiprimes p*q with p, q in a 6% band around sqrt(n): trial division
# costs about p/2 steps, so the band pins each request's cost per magnitude.
SEMIPRIME_ROOT = {"semi10": 10**5, "semi11": 316_228, "semi12": 10**6}

# Prime powers whose exponent is fully divided by the discriminant: the
# general solver scans all p^e residues of that factor (cost linear in p^e).
# With these counts the ten slowest requests of a draw are the 3^11 and 3^12
# scans, the two largest semiprime sizes and two of the eight 3^10 scans, so
# the tail percentile falls among like-sized 3^10 scans in every draw.
SCAN_POWERS = {15_625: 4, 59_049: 8, 177_147: 2, 531_441: 2}

JACOBI_QUOTA = 700

# Leading coefficients of the coprime quadratics, taken in turn. The general solver
# works modulo 4|a|n and maps each root back through a linear congruence with
# 2|a| solutions, so its cost grows with a and with the roots modulo a; a fixed
# cycle keeps that cost the same for every seed. None of them divides n.
LEADING = (1, 7, 11, 13)


def _smooth_factors(rng, mag: str, i: int) -> list[tuple[int, int]]:
    k, lo, hi = SMOOTH[mag]
    primes = _distinct_primes(rng, k, lo, hi)
    odd = [(p, 1 + (i % 3 == 1 and j == 0)) for j, p in enumerate(primes)]
    e2 = i % 2 if mag == "mag30" else i % 4
    return ([(2, e2)] if e2 else []) + odd


def _pooled_moduli(rng, mag: str, count: int, odd: bool = False):
    """`count` factorizations, every other one from a pool of four (cache hits)."""
    pick = (lambda i: 4 * i) if odd else (lambda i: i)  # 4i: no factor 2
    pool = [_smooth_factors(rng, mag, pick(i)) for i in range(4)]
    return [
        pool[(i // 2) % 4] if i % 2 == 0 else _smooth_factors(rng, mag, pick(i))
        for i in range(count)
    ]


def _congruence(rng) -> list[Request]:
    reqs = []
    for mag in SMOOTH:
        for i, factors in enumerate(_pooled_moduli(rng, mag, 40)):
            n = _value(factors)
            a = _coprime(rng, n) ** 2 % n if i % 4 != 3 else _coprime(rng, n)
            reqs.append(Request("sqrt_mod", (a, n), {"factors": factors}))
        for i, factors in enumerate(_pooled_moduli(rng, mag, 20)):
            n = _value(factors)
            a = _coprime(rng, n) ** 2 % n if i % 2 else _coprime(rng, n)
            reqs.append(Request("is_qr", (a, n), {"factors": factors}))
    for mag, root in SEMIPRIME_ROOT.items():
        lo, hi = root * 97 // 100, root * 103 // 100
        for _ in range(2):
            p = _prime(rng, lo, hi)
            q = _prime(rng, lo, hi, lambda q: q != p)
            n = p * q
            a = _coprime(rng, n) ** 2 % n
            reqs.append(Request("sqrt_mod", (a, n), {"factors": sorted([(p, 1), (q, 1)])}))
    for mag in ("mag06", "mag12"):
        for i, factors in enumerate(_pooled_moduli(rng, mag, 40, odd=True)):
            n = _value(factors)
            a = LEADING[i % len(LEADING)]
            b = rng.randrange(n)
            if i % 2:
                x0 = rng.randrange(n)
                c = -(a * x0 * x0 + b * x0) % n
            else:
                c = rng.randrange(n)
            reqs.append(Request("solve_quadratic", (a, b, c, n), {"factors": factors}))
    for pe, count in SCAN_POWERS.items():
        p = 5 if pe % 5 == 0 else 3
        e = round(math.log(pe, p))
        for _ in range(count):
            m = _prime(rng, 101, 1000)
            n = pe * m
            b, x0 = rng.randrange(n), rng.randrange(m)
            # monic: c = b^2/4 (mod p^e) makes p^e divide b^2 - 4c; mod m, x0 is a root
            c_pe = b * b * pow(4, -1, pe) % pe
            c_m = -(x0 * x0 + b * x0) % m
            c = (c_pe + pe * ((c_m - c_pe) * pow(pe, -1, m) % m)) % n
            reqs.append(Request("solve_quadratic", (1, b, c, n), {"factors": [(p, e), (m, 1)]}))
    pool = [_prime(rng, 10**29, 10**30) for _ in range(4)]
    for i in range(100):
        p = pool[i // 2 % 4] if i % 2 == 0 else _prime(rng, 10**29, 10**30)
        reqs.append(Request("legendre", (rng.randrange(10**29, 10**30), p), {}))
    # Jacobi requests are the cheapest kind and about 60% of the mix, so the
    # median request is one of them in every draw rather than whichever of
    # several kinds of varying cost happens to straddle the middle.
    for _ in range(JACOBI_QUOTA):
        factors = [(p, 1) for p in _distinct_primes(rng, 3, 2 * 10**9, 10**10)]
        a = rng.randrange(10**29, 10**30)
        reqs.append(Request("jacobi", (a, _value(factors)), {"factors": factors}))
    return reqs


# --- two_squares -------------------------------------------------------------

# represent_prime quotas by magnitude. The pigeonhole search in rep_from_root
# stops after about min(a, b) rows of isqrt(p) + 1 cells, so its time and its
# dict size follow b / sqrt(p/2) for p = a^2 + b^2, b <= a. Each request takes
# its own equal-width stratum of that depth and keeps b within a tenth of the
# stratum's width of its middle (two at least, for the small primes), so every
# draw has the same costs and dict sizes and the seed picks only the primes.
# Drawn across the whole stratum, b moved a draw's time by up to 16% and its
# tail request and peak RSS by up to 25%.
REPRESENT_QUOTA = {10**4: 12, 10**5: 12, 10**6: 6}
SPLIT_POOL = (5, 3000)  # primes = 1 (mod 4) that the composite n are built from
INERT = (3, 7, 11, 19, 23)  # primes = 3 (mod 4), inert in Z(i)
OPERAND_DIGITS = (6, 12, 18, 30)


def _stratified_prime(rng, magnitude: int, stratum: int, strata: int) -> int:
    """A prime p = a^2 + b^2 in [M, 1.1 M) with b near the middle of the stratum's share of sqrt(M/2)."""
    width = math.sqrt(magnitude / 2) / strata
    middle = width * (stratum + 0.5)
    half = max(2.0, width / 10)
    b_lo, b_hi = max(1, math.floor(middle - half)), math.ceil(middle + half)
    while True:
        b = rng.randint(b_lo, b_hi)
        a_lo = max(b + 1, math.isqrt(magnitude - b * b) + 1)
        a_hi = math.isqrt(magnitude * 11 // 10 - b * b)
        if a_lo > a_hi:
            continue
        a = rng.randint(a_lo, a_hi)
        if isprime(a * a + b * b):
            return a * a + b * b


def _split_pool(rng) -> list[int]:
    pool: set[int] = set()
    while len(pool) < 8:
        pool.add(_prime(rng, *SPLIT_POOL, lambda p: p % 4 == 1))
    return sorted(pool)


def _composite(rng, pool: list[int], i: int) -> list[tuple[int, int]]:
    """n = 2^g * prod p^e * q^f from the pool; structure fixed by i, primes by rng.

    One in ten takes an odd power of an inert prime, so it has no representation.
    """
    split = rng.sample(pool, 1 + i % 4)
    factors = {p: 1 + (j == 0 and i % 3 == 2) for j, p in enumerate(split)}
    if i % 3:
        factors[2] = i % 3
    if i % 10 == 9:
        factors[rng.choice(INERT)] = 1
    elif i % 5 == 1:
        factors[rng.choice(INERT)] = 2
    return sorted(factors.items())


def _gaussian_primes(pool: list[int]) -> list[tuple[int, int]]:
    primes = [(1, 1)] + [(q, 0) for q in INERT]
    for p in pool:
        a, b = _two_square_rep(p)
        primes += [(a, b), (a, -b)]
    return primes


def _random_operand(rng, digits: int) -> tuple[int, int]:
    lo, hi = 10 ** (digits - 1), 10**digits
    return tuple(rng.choice((1, -1)) * rng.randrange(lo, hi) for _ in range(2))


def _two_squares(rng) -> list[Request]:
    reqs = []
    for magnitude, quota in REPRESENT_QUOTA.items():
        for stratum in range(quota):
            p = _stratified_prime(rng, magnitude, stratum, quota)
            reqs.append(Request("represent_prime", (p,), {}))
    pool = _split_pool(rng)
    for kind in ("all_representations", "primitive_representations", "count_representations"):
        for i in range(80):
            factors = _composite(rng, pool, i)
            reqs.append(Request(kind, (_value(factors),), {"factors": factors}))
    gprimes = _gaussian_primes(pool)
    units = ((1, 0), (0, 1), (-1, 0), (0, -1))
    for i in range(80):
        chosen = [rng.choice(gprimes) for _ in range(2 + i % 3)]
        z = _gaussian_product(rng.choice(units), chosen)
        reqs.append(Request("gaussian_factor", z, {"primes": chosen}))
    for digits in OPERAND_DIGITS:
        for _ in range(40):
            alpha, beta = _random_operand(rng, digits), _random_operand(rng, digits)
            reqs.append(Request("gaussian_gcd", alpha + beta, {}))
        # div_rem is the cheapest kind and most of the mix, so the median
        # request is a Z(i) division in every draw
        for _ in range(200):
            alpha = _random_operand(rng, digits)
            beta = _random_operand(rng, max(1, digits // 2))
            reqs.append(Request("div_rem", alpha + beta, {}))
    return reqs


# --- cli ---------------------------------------------------------------------

# Every subcommand on desk-scale inputs (< 10^6): argparse, dispatch and output
# formatting cost as much as the arithmetic here. Half of the requests of each
# kind ask for --json. Oracle-backed `verify` scans stay below 10^4 points.


def _odd(rng, lo: int, hi: int) -> int:
    return rng.randrange(lo, hi) | 1


def _cli_jacobi(rng, i):
    return ["jacobi", str(rng.randrange(-10**6, 10**6)), str(_odd(rng, 3, 10**6))], {}


def _cli_legendre(rng, i):
    if i % 3 == 2:
        p = _prime(rng, 3, 10**4)
        return ["legendre", str(rng.randrange(1, p)), str(p), "--method", "gauss-lemma"], {}
    return ["legendre", str(rng.randrange(10**6)), str(_prime(rng, 3, 10**6))], {}


def _cli_sqrtmod(rng, i):
    factors = [(p, 1) for p in _distinct_primes(rng, 2, 11, 300)]
    factors = ([(2, i % 4)] if i % 4 else []) + factors
    n = _value(factors)
    a = _coprime(rng, n) ** 2 % n if i % 2 else _coprime(rng, n)
    return ["sqrtmod", str(a), str(n)], {"factors": factors}


def _cli_solve_quadratic(rng, i):
    n = rng.randrange(100, 20_000)
    a, b, c = rng.randrange(1, 50), rng.randrange(-n, n), rng.randrange(-n, n)
    return ["solve-quadratic", str(a), str(b), str(c), "--mod", str(n)], {}


def _cli_solve_linear(rng, i):
    n = rng.randrange(2, 20_000)
    g = rng.choice((1, 2, 3, 6, 10))
    return ["solve-linear", str(g * rng.randrange(1, n)), str(g * rng.randrange(n)), "--mod", str(n)], {}


def _cli_two_squares(rng, i):
    # the pigeonhole search costs O(p) for each prime p = 1 (mod 4) dividing n
    action = ("count", "list", "primitive", "represent-prime")[i % 4]
    if action == "represent-prime":
        n = _prime(rng, 5, 20_000, lambda p: p % 4 == 1)
    else:
        n = rng.randrange(1, 20_000)
    return ["two-squares", action, str(n)], {}


def _gaussian_text(z) -> str:
    re, im = z
    sign = "+" if im >= 0 else "-"
    return f"{re}{sign}{abs(im)}i"


SMALL_GAUSSIAN_PRIMES = ((1, 1), (3, 0), (7, 0), (2, 1), (2, -1), (3, 2), (3, -2), (4, 1), (5, 2))


def _cli_gaussian(rng, i):
    action = ("norm", "divrem", "gcd", "factor", "is-prime")[i % 5]
    if action == "factor":
        # two to four primes of norm at most 29, so the norm stays below 10^6
        chosen = [rng.choice(SMALL_GAUSSIAN_PRIMES) for _ in range(2 + i // 5 % 3)]
        z = _gaussian_product((1, 0), chosen)
        return ["gaussian", "factor", "--", _gaussian_text(z)], {"primes": chosen}
    operands = [(rng.randrange(-999, 1000), rng.randrange(-999, 1000)) for _ in range(2)]
    if action == "divrem" and operands[1] == (0, 0):
        operands[1] = (1, 1)
    if action == "gcd" and operands[0] == operands[1] == (0, 0):
        operands[0] = (1, 0)
    arity = 2 if action in ("divrem", "gcd") else 1
    return ["gaussian", action, "--"] + [_gaussian_text(z) for z in operands[:arity]], {}


def _opposite_parity_coprime(rng, hi: int) -> tuple[int, int]:
    while True:
        m = rng.randrange(2, hi)
        n = rng.randrange(1, m)
        if (m - n) % 2 and math.gcd(m, n) == 1:
            return m, n


def _cli_pyth_triple(rng, i):
    m, n = _opposite_parity_coprime(rng, 1000)
    return ["pyth-triple", str(m), str(n)], {}


# The enumerations cost about R (triples) and W^2 (quadruples). Each request
# takes its own stratum of the bound, so the slowest requests, which set the
# tail, are the same mix for every seed.
ENUM_QUOTA = 8


def _cli_triples(rng, i):
    return ["triples", "--max", str(200 + 225 * i + rng.randrange(225))], {}


def _cli_cz2(rng, i):
    while True:
        u = rng.randrange(1, 30)
        v = rng.randrange(0, u)
        if math.gcd(u, v) == 1:
            break
    d3, g = rng.choice((1, 1, 3, 7)), i % 2
    m, n = _opposite_parity_coprime(rng, 60)
    while math.gcd(m * m + n * n, d3) != 1:
        m, n = _opposite_parity_coprime(rng, 60)
    c = d3 * d3 * 2**g * (u * u + v * v)
    argv = ["cz2", "--c", str(c), "--d3", str(d3), "--uv", str(u), str(v), "--g", str(g)]
    return argv + ["--triple", str(m), str(n)], {}


def _cli_zl(rng, i):
    a, b = _opposite_parity_coprime(rng, 100)
    return ["zl", str(rng.randrange(2, 8)), str(a), str(b)], {}


def _cli_quadruple(rng, i):
    while True:
        params = [rng.randrange(-30, 31) for _ in range(4)]
        if math.gcd(*params) == 1:
            return ["quadruple"] + [str(x) for x in params], {}


def _cli_quadruples(rng, i):
    return ["quadruples", "--max", str(10 + 4 * i + rng.randrange(4))], {}


def _cli_verify(rng, i):
    kind = i % 5
    if kind == 0:
        p = _prime(rng, 3, 10**4)
        inner = ["legendre", str(rng.randrange(1, p)), str(p)]
    elif kind == 1:
        inner = ["jacobi", str(rng.randrange(10**6)), str(_odd(rng, 3, 10**6))]
    elif kind == 2:
        n = rng.randrange(2, 5000)
        inner = ["sqrtmod", str(_coprime(rng, n)), str(n)]
    elif kind == 3:
        n = rng.randrange(100, 5000)
        inner = ["solve-quadratic", str(rng.randrange(1, 50)), str(rng.randrange(n)), str(rng.randrange(n)), "--mod", str(n)]
    else:
        action = ("count", "list", "primitive")[i // 5 % 3]
        inner = ["two-squares", action, str(rng.randrange(2, 10**4))]
    return ["verify", "--"] + inner, {}


CLI_QUOTA = (
    (_cli_jacobi, 30),
    (_cli_legendre, 24),
    (_cli_sqrtmod, 24),
    (_cli_solve_quadratic, 20),
    (_cli_solve_linear, 10),
    (_cli_two_squares, 32),
    (_cli_gaussian, 40),
    (_cli_pyth_triple, 8),
    (_cli_triples, ENUM_QUOTA),
    (_cli_cz2, 8),
    (_cli_zl, 8),
    (_cli_quadruple, 8),
    (_cli_quadruples, ENUM_QUOTA),
    (_cli_verify, 20),
)


def _cli(rng) -> list[Request]:
    reqs = []
    for build, quota in CLI_QUOTA:
        for i in range(quota):
            argv, meta = build(rng, i)
            if i % 2:
                argv = [argv[0], "--json", *argv[1:]]
            reqs.append(Request("cli", tuple(argv), meta))
    return reqs


_BUILDERS = {"congruence": _congruence, "two_squares": _two_squares, "cli": _cli}
