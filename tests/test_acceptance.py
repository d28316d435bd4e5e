"""Acceptance suite: the exit criteria for the library, one test per criterion.

Every check is exact (integer arithmetic, set equality); the only tolerances
are the runtime caps stated next to the criteria. Run with `pytest -s` to see
one PASS/FAIL line per criterion.

Criterion 11 asserts the cofactor law for x = a * V: gcd(a, V) = gcd(a, l),
because V_n(a, b) = (-1)^n * l * b^(2n) (mod a) and gcd(a, b) = 1. The
source paper states gcd(a, V) = 1 for every valid pair, which is false
whenever gcd(a * b, l) > 1; the criterion checks the witness l = 3, a = 3,
b = 2 ((3+2i)^3 = -9+46i, V = -3, gcd(3, -3) = 3) against that claim.
"""

import math
import time

from conftest import odd_primes_upto, primes_upto, rn_poly as _rn_poly
from quadres.congruences import QuadCongruence, solve_quadratic
from quadres.core import factorize
from quadres.diophantine import (
    cz2_solution,
    enumerate_primitive_triples,
    enumerate_quadruples,
    pyth_quadruple,
    vn_poly,
    zl_solution,
)
from quadres.gaussian import (
    GaussianInt,
    canonical_associate,
    div_rem,
    factor,
    is_unit,
    norm,
)
from quadres.oracle import (
    brute_legendre,
    brute_quadratic,
    brute_sqrt_mod,
    brute_two_squares,
    count_representations_by_divisors,
    jacobi_by_definition,
    legendre_euler_criterion,
    legendre_gauss_lemma,
)
from quadres.sqrtmod import sqrt_mod
from quadres.symbols import jacobi, legendre_euler
from quadres.two_squares import (
    count_representations,
    has_primitive_representation,
    primitive_representations,
    rep_from_root,
)


def _report(label: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    timing = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{status}  {label}{timing}")
    assert not failures, f"{label}: {failures[:5]}"


def _best_of(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_jacobi_golden_vector():
    failures = []
    if jacobi(365, 1847) != 1:
        failures.append("jacobi(365, 1847) != 1")
    if jacobi_by_definition(365, 1847) != 1:
        failures.append("jacobi_by_definition(365, 1847) != 1")
    elapsed = _best_of(lambda: jacobi(365, 1847))
    if elapsed >= 1e-3:
        failures.append(f"jacobi runtime {elapsed:.6f}s >= 1ms")
    _report("criterion 01: jacobi golden vector (365/1847), < 1 ms", failures)


def test_criterion_02_quadratic_golden_vectors():
    failures = []
    cases = [
        (QuadCongruence(3, 7, -1, 15), solve_quadratic, (4, 7)),
        (QuadCongruence(3, 7, -1, 195), solve_quadratic, (7, 34, 112, 124)),
        (
            QuadCongruence(3, 7, -1, 1235),
            solve_quadratic,
            (34, 72, 319, 502, 749, 787, 1022, 1034),
        ),
    ]
    for q, solver, expected in cases:
        got = solver(q).residues
        if got != expected:
            failures.append((q.n, got))

    def all_three():
        for q, solver, _ in cases:
            solver(q)

    elapsed = _best_of(all_three)
    if elapsed >= 10e-3:
        failures.append(f"total runtime {elapsed:.6f}s >= 10ms")
    _report("criterion 02: quadratic congruence golden vectors, < 10 ms", failures)


def test_criterion_03_sqrt_mod_golden_vectors():
    failures = []
    if sqrt_mod(61, 180).residues != (31, 41, 49, 59, 121, 131, 139, 149):
        failures.append("sqrt_mod(61, 180)")
    got = sqrt_mod(61, 2340).residues
    expected = (49, 211, 419, 491, 679, 751, 959, 1121, 1219, 1381,
                1589, 1661, 1849, 1921, 2129, 2291)
    if got != expected or len(got) != 16:
        failures.append(("sqrt_mod(61, 2340)", got))
    if sqrt_mod(2, 9).residues != ():
        failures.append("sqrt_mod(2, 9) should be empty")
    if jacobi(2, 9) != 1:
        failures.append("jacobi(2, 9) != +1")
    _report("criterion 03: modular square root golden vectors", failures)


def test_criterion_04_symbol_oracle_sweep():
    t0 = time.perf_counter()
    failures = []
    for p in odd_primes_upto(1000):
        residues = 0
        for a in range(1, p):
            e = legendre_euler(a, p)
            g = legendre_gauss_lemma(a, p)
            j = jacobi(a, p)
            b = brute_legendre(a, p)
            c = legendre_euler_criterion(a, p)
            if not (e == g == j == b == c):
                failures.append((a, p, e, g, j, b, c))
            if c == 1:
                residues += 1
        if residues != (p - 1) // 2:
            failures.append((p, "split", residues))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report("criterion 04: five-way symbol agreement, p < 1000, < 60 s",
            failures, elapsed)


def test_criterion_05_reciprocity_and_supplements():
    failures = []
    primes = odd_primes_upto(500)
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            sign = (-1) ** ((p - 1) // 2 * ((q - 1) // 2))
            if jacobi(p, q) * jacobi(q, p) != sign:
                failures.append((p, q))
    for n in range(1, 10**4, 2):
        if jacobi(-1, n) != (-1) ** ((n - 1) // 2):
            failures.append((-1, n))
        if jacobi(2, n) != (-1) ** ((n * n - 1) // 8):
            failures.append((2, n))
    _report("criterion 05: reciprocity p, q < 500 and supplements n < 10^4",
            failures)


def test_criterion_06_sqrt_oracle_sweep():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 501):
        e0, s = 0, 0
        m = n
        while m % 2 == 0:
            m //= 2
            e0 += 1
        s = len(factorize(m).factors) if m > 1 else 0
        expected = 2**s * (1 if e0 <= 1 else 2 if e0 == 2 else 4)
        for a in range(n):
            if math.gcd(a, n) != 1:
                continue
            got = sqrt_mod(a, n)
            if got.residues != brute_sqrt_mod(a, n).residues:
                failures.append((a, n))
            elif got.residues and n > 1 and len(got) != expected:
                failures.append((a, n, "count", len(got), expected))
    elapsed = time.perf_counter() - t0
    _report("criterion 06: sqrt_mod = brute force, n <= 500, count law",
            failures, elapsed)


def test_criterion_07_quadratic_oracle_sweep():
    # all moduli n <= 150 against a deterministic coefficient sample that
    # includes zero and non-coprime discriminants
    t0 = time.perf_counter()
    failures = []
    a_values = (-10, -7, -5, -3, -2, -1, 1, 2, 3, 4, 6, 9, 10)
    b_values = (-10, -6, -3, -1, 0, 2, 5, 7)
    c_values = (-8, -5, -2, -1, 0, 1, 3, 6, 10)
    for n in range(2, 151):
        for a in a_values:
            if a % n == 0:
                continue
            for b in b_values:
                for c in c_values:
                    got = solve_quadratic(QuadCongruence(a, b, c, n)).residues
                    want = brute_quadratic(a, b, c, n).residues
                    if got != want:
                        failures.append((a, b, c, n))
    elapsed = time.perf_counter() - t0
    _report("criterion 07: solve_quadratic = brute force on coefficient grid",
            failures, elapsed)


def test_criterion_08_representation_count_identity():
    t0 = time.perf_counter()
    failures = []
    # from n = 0, whose one representation is 0 = 0^2 + 0^2
    for n in range(10**4 + 1):
        by_divisors = count_representations_by_divisors(n)
        by_exponents = count_representations(n)
        lattice = len(brute_two_squares(n))
        if not (by_divisors == by_exponents == lattice):
            failures.append((n, by_divisors, by_exponents, lattice))
    if count_representations(1) != 4:
        failures.append("r(1) != 4")
    if count_representations(3) != 0:
        failures.append("r(3) != 0")
    for p in primes_upto(1000):
        if p % 4 == 1 and count_representations(p) != 8:
            failures.append((p, "r(p) != 8"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report("criterion 08: r(n) three-way identity, n <= 10^4, < 60 s",
            failures, elapsed)


def test_criterion_09_gaussian_ring_laws():
    t0 = time.perf_counter()
    failures = []
    grid = [GaussianInt(x, y) for x in range(-30, 31) for y in range(-30, 31)]
    betas = [g for g in grid if g != GaussianInt(0, 0)
             and (max(abs(g.re), abs(g.im)) <= 8
                  or (g.re % 5 == 0 and g.im % 5 == 0))]
    for alpha in grid:
        for beta in betas:
            kappa, rho = div_rem(alpha, beta)
            if kappa * beta + rho != alpha or 2 * norm(rho) > norm(beta):
                failures.append((alpha, beta))
    for xi in grid:
        n = norm(xi)
        if n <= 1:
            continue
        f = factor(xi)
        if f.value() != xi:
            failures.append(("reassembly", xi))
        for prime, _ in f.factors:
            if prime != canonical_associate(prime):
                failures.append(("canonical", xi))
    # determinism across associates: same canonical factors, unit absorbs the turn
    for xi in grid[:1500]:
        if norm(xi) <= 1:
            continue
        base = factor(xi).factors
        for u in (GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(0, -1)):
            f = factor(xi * u)
            if f.factors != base or not is_unit(f.unit):
                failures.append(("associate determinism", xi, u))
    # full disk of norms <= 5000 for reassembly
    r = math.isqrt(5000)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            xi = GaussianInt(x, y)
            if 1 < norm(xi) <= 5000:
                if factor(xi).value() != xi:
                    failures.append(("disk reassembly", xi))
    elapsed = time.perf_counter() - t0
    _report("criterion 09: Z(i) division bound, factor reassembly to norm 5000",
            failures, elapsed)


def test_criterion_10_primitive_representation_bijection():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 2001):
        if not has_primitive_representation(n):
            continue
        roots = sqrt_mod(n - 1, n).residues
        reps = primitive_representations(n)
        if len(roots) != len(reps):
            failures.append((n, "count", len(roots), len(reps)))
            continue
        rep_pairs = {(r.a, r.b) for r in reps}
        images = set()
        for k in roots:
            rep = rep_from_root(k, n)
            pair = (rep.a, rep.b)
            if (
                rep.a <= 0
                or rep.b <= 0
                or rep.a**2 + rep.b**2 != n
                or math.gcd(rep.a, rep.b) != 1
                or (k * rep.a - rep.b) % n != 0
                or pair not in rep_pairs
            ):
                failures.append((n, k, pair))
            images.add(pair)
        if len(images) != len(roots):
            failures.append((n, "not injective"))
    elapsed = time.perf_counter() - t0
    _report("criterion 10: root <-> primitive representation bijection, n <= 2000",
            failures, elapsed)


def _valid_pairs(limit):
    return [
        (a, b)
        for a in range(2, limit + 1)
        for b in range(1, a)
        if math.gcd(a, b) == 1 and (a - b) % 2 == 1
    ]


def test_criterion_11_diophantine_identities():
    t0 = time.perf_counter()
    failures = []

    # powers-of-(a+ib) identities for l = 3, 5, 7, 9, 11 and valid (a, b) <= 12.
    # Modulo a only the last term of V_n(a, b) survives, so
    # V_n(a, b) = (-1)^n * l * b^(2n) (mod a) and gcd(a, V_n(a, b)) = gcd(a, l);
    # likewise gcd(b, V_n(b, a)) = gcd(b, l).
    for l in (3, 5, 7, 9, 11):
        n = (l - 1) // 2
        for a, b in _valid_pairs(12):
            sol = zl_solution(l, a, b)
            u = vn_poly(n, a, b)
            v = (-1) ** n * vn_poly(n, b, a)
            if sol.x != a * u:
                failures.append(("x = a*V_n(a,b)", l, a, b))
            if sol.y != b * v:
                failures.append(("y = b*(-1)^n*V_n(b,a)", l, a, b))
            if math.gcd(a, u) != math.gcd(a, l):
                failures.append(("gcd(a, V_n(a,b)) = gcd(a, l)", l, a, b))
            if math.gcd(b, v) != math.gcd(b, l):
                failures.append(("gcd(b, V_n(b,a)) = gcd(b, l)", l, a, b))
            if (u - v) % sol.z != 0 or math.gcd(u, v) != 1:
                failures.append(("cofactor congruence/coprimality", l, a, b))
            if sol.x**2 + sol.y**2 != sol.z**l:
                failures.append(("defining equation", l, a, b))
    # erratum witness: the paper's stated gcd(a, V_n(a, b)) = 1 fails here
    sol = zl_solution(3, 3, 2)
    u = vn_poly(1, 3, 2)
    if (sol.x, sol.y, sol.z) != (-9, 46, 13) or u != -3 or math.gcd(3, u) != 3:
        failures.append(("erratum witness (3+2i)^3 = -9+46i, V = -3", sol, u))
    for n in range(0, 6):
        l = 2 * n + 1
        for x in range(-8, 9):
            for y in range(-8, 9):
                lhs = (x + y) ** l + (x - y) ** l
                if lhs != 2 * x * vn_poly(n, x, y) + 4 * x * y * _rn_poly(n, x, y):
                    failures.append(("expansion", n, x, y))
                z = x * x + y * y
                acc = z**n
                for j in range(n):
                    w = GaussianInt(x, y) ** (2 * (n - j))
                    wc = GaussianInt(x, -y) ** (2 * (n - j))
                    acc += z**j * (w.re + wc.re)
                if (-1) ** n * vn_poly(n, y, x) != acc:
                    failures.append(("resolvent", n, x, y))

    # triple bijection up to r = 200
    brute = set()
    for s in range(2, 201, 2):
        for t in range(1, 201):
            rr = s * s + t * t
            r = math.isqrt(rr)
            if r * r == rr and r <= 200 and math.gcd(s, t) == 1:
                brute.add((s, t, r))
    generated = {(t.s, t.t, t.r) for t in enumerate_primitive_triples(200)}
    if generated != brute:
        failures.append(("triples", generated ^ brute))

    # quadruple coverage up to w = 50
    brute_quads = set()
    for x in range(1, 51):
        for y in range(x, 51):
            for z in range(y, 51):
                ww = x * x + y * y + z * z
                w = math.isqrt(ww)
                if w * w == ww and w <= 50 and math.gcd(math.gcd(x, y), z) == 1:
                    brute_quads.add((x, y, z, w))
    generated_quads = {(q.x, q.y, q.z, q.w) for q in enumerate_quadruples(50)}
    if generated_quads != brute_quads:
        failures.append(("quadruples", generated_quads ^ brute_quads))

    # every generated tuple satisfies its equation, parameter grids up to 30
    triples = enumerate_primitive_triples(30 * 30 + 30)
    uv = [(u, v) for u in range(1, 31) for v in range(u) if math.gcd(u, v) == 1]
    for tr in triples:
        if tr.m > 30:
            continue
        for u, v in uv:
            for g in (0, 1):
                for d3 in (1, 2, 3):
                    if math.gcd(tr.r, d3) != 1:
                        continue
                    c = d3 * d3 * 2**g * (u * u + v * v)
                    sol = cz2_solution(c, d3, u, v, g, tr)
                    if sol.x**2 + sol.y**2 != c * sol.z**2:
                        failures.append(("cz2", c, d3, u, v, g, tr.m, tr.n))
    for l in range(2, 12):
        for a, b in _valid_pairs(30):
            sol = zl_solution(l, a, b)
            if sol.x**2 + sol.y**2 != sol.z**l:
                failures.append(("zl", l, a, b))
    for m in range(31):
        for n in range(31):
            for u in range(31):
                for v in range(31):
                    if math.gcd(math.gcd(m, n), math.gcd(u, v)) != 1:
                        continue
                    q = pyth_quadruple(m, n, u, v)
                    if q.x**2 + q.y**2 + q.z**2 != q.w**2:
                        failures.append(("quadruple", m, n, u, v))

    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _report("criterion 11: Diophantine identities, bijections and coverage, < 120 s",
            failures, elapsed)
