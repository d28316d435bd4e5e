"""Square roots modulo n: X^2 = a (mod n).

Base case modulo an odd prime, Hensel lifting to odd prime powers, the
separate ladder for 2, 4 and 2^e, and CRT assembly of the full solution set.

One root finder serves every caller: `_quadratic_roots` solves
a*X^2 + b*X + c = 0 (mod n) one prime power p^e at a time and joins the
parts by CRT; `sqrt_mod(a, n)` is the case (1, 0, -a). Modulo p^e:

1. Divide out the p-content p^m of (a, b, c), m <= e, and let k = e - m.
   Each root r mod p^k stands for the p^m roots r + j*p^k mod p^e.
2. If p does not divide a, and p is odd or b even, complete the square:
   with 2h = b (mod p^k), a*f(X) = (aX + h)^2 - (h^2 - ac), so
   X = (t - h)/a for the roots t of T^2 = h^2 - ac (mod p^k).
3. Otherwise f' = b (mod p) at every X. If p | b there are no roots (p | a,
   so p does not divide c); else each root mod p (-c/b when p | a; 0 and 1
   when p = 2, a is odd and c even) lifts uniquely by Newton's iteration.

Case 2 takes T^2 = d (mod p^k) by the p-adic rule. With d = p^v * u mod p^k,
p not dividing u: d = 0 gives the multiples of p^ceil(k/2); odd v gives no
roots; even v gives p^(v/2) * y, y running over the roots of y^2 = u
(mod p^(k-v)) taken mod p^(k-v/2), from Hensel lifting or the 2^e ladder.
"""

from __future__ import annotations

import math

from .core import ResidueSet, crt_combine, factorize, mod_inverse
from .errors import EvenArgument, NotCoprime
from .symbols import _check_odd_prime, legendre_euler


def _tonelli_shanks(a: int, p: int) -> int:
    # a is a known quadratic residue of the odd prime p
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def sqrt_mod_prime(a: int, p: int) -> ResidueSet:
    """Solutions of X^2 = a (mod p), p an odd prime, gcd(a, p) = 1.

    Empty when a is a non-residue, else exactly {b, p - b}. Uses the
    closed form a^((p+1)/4) for p = 3 (mod 4) and Tonelli-Shanks otherwise.
    """
    _check_odd_prime(p)
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"gcd({a}, {p}) != 1")
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        return ResidueSet(p, ())
    if p % 4 == 3:
        b = pow(a, (p + 1) // 4, p)
    else:
        b = _tonelli_shanks(a, p)
    return ResidueSet(p, tuple(sorted((b, p - b))))


def lift_odd_prime_power(a: int, p: int, e: int) -> ResidueSet:
    """Solutions of X^2 = a (mod p^e) by iterated Hensel lifting.

    Each root x mod p^k with x^2 = a + l*p^k lifts uniquely to
    x + y*p^k where 2x*y = -l (mod p); the count stays 0 or 2.
    """
    _check_odd_prime(p)
    if e < 1:
        raise ValueError("exponent must be at least 1")
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"gcd({a}, {p}) != 1")
    pe = p**e
    a0 = a % pe
    base = sqrt_mod_prime(a0, p)
    if not base.residues:
        return ResidueSet(pe, ())
    roots = list(base.residues)
    mod_k = p
    for _ in range(e - 1):
        lifted = []
        for x in roots:
            l = (x * x - a0) // mod_k
            y = -l * mod_inverse(2 * x, p) % p
            lifted.append(x + y * mod_k)
        mod_k *= p
        roots = lifted
    return ResidueSet(pe, tuple(sorted(x % pe for x in roots)))


def sqrt_mod_2e(a: int, e: int) -> ResidueSet:
    """Solutions of X^2 = a (mod 2^e) for odd a.

    e = 1: always {1}. e = 2: {1, 3} iff a = 1 (mod 4). e >= 3: solvable
    iff a = 1 (mod 8), with the four roots {x, -x, x + 2^(e-1), -x + 2^(e-1)}
    built by lifting x across one power of two at a time.
    """
    if a % 2 == 0:
        raise EvenArgument(f"{a} must be odd")
    if e < 1:
        raise ValueError("exponent must be at least 1")
    m = 1 << e
    a0 = a % m
    if e == 1:
        return ResidueSet(2, (1,))
    if e == 2:
        return ResidueSet(4, (1, 3) if a0 % 4 == 1 else ())
    if a0 % 8 != 1:
        return ResidueSet(m, ())
    x = 1
    for k in range(3, e):
        l = (x * x - a0) // (1 << k)
        if l % 2:
            x += 1 << (k - 1)
    sols = {x % m, -x % m, (x + (m >> 1)) % m, (-x + (m >> 1)) % m}
    return ResidueSet(m, tuple(sorted(sols)))


def _prime_power_roots(d: int, p: int, e: int) -> tuple[int, ...]:
    """All roots of T^2 = d (mod p^e), sorted, by the p-adic rule."""
    pe = p**e
    d %= pe
    if d == 0:
        step = p ** ((e + 1) // 2)
        return tuple(step * j for j in range(p ** (e // 2)))
    u, v = d, 0
    while u % p == 0:
        u //= p
        v += 1
    if v % 2:
        return ()
    half = v // 2
    k = e - v
    base = sqrt_mod_2e(u, k) if p == 2 else lift_odd_prime_power(u, p, k)
    if v == 0:
        return base.residues
    # y mod p^(e-half) is y mod p^k plus j*p^k; scaling by p^half keeps it below p^e
    scale, step = p**half, p**k
    return tuple(scale * (j * step + y) for j in range(scale) for y in base.residues)


def _quadratic_prime_power_roots(a: int, b: int, c: int, p: int, e: int) -> tuple[int, ...]:
    """All roots of a*X^2 + b*X + c = 0 (mod p^e), sorted; see the module docstring."""
    pe = p**e
    a, b, c = a % pe, b % pe, c % pe
    m = 0
    while m < e and a % p == 0 and b % p == 0 and c % p == 0:
        a, b, c = a // p, b // p, c // p
        m += 1
    k = e - m
    pk = p**k
    if k == 0:
        roots = (0,)
    elif a % p and (p != 2 or b % 2 == 0):  # case 2: 2h = b (mod p^k)
        h = b // 2 if b % 2 == 0 else b * (pk + 1) // 2 % pk
        roots = _prime_power_roots(h * h - a * c, p, k)
        if a != 1 or h != 0:
            a_inv = mod_inverse(a, pk)
            roots = tuple(sorted((t - h) * a_inv % pk for t in roots))
    elif b % p == 0:  # case 3, p | a and p | b
        return ()
    else:  # case 3, f' a unit mod p
        if a % p == 0:
            base = (-c * mod_inverse(b, p) % p,)
        else:
            base = (0, 1) if c % 2 == 0 else ()
        lifted = []
        for r in base:
            while (fr := (a * r + b) * r + c) % pk:
                r = (r - fr * mod_inverse(2 * a * r + b, pk)) % pk
            lifted.append(r)
        roots = tuple(sorted(lifted))
    return roots if m == 0 else tuple(r + j * pk for j in range(p**m) for r in roots)


def _quadratic_roots(a: int, b: int, c: int, n: int) -> ResidueSet:
    """All roots of a*X^2 + b*X + c = 0 (mod n), n >= 1; see the module docstring."""
    if n == 1:
        return ResidueSet(1, (0,))
    parts = []
    for p, e in factorize(n).factors:
        roots = _quadratic_prime_power_roots(a, b, c, p, e)
        if not roots:
            return ResidueSet(n, ())
        parts.append(ResidueSet(p**e, roots))
    return crt_combine(parts)


def sqrt_mod(a: int, n: int) -> ResidueSet:
    """All solutions of X^2 = a (mod n), gcd(a, n) = 1, via factor + lift + CRT.

    When nonempty the residue count is 2^s, 2^(s+1) or 2^(s+2) according to
    the exponent of 2 in n being <= 1, = 2 or >= 3, with s the number of odd
    prime divisors.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({a}, {n}) != 1")
    return _quadratic_roots(1, 0, -a, n)


def is_quadratic_residue(a: int, n: int) -> bool:
    """Solvability of X^2 = a (mod n) without enumerating the solutions.

    Checks (a/p) = 1 at every odd prime divisor plus the 2-adic condition
    a = 1 mod 2, 4 or 8 depending on the power of 2 dividing n.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({a}, {n}) != 1")
    if n == 1:
        return True
    for p, e in factorize(n).factors:
        if p == 2:
            if e == 2 and a % 4 != 1:
                return False
            if e >= 3 and a % 8 != 1:
                return False
        elif legendre_euler(a, p) != 1:
            return False
    return True
