"""Square roots modulo n: X^2 = a (mod n).

One root finder serves every caller: `_quadratic_roots` solves
f(X) = a*X^2 + b*X + c = 0 (mod n) one prime power p^e at a time and joins
the parts by CRT; `sqrt_mod(a, n)` is the case (1, 0, -a). Modulo p^e it runs
Hensel's lemma in Newton's form (Cohen, A Course in Computational Algebraic
Number Theory, 1.5) on a worklist of problems X = x0 + s*Y, g(Y) = 0 (mod p^k),
starting from g = f, k = e, x0 = 0, s = 1:

1. Divide out the p-content of g, lowering k by one per factor p. At k = 0
   every Y is a root, so X = x0 (mod s) and all its p^e/s lifts are roots.
2. Find the roots r of g mod p: for odd p, (t - b)/(2a) over the square roots
   t of the discriminant (`sqrt_mod_prime`, Tonelli-Shanks for every p), or
   -c/b when p | a; for p = 2, whichever of 0 and 1 is a root.
3. Where g'(r) is a unit mod p, Newton's iteration lifts r to the unique root
   mod p^k, which fixes X mod d = s*p^k; its p^e/d lifts are roots. Where it
   is not, r is a repeated root: shift Y = r + pZ and push
   g(r + pZ)/p = a*p*Z^2 + g'(r)*Z + g(r)/p (mod p^(k-1)), with x0 += s*r
   and s *= p.

Each step lowers k, and g'(r) fails to be a unit for at most one root r, so
the worklist is a chain of at most e problems. The rule covers the paper's
three cases at once: the odd-prime base case, Hensel lifting to p^e and the
ladder for 2, 4 and 2^e (X = 1 + 2Y turns X^2 = u into Y^2 + Y + (1 - u)/4,
whose derivative is odd).
"""

import math

from .core import ResidueSet, _odd_part, crt_combine, factorize, jacobi
from .errors import NotCoprime, check_positive
from .symbols import _check_odd_prime


def sqrt_mod_prime(a: int, p: int) -> ResidueSet:
    """Solutions of X^2 = a (mod p), p an odd prime, gcd(a, p) = 1.

    Empty when a is a non-residue, else exactly {b, p - b}, by Tonelli-Shanks
    (Cohen, Alg. 1.5.1). With p - 1 = q * 2^s, q odd, Euler's criterion is
    (a^q)^(2^(s-1)) = 1; for s = 1, i.e. p = 3 (mod 4), the root is the closed
    form a^((p+1)/4) and no non-residue is sought.
    """
    _check_odd_prime(p)
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"gcd({a}, {p}) != 1")
    a %= p
    q, s = _odd_part(p - 1)
    w = pow(a, (q - 1) // 2, p)  # one power for x = a^((q+1)/2) and t = a^q
    x = a * w % p
    t = x * w % p
    if pow(t, 1 << (s - 1), p) != 1:
        return ResidueSet(p, ())
    if t != 1:
        z = 2
        while jacobi(z, p) != -1:
            z += 1
        c = pow(z, q, p)
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
    return ResidueSet(p, tuple(sorted((x, p - x))))


def _quadratic_prime_power_roots(a: int, b: int, c: int, p: int, e: int) -> tuple[int, ...]:
    """All roots of a*X^2 + b*X + c = 0 (mod p^e), sorted; see the module docstring."""
    pe = p**e
    roots: list[int] = []
    # (a, b, c, k, x0, s): X = x0 + s*Y with a*Y^2 + b*Y + c = 0 (mod p^k), x0 < s
    work = [(a, b, c, e, 0, 1)]
    while work:
        a, b, c, k, x0, s = work.pop()
        pk = p**k
        a, b, c = a % pk, b % pk, c % pk
        while k and a % p == 0 and b % p == 0 and c % p == 0:
            a, b, c, k, pk = a // p, b // p, c // p, k - 1, pk // p
        if k == 0:
            roots += range(x0, pe, s)
            continue
        if p == 2:
            base = [r for r in (0, 1) if ((a * r + b) * r + c) % 2 == 0]
        elif a % p == 0:
            base = [-c * pow(b, -1, p) % p] if b % p else []
        else:
            disc = (b * b - 4 * a * c) % p
            ts = sqrt_mod_prime(disc, p).residues if disc else (0,)
            base = [(t - b) * pow(2 * a, -1, p) % p for t in ts]
        for r in base:
            if (2 * a * r + b) % p:
                while (fr := (a * r + b) * r + c) % pk:
                    r = (r - fr * pow(2 * a * r + b, -1, pk)) % pk
                roots += range(x0 + s * r, pe, s * pk)
            else:
                fr = (a * r + b) * r + c
                work.append((a * p, 2 * a * r + b, fr // p, k - 1, x0 + s * r, s * p))
    return tuple(sorted(roots))


def _quadratic_roots(a: int, b: int, c: int, n: int) -> ResidueSet:
    """All roots of a*X^2 + b*X + c = 0 (mod n), n >= 1; see the module docstring."""
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
    check_positive("modulus", n)
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({a}, {n}) != 1")
    return _quadratic_roots(1, 0, -a, n)


def is_quadratic_residue(a: int, n: int) -> bool:
    """Solvability of X^2 = a (mod n) without enumerating the solutions.

    Checks (a/p) = 1 by `jacobi` at every odd prime divisor plus the 2-adic
    condition a = 1 mod 2, 4 or 8 depending on the power of 2 dividing n.
    """
    check_positive("modulus", n)
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({a}, {n}) != 1")
    for p, e in factorize(n).factors:
        if p == 2:
            if a % (1 << min(e, 3)) != 1:
                return False
        elif jacobi(a, p) != 1:
            return False
    return True
