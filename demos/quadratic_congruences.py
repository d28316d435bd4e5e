#!/usr/bin/env python3
"""Walkthrough: solving 3X^2 + 7X - 1 = 0 modulo 15, 195 and 1235.

The same quadratic is solved against three moduli. The paper's route
completes the square modulo 4|a|n, keeps the roots with t = b (mod 2a) and
maps each back by one exact division, X = (t - b)/(2a); it lives on as the
reference `oracle.completing_square_quadratic`. The library's `solve_quadratic` works
one prime power of n at a time and joins the parts by CRT, and the two agree.
"""

from quadres import QuadCongruence, solve_quadratic, sqrt_mod
from quadres.oracle import brute_quadratic, completing_square_quadratic


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("The paper's route: complete the square modulo 4|a|n")
q = QuadCongruence(3, 7, -1, 15)
print("congruence: 3X^2 + 7X - 1 = 0 (mod 15)")
print("discriminant b^2 - 4ac =", q.discriminant)
print("working modulus 4|a|n  =", 4 * 3 * 15)
roots = sqrt_mod(61, 180)
print("T^2 = 61 (mod 180)     ->", list(roots))
kept = [t for t in roots if (t - 7) % 6 == 0]
print("roots with t = 7 (mod 6):", kept)
print("solutions mod 15        :", list(completing_square_quadratic(q)))

banner("The library's route: one prime power at a time")
print("mod 3: 3X^2 + 7X - 1 = X - 1, so X = 1; mod 5: 3X^2 + 2X + 4 has X = 2, 4")
print("CRT joins them         :", list(solve_quadratic(q)))

banner("Scaling up the modulus: 195 = 3 * 5 * 13")
q195 = QuadCongruence(3, 7, -1, 195)
print("solutions mod 195:", list(solve_quadratic(q195)))
print("paper's route agrees:", list(completing_square_quadratic(q195)))
print("brute force agrees  :", list(brute_quadratic(3, 7, -1, 195)))

banner("When gcd(2a, n) = 1: 1235 = 5 * 13 * 19")
q1235 = QuadCongruence(3, 7, -1, 1235)
sols = solve_quadratic(q1235)
print("T^2 = 61 (mod 1235) ->", list(sqrt_mod(61, 1235)))
print("x = ((n+1)/2) * a^(-1) * (t - b) maps each root to a solution:")
print("solutions mod 1235:", list(sols))
print("paper's route agrees:", list(completing_square_quadratic(q1235)) == list(sols))
print("brute force agrees  :", list(brute_quadratic(3, 7, -1, 1235)) == list(sols))

banner("A square root table modulo 4 and odd prime powers")
print("X^2 = 61 (mod 2340), 2340 = 2^2 * 3^2 * 5 * 13")
print(list(sqrt_mod(61, 2340)))
print("16 residues: 2^(s+1) with s = 3 odd primes and four = 2^2 dividing n")
