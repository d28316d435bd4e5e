#!/usr/bin/env python3
"""Walkthrough: which n are sums of two squares, in how many ways, and how
to construct the representations from square roots of -1.
"""

from quadres import (
    all_representations,
    count_representations,
    has_primitive_representation,
    is_sum_of_two_squares,
    primitive_representations,
    rep_from_root,
    represent_prime,
    sqrt_mod,
)
from quadres.oracle import count_representations_by_divisors


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("r(n): representations counted three ways")
print(" n   divisors  exponents  lattice points")
for n in (1, 2, 3, 9, 25, 45, 50, 325, 1105):
    d = count_representations_by_divisors(n)
    e = count_representations(n)
    pts = [(r.a, r.b) for r in all_representations(n)]
    print(f"{n:4}  {d:7}   {e:7}    {len(pts):5}")

banner("Fermat's split primes")
for p in (2, 5, 13, 17, 29, 9973):
    rep = represent_prime(p)
    print(f"{p} = {rep.a}^2 + {rep.b}^2")

banner("From a root of X^2 = -1 (mod n) to the representation it names")
for n in (5, 13, 29, 65, 1105):
    roots = sqrt_mod(n - 1, n)
    print(f"n = {n}: roots of X^2 = -1:", list(roots))
    for k in roots:
        rep = rep_from_root(k, n)
        print(f"   k = {k:4} -> ({rep.a}, {rep.b}),  {k}*{rep.a} = {rep.b} (mod {n})")

banner("Primitive representations come in powers of two")
for n in (5, 25, 65, 325, 1105):
    reps = primitive_representations(n)
    print(f"n = {n}: {len(reps)} ordered positive pairs:", [(r.a, r.b) for r in reps])

banner("The 3-mod-4 obstruction")
for n in (21, 45, 99):
    print(f"{n}: sum of two squares? {is_sum_of_two_squares(n)};"
          f" primitive? {has_primitive_representation(n)}")
