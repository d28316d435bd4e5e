#!/usr/bin/env python3
"""Walkthrough: Legendre and Jacobi symbols, several independent ways.

Evaluates (365/1847) by the library's one production route, the
factorization-free Jacobi reduction, and checks it against the references in
`quadres.oracle` (Euler's criterion, Gauss's lemma, the Jacobi symbol by
definition, a brute-force search), then shows reciprocity and the half-split
of residues at work.
"""

from quadres import jacobi, legendre_euler
from quadres.oracle import (
    brute_legendre,
    jacobi_by_definition,
    legendre_euler_criterion,
    legendre_gauss_lemma,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("One symbol, four routes: (365 / 1847), 1847 prime")
print("Euler's criterion   :", legendre_euler_criterion(365, 1847))
print("Gauss's lemma       :", legendre_gauss_lemma(365, 1847))
print("Jacobi (no factoring):", jacobi(365, 1847))
print("Jacobi by definition:", jacobi_by_definition(365, 1847))
print("brute-force search  :", brute_legendre(365, 1847))

banner("The square-root caveat: (2/9) = +1 yet 2 is not a square mod 9")
print("jacobi(2, 9) =", jacobi(2, 9))
print("squares mod 9:", sorted({x * x % 9 for x in range(9)}))

banner("Quadratic reciprocity for small odd primes")
primes = [3, 5, 7, 11, 13, 17, 19]
header = "      " + "".join(f"q={q:<4}" for q in primes)
print(header)
for p in primes:
    row = [f"(p={p:<2})"]
    for q in primes:
        row.append("  .  " if p == q else f"{jacobi(p, q) * jacobi(q, p):+3}  ")
    print(" ".join(row))
print("entry = (p/q)(q/p); -1 appears exactly when p = q = 3 (mod 4)")

banner("Exactly half of 1..p-1 are quadratic residues")
for p in (11, 23, 41):
    residues = [a for a in range(1, p) if legendre_euler(a, p) == 1]
    print(f"p = {p}: {len(residues)} residues of {p - 1}: {residues}")
