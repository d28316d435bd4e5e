"""Exception types shared across the library.

Everything derives from NumberTheoryError (a ValueError), so callers can
catch domain failures with a single except clause while tests pin the
precise condition.
"""


class NumberTheoryError(ValueError):
    """Base class for domain errors raised by this library."""


class NonCoprimeModuli(NumberTheoryError):
    """CRT components must have pairwise coprime moduli."""


class NotPrime(NumberTheoryError):
    """A prime argument failed the primality check."""


class NotOddPrime(NumberTheoryError):
    """The modulus must be an odd prime."""


class NotCoprime(NumberTheoryError):
    """Arguments share a common factor where coprimality is required."""


class EvenModulus(NumberTheoryError):
    """Jacobi symbols are only defined for odd moduli."""


class NotQuadratic(NumberTheoryError):
    """The leading coefficient vanishes mod n; the congruence is linear."""


class ZeroArgument(NumberTheoryError):
    """Zero has no associates."""


class BothZero(NumberTheoryError):
    """gcd(0, 0) is undefined in Z(i)."""


class ZeroOrUnit(NumberTheoryError):
    """Zero and units have no prime factorization."""


class WrongResidueClass(NumberTheoryError):
    """Primes congruent to 3 mod 4 are not sums of two squares."""


class NotARoot(NumberTheoryError):
    """The given value does not square to -1 modulo n."""


class BadParameters(NumberTheoryError):
    """Generator parameters violate the documented preconditions."""


class BudgetExceeded(NumberTheoryError):
    """Work would exceed a fixed budget: a brute-force oracle scan, or the
    Pollard-Brent rho steps `factorize` may spend on one composite cofactor."""
