"""Exception types shared across the library, and its one domain check.

Every refusal of the library is a NumberTheoryError (a ValueError), so
callers can catch domain failures with a single except clause while tests
pin the precise condition. `check_positive` and `check_nonnegative` are the
only checks of a modulus or bound: every modulus n >= 1 is accepted, n = 1
with the single residue 0.
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


class DivisionByZero(ZeroArgument, ZeroDivisionError):
    """Division by zero in Z(i); also a ZeroDivisionError."""


class BothZero(NumberTheoryError):
    """gcd(0, 0) is undefined in Z(i)."""


class ZeroOrUnit(NumberTheoryError):
    """Zero and units have no prime factorization."""


class WrongResidueClass(NumberTheoryError):
    """Primes congruent to 3 mod 4 are not sums of two squares."""


class NotARoot(NumberTheoryError):
    """The given value does not square to -1 modulo n."""


class BadParameters(NumberTheoryError):
    """Parameters violate the documented preconditions: a modulus or bound
    below 1, a negative count or exponent, or generator parameters outside
    their domain."""


class BudgetExceeded(NumberTheoryError):
    """Work would exceed a fixed budget: a brute-force oracle scan, or the
    Pollard-Brent rho steps `factorize` may spend on one composite cofactor."""


def check_positive(name: str, n: int) -> None:
    if n < 1:
        raise BadParameters(f"{name} must be positive")


def check_nonnegative(name: str, n: int) -> None:
    if n < 0:
        raise BadParameters(f"{name} must be nonnegative")
