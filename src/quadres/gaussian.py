"""Arithmetic in the ring Z(i) of Gaussian integers.

Covers the norm, units and associates, division with remainder, the
Euclidean gcd, the classification of Gaussian primes and unique
factorization into a unit times canonical prime powers.
"""

import math
from collections import namedtuple

from .core import _Value, is_prime
from .errors import BothZero, DivisionByZero, ZeroArgument, ZeroOrUnit, check_nonnegative
from .two_squares import _split_factorization, represent_prime


class GaussianInt(_Value):
    """An element re + im*i of Z(i); not a pair, so 3 * xi and xi * 3 are TypeErrors."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0) -> None:
        _set_re(self, re)
        _set_im(self, im)

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        if type(other) is not GaussianInt:
            return NotImplemented
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        if type(other) is not GaussianInt:
            return NotImplemented
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        if type(other) is not GaussianInt:
            return NotImplemented
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __pow__(self, e: int) -> "GaussianInt":
        check_nonnegative("exponent", e)
        result = GaussianInt(1, 0)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def __str__(self) -> str:
        return format_gaussian(self)


_set_re, _set_im = GaussianInt.re.__set__, GaussianInt.im.__set__

ONE = GaussianInt(1, 0)
I = GaussianInt(0, 1)
UNITS = (ONE, I, GaussianInt(-1, 0), GaussianInt(0, -1))


def norm(xi: GaussianInt) -> int:
    """N(re + im*i) = re^2 + im^2; multiplicative, zero only at zero."""
    return xi.re * xi.re + xi.im * xi.im


def is_unit(xi: GaussianInt) -> bool:
    """True exactly for 1, -1, i, -i (the elements of norm 1)."""
    return norm(xi) == 1


def associates(xi: GaussianInt) -> set[GaussianInt]:
    """The four unit multiples {xi, i*xi, -xi, -i*xi} of a nonzero element."""
    if not (xi.re or xi.im):
        raise ZeroArgument("zero has no associates")
    return {xi * u for u in UNITS}


# The hot loops below (Euclid, and exact division in factor) run on
# (re, im) int pairs and build a GaussianInt only for the caller. gcd starts
# from the gcd of the two norms, one math.gcd in C, which skips Euclid when
# the norms are coprime and otherwise keeps its operands near that gcd's size.
# In factor, c + d*i divides x + y*i exactly when N = c^2 + d^2 divides both
# x*c + y*d and y*c - x*d, and those two quotients are the quotient's parts.


def _canonical_ints(x: int, y: int) -> tuple[int, int]:
    # multiply the nonzero x + y*i by i until re > 0 and im >= 0
    while x <= 0 or y < 0:
        x, y = -y, x
    return x, y


def _div_rem_ints(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    # (q1, q2, r1, r2) with a + b*i = (q1 + q2*i)(c + d*i) + r1 + r2*i, where
    # q1 + q2*i is (a + b*i)/(c + d*i) rounded to the nearest, ties toward
    # the floor; c + d*i != 0. With n = c^2 + d^2, that rounding of x/n is
    # floor((2x + n - 1) / 2n), one floor division per coordinate
    n = c * c + d * d
    h, m = n - 1, 2 * n
    q1 = (2 * (a * c + b * d) + h) // m
    q2 = (2 * (b * c - a * d) + h) // m
    return q1, q2, a - q1 * c + q2 * d, b - q1 * d - q2 * c


def canonical_associate(xi: GaussianInt) -> GaussianInt:
    """The unique associate with re > 0 and im >= 0.

    Inert rational primes map to themselves; the ramified prime above 2
    maps to 1 + i. This pins factorizations down to literal equality.
    """
    if not (xi.re or xi.im):
        raise ZeroArgument("zero has no associates")
    return GaussianInt(*_canonical_ints(xi.re, xi.im))


def div_rem(alpha: GaussianInt, beta: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
    """Division with remainder: alpha = kappa*beta + rho, N(rho) <= N(beta)/2.

    kappa is alpha/beta with both coordinates rounded to the nearest
    integer, ties toward the floor, which makes the pair deterministic.
    """
    if not (beta.re or beta.im):
        raise DivisionByZero("division by zero in Z(i)")
    q1, q2, r1, r2 = _div_rem_ints(alpha.re, alpha.im, beta.re, beta.im)
    return GaussianInt(q1, q2), GaussianInt(r1, r2)


def _euclid_ints(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    # a gcd of a + b*i and c + d*i, not both zero, in no particular associate
    while c or d:
        _, _, r1, r2 = _div_rem_ints(a, b, c, d)
        a, b, c, d = c, d, r1, r2
    return a, b


def gcd(alpha: GaussianInt, beta: GaussianInt) -> GaussianInt:
    """A greatest common divisor, in canonical form.

    Every common divisor gamma divides N(gamma), which divides
    g = gcd(N(alpha), N(beta)), so gcd(alpha, beta) = gcd(gcd(alpha, g), beta)
    (Cohen, A Course in Computational Algebraic Number Theory, 1.3). Coprime
    norms (g = 1) need no Euclid step. When g^2 is below both norms, Euclid
    runs on (alpha, g), then on (beta, gcd(alpha, g)), so every division is
    by an element of norm at most g^2. Otherwise, as for an associate or a
    multiple of the other operand, it runs on (alpha, beta) directly.
    """
    a, b, c, d = alpha.re, alpha.im, beta.re, beta.im
    n1, n2 = a * a + b * b, c * c + d * d
    if not (n1 or n2):
        raise BothZero("gcd(0, 0) is undefined")
    g = math.gcd(n1, n2)
    if g == 1:
        return ONE
    if g * g < n1 and g * g < n2:
        a, b, c, d = c, d, *_euclid_ints(a, b, g, 0)
    return GaussianInt(*_canonical_ints(*_euclid_ints(a, b, c, d)))


def is_gaussian_prime(xi: GaussianInt) -> bool:
    """Primes of Z(i): elements of prime norm, and associates of rational
    primes q = 3 (mod 4)."""
    if is_prime(norm(xi)):
        return True
    if xi.re == 0 or xi.im == 0:
        q = abs(xi.re) + abs(xi.im)
        return q % 4 == 3 and is_prime(q)
    return False


class GaussianFactorization(namedtuple("GaussianFactorization", "unit factors")):
    """unit * prod(prime**exponent) with canonical primes sorted by (norm, re, im)."""

    __slots__ = ()

    def value(self) -> GaussianInt:
        return math.prod((prime**e for prime, e in self.factors), start=self.unit)


def factor(xi: GaussianInt) -> GaussianFactorization:
    """Unique factorization of xi != 0, not a unit, into Gaussian primes.

    The candidate primes are read from `two_squares._split_factorization`
    of N(xi): 1 + i above 2, each inert q, and a + b*i and b + a*i above each
    split p = a^2 + b^2. Exponents come from exact division of xi.
    """
    x, y = xi.re, xi.im
    if x * x + y * y <= 1:  # zero or a unit
        raise ZeroOrUnit(f"{xi} has no prime factorization")
    g, inert, split = _split_factorization(norm(xi))
    candidates = [(1, 1)] if g else []
    candidates += [(q, 0) for q, _ in inert]
    for p, _ in split:
        # p = a^2 + b^2 with a >= b > 0: a + b*i and i*(a - b*i) = b + a*i
        rep = represent_prime(p)
        candidates += [(rep.a, rep.b), (rep.b, rep.a)]
    found = []
    for c, d in candidates:
        n, e = c * c + d * d, 0
        while True:
            q1, s = divmod(x * c + y * d, n)
            q2, t = divmod(y * c - x * d, n)
            if s or t:
                break
            x, y, e = q1, q2, e + 1
        if e:
            found.append((GaussianInt(c, d), e))
    unit = GaussianInt(x, y)
    assert is_unit(unit)
    found.sort(key=lambda fe: (norm(fe[0]), fe[0].re, fe[0].im))
    return GaussianFactorization(unit, tuple(found))


def parse_gaussian(text: str) -> GaussianInt:
    """Parse 'a+bi' / 'a-bi' / 'bi' / 'a', with 'i' and '-i' for b = +-1."""
    # spaces around a sign go; between two digits they stay, and int() refuses them
    s = text.strip()
    if " " in s:
        for sign in "+-":
            s = sign.join(part.strip() for part in s.split(sign))
    if not s:
        raise ValueError("empty Gaussian integer literal")
    try:
        if not s.endswith("i"):
            return GaussianInt(int(s), 0)
        # the imaginary part starts at the last sign after the first character
        split = max(s.rfind("+", 1, -1), s.rfind("-", 1, -1), 0)
        re_part, im_part = s[:split], s[split:-1]
        if im_part in ("", "+", "-"):
            im_part += "1"
        return GaussianInt(int(re_part) if re_part else 0, int(im_part))
    except ValueError:
        raise ValueError(f"invalid Gaussian integer literal: {text!r}") from None


def format_gaussian(xi: GaussianInt) -> str:
    """Format as 'a+bi' / 'a-bi' with no spaces; pure values shorten to 'a' or 'bi'."""
    if xi.im == 0:
        return str(xi.re)
    if xi.im == 1:
        im_str = "i"
    elif xi.im == -1:
        im_str = "-i"
    else:
        im_str = f"{xi.im}i"
    if xi.re == 0:
        return im_str
    sign = "+" if xi.im > 0 else ""
    return f"{xi.re}{sign}{im_str}"
