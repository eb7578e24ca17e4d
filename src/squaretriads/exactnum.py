"""Exact integer and rational arithmetic: squares, factorization, two squares.

Integers are plain Python ints (arbitrary precision, canonical zero) and
rationals are fractions.Fraction (always reduced, positive denominator),
so the representation invariants come for free.  This module adds the
square-detection and sum-of-two-squares structure everything else is
built on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, VerificationError

__all__ = [
    "isqrt",
    "promote_int",
    "is_perfect_square",
    "sqrt_fraction",
    "factorize",
    "is_prime",
    "squarefree_decompose",
    "sum_of_two_squares",
    "two_squares_from_factorization",
    "TwoSquares",
    "ratio_two_squares",
]

_TRIAL_BOUND = 10_000


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n) if sieve[i]]


_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)

# Deterministic Miller-Rabin witness set: correct for all n < 3.317e24,
# which comfortably covers every size this package factorizes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def isqrt(n: int) -> int:
    """Floor square root of a nonnegative integer."""
    if n < 0:
        raise DomainError("isqrt of negative integer %d" % n)
    return math.isqrt(n)


def is_perfect_square(n: int) -> int | None:
    """Return the nonnegative root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def promote_int(x):
    """Fraction(x) for an int x, so that x / y stays exact; any other value as it is."""
    return Fraction(x) if isinstance(x, int) else x


def sqrt_fraction(x: Fraction | int) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None."""
    x = Fraction(x)
    pn = is_perfect_square(x.numerator)
    if pn is None:
        return None
    pd = is_perfect_square(x.denominator)
    if pd is None:
        return None
    return Fraction(pn, pd)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle variant).

    Seeded from n itself so repeated runs are reproducible.
    """
    rng = random.Random(0x5EED ^ n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as an ordered {prime: exponent} mapping.

    Trial division by the sieved small primes, then Brent rho on whatever
    composite cofactor remains; every reported prime passes is_prime.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1, got %d" % n)
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = kernel * root**2 with kernel squarefree; returns (kernel, root)."""
    if n < 1:
        raise DomainError("squarefree_decompose requires n >= 1, got %d" % n)
    kernel = root = 1
    for p, e in factorize(n).items():
        if e & 1:
            kernel *= p
        root *= p ** (e >> 1)
    return kernel, root


def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 (mod 4)."""
    for a in _TRIAL_PRIMES:
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise VerificationError("no quadratic non-residue found below %d for %d" % (_TRIAL_BOUND, p))


def _cornacchia_prime(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p, for a prime p = 1 (mod 4)."""
    x, y = p, _sqrt_minus_one(p)
    while y * y > p:
        x, y = y, x % y
    b2 = p - y * y
    b = math.isqrt(b2)
    if b * b != b2:
        raise VerificationError("Cornacchia descent failed for prime %d" % p)
    return (min(y, b), max(y, b))


def _compose(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    # (a0^2+a1^2)(b0^2+b1^2) = (a0 b0 - a1 b1)^2 + (a0 b1 + a1 b0)^2
    return (abs(a[0] * b[0] - a[1] * b[1]), a[0] * b[1] + a[1] * b[0])


def two_squares_from_factorization(factors: dict[int, int]) -> tuple[int, int] | None:
    """Two-squares representation built from a known prime factorization.

    Returns None exactly when some prime = 3 (mod 4) occurs to an odd power.
    """
    rep = (1, 0)
    for p, e in factors.items():
        if p % 4 == 3:
            if e & 1:
                return None
            rep = _compose(rep, (0, p ** (e >> 1)))
            continue
        base = (1, 1) if p == 2 else _cornacchia_prime(p)
        for _ in range(e):
            rep = _compose(rep, base)
    return (min(rep), max(rep))


def sum_of_two_squares(n: int) -> tuple[int, int] | None:
    """(p, q) with p^2 + q^2 = n and 0 <= p <= q, or None if no such pair exists."""
    if n < 1:
        raise DomainError("sum_of_two_squares requires n >= 1, got %d" % n)
    return two_squares_from_factorization(factorize(n))


@dataclass(frozen=True)
class TwoSquares:
    """Witness that value = p^2 + q^2 over the rationals."""

    p: Fraction
    q: Fraction
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "value", Fraction(self.value))
        if self.p * self.p + self.q * self.q != self.value:
            raise DomainError(
                "invalid two-squares witness: (%s)^2 + (%s)^2 != %s" % (self.p, self.q, self.value)
            )


def ratio_two_squares(alpha: TwoSquares, beta: TwoSquares) -> TwoSquares:
    """Two-squares witness for alpha.value / beta.value.

    Uses m = (a1 b1 + a2 b2) / (b1^2 + b2^2), n = (a1 b2 - a2 b1) / (b1^2 + b2^2),
    for which m^2 + n^2 = alpha/beta identically.
    """
    if alpha.value == 0 or beta.value == 0:
        raise DomainError("ratio_two_squares requires nonzero values")
    denom = beta.p * beta.p + beta.q * beta.q
    m = (alpha.p * beta.p + alpha.q * beta.q) / denom
    n = (alpha.p * beta.q - alpha.q * beta.p) / denom
    return TwoSquares(m, n, alpha.value / beta.value)
