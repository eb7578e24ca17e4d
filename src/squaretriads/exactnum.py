"""Exact integer and rational arithmetic: squares, factorization, two squares.

Integers are plain Python ints (arbitrary precision, canonical zero) and
rationals are fractions.Fraction (always reduced, positive denominator),
so the representation invariants come for free.  This module adds the
square-detection and sum-of-two-squares structure everything else is
built on, and the number theory under it: `is_prime` is deterministic
Miller-Rabin below 3.3e24 and BPSW above, and `factorize` is trial
division, then Brent rho on cofactors that are neither prime nor square,
splitting each factor it finds against its cofactor by a gcd.

The trial division takes one gcd of n with the product of each block of
_TRIAL_BLOCK primes below _TRIAL_BOUND, and tests a block's primes one by
one against that gcd only when it exceeds 1 (Bernstein, "How to find
small factors of integers", 2002).  After it, no prime below the bound
divides what is left, so every piece of it below _TRIAL_BOUND^2 is 1 or a
prime: only larger pieces are passed to `is_prime`.

`factorize` keeps a small memory of the last large primes it found: every
prime that its stack loop finds (all are above the trial bound, and those
at or above _TRIAL_BOUND^2 are proved by `is_prime`), at most
_RECENT_PRIMES_BOUND of them, newest last, with no repeats.  It tries them
as divisors of each composite cofactor before it runs rho, so the members
of one triad, which share their large primes, run rho once per shared
prime.  The bound keeps this memory to the primes of the last few
requests.  No result depends on what it holds: a remembered prime is
prime and smaller than the cofactor it divides, it only stands in for the
factor rho would find, and a factorization is unique.

This module also holds the package's one rule for exact inputs: an integer
is an int or any other integer type (numpy ints are converted to int), and
a rational is one of those or a Fraction; bool and floats raise DomainError.
Every entry point that takes a scalar checks it with `_integer` or
`_exact_scalar` and keeps the converted value.
"""

from __future__ import annotations

import math
import random
import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import index

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
_TRIAL_SQUARE = _TRIAL_BOUND * _TRIAL_BOUND

# In one seed-1 certify round the stack loops find 1992 primes (592
# distinct, at most 10 in one request; 217 of them at or above
# _TRIAL_BOUND^2, so proved by is_prime).  1559 of them enter the memory,
# at most 5 in one request, so 16 covers a request and never a round.
_RECENT_PRIMES_BOUND = 16
_recent_primes: deque[int] = deque(maxlen=_RECENT_PRIMES_BOUND)
_recent_primes_lock = threading.Lock()


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n) if sieve[i]]


_TRIAL_PRIMES = tuple(_primes_below(_TRIAL_BOUND))

# The trial primes in consecutive blocks of _TRIAL_BLOCK, each with the
# product of its primes: (product, primes).  On the 9126 factorize inputs of
# a seed-1 certify round (2-CPU x86 VM), the trial division took about 45 ms
# with blocks of 96 to 192 primes, 49 ms with 64, 58 ms with 32 and 48-60 ms
# with 256, against 175-190 ms for one remainder per prime.
_TRIAL_BLOCK = 128
_TRIAL_BLOCKS = tuple(
    (math.prod(block), block)
    for block in (_TRIAL_PRIMES[i : i + _TRIAL_BLOCK] for i in range(0, len(_TRIAL_PRIMES), _TRIAL_BLOCK))
)

# Miller-Rabin bases, deterministic below each bound: Sinclair's seven bases
# below 2^64, and the primes 2..41 below psi_13 (Sorenson and Webster, Math.
# Comp. 86, 2017).  Above the last bound is_prime runs BPSW.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TABLE = (
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (3317044064679887385961981, _SMALL_PRIMES),
)


def _integer(n, message: str = "not an integer: %r", least: int | None = None) -> int:
    """n as an int: ints and other integer types (numpy ints, ...) pass
    through __index__; bool, float, Fraction and the rest, and with `least`
    any value below it, raise DomainError(message % (n,)).  The package's
    one rule for integer inputs."""
    if type(n) is not int:
        if isinstance(n, bool) or not hasattr(type(n), "__index__"):
            raise DomainError(message % (n,))
        n = index(n)
    if least is not None and n < least:
        raise DomainError(message % (n,))
    return n


def _exact_scalar(x, message: str = "not an exact rational: %r") -> int | Fraction:
    """x as an exact rational: a Fraction as it is, anything else by the rule
    of _integer.  Floats are refused, since their binary value is not the
    rational meant.  The package's one rule for rational inputs."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    return _integer(x, message)


def _fraction(x, message: str = "not an exact rational: %r") -> Fraction:
    """x as a Fraction, by the rule of _exact_scalar."""
    return x if type(x) is Fraction else Fraction(_exact_scalar(x, message))


def isqrt(n: int) -> int:
    """Floor square root of a nonnegative integer."""
    if type(n) is not int:
        n = _integer(n)
    if n < 0:
        raise DomainError("isqrt of negative integer %d" % n)
    return math.isqrt(n)


def is_perfect_square(n: int) -> int | None:
    """Return the nonnegative root if n is a perfect square, else None."""
    if type(n) is not int:
        n = _integer(n)
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def promote_int(x):
    """Fraction(x) for an integer x, so that x / y stays exact; a Fraction,
    Poly or RatFunc as it is.  Anything else (bool, floats, ...) raises
    DomainError."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    from .multipoly import Poly, RatFunc  # multipoly imports this module

    if isinstance(x, (Poly, RatFunc)):
        return x
    return Fraction(_integer(x, "not an exact value: %r"))


def sqrt_fraction(x: Fraction | int) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None."""
    x = _exact_scalar(x)
    pn = is_perfect_square(x.numerator)
    if pn is None:
        return None
    pd = is_perfect_square(x.denominator)
    if pd is None:
        return None
    return Fraction(pn, pd)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat test of an odd n > 2 to base a; a = 0 (mod n) passes."""
    a %= n
    if a == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of an odd n > 2 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4 (Baillie and Wagstaff, Math. Comp. 35, 1980).
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k and Q^k mod n, from k = 1 by doubling and by k -> k + 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality, deterministic at every size this package meets.

    Trial division by the primes up to 41, then Miller-Rabin with the bases
    of the first _MR_TABLE row whose bound exceeds n; above the table, BPSW:
    a strong base-2 test and a strong Lucas test, with no known composite
    passing both.
    """
    n = _integer(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    for bound, bases in _MR_TABLE:
        if n < bound:
            return all(_strong_probable_prime(n, a) for a in bases)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle variant).

    Seeded from n itself so repeated runs are reproducible.

    Not bounded: each try ends once its sequence cycles mod n, after about
    sqrt(p) steps for the least prime p | n, and a try that finds only n
    itself is retried with a new seed, with no cap on steps or tries.  So
    it ends for a composite n, but a large n with no small prime factor
    can take very long, and a prime n (factorize passes none, as is_prime
    decides first) would retry for ever.  Its bound is to be a work budget
    shared with the other long-running calls, which does not exist yet.
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

    Trial division by the sieved primes below _TRIAL_BOUND, a block at a
    time: g = gcd(n, product of the block), and only the block's primes
    that divide g are divided out.  It stops at the first block whose
    first prime p has p^2 > n, so what is left is then 1 or a prime; so is
    a cofactor below _TRIAL_BOUND^2 after every block.  A larger cofactor
    goes on a stack of pairs (m, e), each meaning m^e divides what is
    left.  A prime m adds e to its exponent, a square m = r^2 becomes
    (r, 2e), and any other m is split by Brent rho into d and m/d with
    g = gcd(d, m/d), as (g, 2e), (d/g, e) and (m/(d g), e).  No two of
    these share a prime unless its cube divides m, so a prime is not found
    again by a second rho on each piece that holds it.  Before rho, the
    remembered primes (see the module docstring) are tried as d.  Each m
    divides the cofactor, which has no prime below _TRIAL_BOUND, so an m
    below _TRIAL_BOUND^2 is prime; is_prime decides only the larger ones.
    """
    n = _integer(n, "factorize requires an integer n >= 1, got %r", 1)
    factors: dict[int, int] = {}
    for product, block in _TRIAL_BLOCKS:
        if block[0] * block[0] > n:
            break
        g = math.gcd(n, product)
        for p in block:
            if g == 1:
                break
            if g % p == 0:
                g //= p
                e = 0
                while n % p == 0:
                    e += 1
                    n //= p
                factors[p] = e
    if n < _TRIAL_SQUARE:
        if n > 1:
            factors[n] = 1
        return dict(sorted(factors.items()))
    stack = [(n, 1)]
    while stack:
        m, e = stack.pop()
        if m == 1:
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.append((r, 2 * e))
            continue
        if m < _TRIAL_SQUARE or is_prime(m):
            factors[m] = factors.get(m, 0) + e
            with _recent_primes_lock:
                if m not in _recent_primes:
                    _recent_primes.append(m)
            continue
        d = next((p for p in tuple(_recent_primes) if m % p == 0), 0) or _brent_rho(m)
        g = math.gcd(d, m // d)
        if g == 1:
            stack += [(d, e), (m // d, e)]
        else:
            stack += [(g, 2 * e), (d // g, e), (m // (d * g), e)]
    return dict(sorted(factors.items()))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = kernel * root**2 with kernel squarefree; returns (kernel, root)."""
    n = _integer(n, "squarefree_decompose requires an integer n >= 1, got %r", 1)
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
    n = _integer(n, "sum_of_two_squares requires an integer n >= 1, got %r", 1)
    return two_squares_from_factorization(factorize(n))


@dataclass(frozen=True)
class TwoSquares:
    """Witness that value = p^2 + q^2 over the rationals."""

    p: Fraction
    q: Fraction
    value: Fraction

    def __post_init__(self):
        for name in ("p", "q", "value"):
            object.__setattr__(self, name, _fraction(getattr(self, name)))
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
