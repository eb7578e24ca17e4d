"""Triads, square certificates, and the cubic whose roots they are.

A triad (a, b, c) of positive integers solves the problem when its three
elementary symmetric functions are perfect squares, i.e. there are f, g, h
with a+b+c = f^2, ab+bc+ca = g^2, abc = h^2; equivalently a, b, c are the
roots of x^3 - f^2 x^2 + g^2 x - h^2 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import exactnum
from .errors import (
    DegenerateParameterError,
    DomainError,
    ExcludedBranchError,
)
from .exactnum import TwoSquares, is_perfect_square, promote_int, squarefree_decompose
from .multipoly import canonical_sort_key, exact_sqrt

__all__ = [
    "Triad",
    "SquareCertificate",
    "CubicSpec",
    "PQParameterization",
    "elementary_symmetric",
    "verify_triad",
    "canonicalize",
    "rational_to_integer_triad",
    "rational_roots_cubic",
    "fg_from_parameterization",
    "quad_in_x",
    "roots_quad",
    "is_sum_two_rational_squares",
    "triad_json",
]


@dataclass(frozen=True, order=True)
class Triad:
    """Three strictly positive integers; order as given (canonicalize sorts)."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c):
            if not isinstance(v, int) or v <= 0:
                raise DomainError("triad members must be positive integers, got %r" % (v,))

    def sorted(self) -> "Triad":
        a, b, c = sorted((self.a, self.b, self.c))
        return Triad(a, b, c)

    def members(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class SquareCertificate:
    """Nonnegative roots (f, g, h) of the three symmetric functions."""

    f: int
    g: int
    h: int

    def __post_init__(self):
        for v in (self.f, self.g, self.h):
            if not isinstance(v, int) or v < 0:
                raise DomainError("certificate entries must be nonnegative integers")


@dataclass(frozen=True)
class CubicSpec:
    """Coefficient data for x^3 - f^2 x^2 + g^2 x - h^2 (f, g, h enter squared)."""

    f: Fraction
    g: Fraction
    h: Fraction

    def __post_init__(self):
        object.__setattr__(self, "f", Fraction(self.f))
        object.__setattr__(self, "g", Fraction(self.g))
        object.__setattr__(self, "h", Fraction(self.h))


@dataclass(frozen=True)
class PQParameterization:
    """The (p, q, m, h) data from which f and g are solved linearly.

    The linear solve divides by m^2 p - 2 m q - p, so that quantity must
    not vanish.
    """

    p: Fraction
    q: Fraction
    m: Fraction
    h: Fraction

    def __post_init__(self):
        for name in ("p", "q", "m", "h"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.m * self.m * self.p - 2 * self.m * self.q - self.p == 0:
            raise DegenerateParameterError("degenerate parameters: m^2 p - 2 m q - p = 0")


def elementary_symmetric(t: Triad) -> tuple[int, int, int]:
    a, b, c = t.a, t.b, t.c
    return (a + b + c, a * b + b * c + c * a, a * b * c)


def verify_triad(t: Triad) -> SquareCertificate | None:
    """Certificate (f, g, h) when all three symmetric functions are squares."""
    e1, e2, e3 = elementary_symmetric(t)
    f = is_perfect_square(e1)
    if f is None:
        return None
    g = is_perfect_square(e2)
    if g is None:
        return None
    h = is_perfect_square(e3)
    if h is None:
        return None
    return SquareCertificate(f, g, h)


def canonicalize(t: Triad) -> Triad:
    """Remove the largest perfect square dividing gcd(a, b, c); sort ascending."""
    g = math.gcd(math.gcd(t.a, t.b), t.c)
    _, root = squarefree_decompose(g)
    r2 = root * root
    return Triad(t.a // r2, t.b // r2, t.c // r2).sorted()


def rational_to_integer_triad(ra: Fraction, rb: Fraction, rc: Fraction) -> Triad:
    """Scale a positive rational triple by the least square making it integral.

    The scale k^2 preserves squareness of all three symmetric functions, so
    the result verifies exactly when the rational triple did.  The triad is
    canonicalized before being returned.
    """
    ra, rb, rc = Fraction(ra), Fraction(rb), Fraction(rc)
    if ra <= 0 or rb <= 0 or rc <= 0:
        raise DomainError("rational triple must be strictly positive")
    k = 1
    for x in (ra, rb, rc):
        kernel, root = squarefree_decompose(x.denominator)
        clear = kernel * root
        k = k * clear // math.gcd(k, clear)
    k2 = k * k
    return canonicalize(Triad(int(ra * k2), int(rb * k2), int(rc * k2)))


def _divisors_sorted(n: int) -> list[int]:
    divs = [1]
    for p, e in exactnum.factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    divs.sort()
    return divs


def rational_roots_cubic(spec: CubicSpec) -> list[Fraction]:
    """All rational roots (with multiplicity) of x^3 - f^2 x^2 + g^2 x - h^2.

    Clears denominators with y = kx, then tries divisors of the constant
    term in ascending order, deflating to a quadratic at the first hit.
    Since the coefficients alternate in sign there are no negative roots.
    """
    c2, c1, c0 = -spec.f**2, spec.g**2, -spec.h**2
    k = 1
    for c in (c2, c1, c0):
        k = k * c.denominator // math.gcd(k, c.denominator)
    C2, C1, C0 = int(k * c2), int(k * k * c1), int(k**3 * c0)

    roots: list[Fraction] = []
    y = None
    if C0 == 0:
        y = 0
    else:
        for d in _divisors_sorted(-C0):
            if ((d + C2) * d + C1) * d + C0 == 0:
                y = d
                break
    if y is None:
        return []
    roots.append(Fraction(y, k))
    # deflate: y^3 + C2 y^2 + C1 y + C0 = (y - r)(y^2 + B y + C)
    B = C2 + y
    C = C1 + y * B
    disc = B * B - 4 * C
    rt = is_perfect_square(disc)
    if rt is not None:
        roots.append(Fraction(-B + rt, 2 * k))
        roots.append(Fraction(-B - rt, 2 * k))
    return sorted(roots)


def fg_from_parameterization(P: PQParameterization) -> tuple[Fraction, Fraction]:
    """The (f, g) making x = p^2 + q^2 a root of the cubic, for the given m, h.

    m parameterizes the ratio between the two nonzero factored sides of the
    cubic identity; m = 0 is the excluded zero-product branch, which is
    known to produce no new solutions and is rejected explicitly.
    """
    p, q, m, h = P.p, P.q, P.m, P.h
    if m == 0:
        raise ExcludedBranchError(
            "m = 0 sets both factored sides to zero; this branch yields no new solutions"
        )
    norm2 = p * p + q * q
    if norm2 == 0:
        raise DegenerateParameterError("p and q must not both vanish")
    den = m * m * p - 2 * m * q - p
    q4 = norm2 * norm2
    f = -((q4 - q * h) * m * m - 2 * m * p * h + q4 + q * h) / (den * norm2)
    g = ((p * p * q + q**3 - h) * m * m + (2 * p**3 + 2 * p * q * q) * m - p * p * q - q**3 - h) / den
    return f, g


def quad_in_x(s, t, u):
    """Coefficients (A, B, C) of the quadratic in x produced by the reduction.

    A = t^2, B = -s(s^3 - 2 s^2 u + s t^2 + s u^2 - 2 t^2 u), C = u^2 t^2 (s^2 + t^2).
    Works over any exact domain (rationals or rational functions).
    """
    A = t * t
    B = -s * (s**3 - 2 * s * s * u + s * t * t + s * u * u - 2 * t * t * u)
    C = u * u * t * t * (s * s + t * t)
    return A, B, C


def _sort_pair(x1, x2):
    if isinstance(x1, Fraction) and isinstance(x2, Fraction):
        return (x1, x2) if x1 <= x2 else (x2, x1)
    return tuple(sorted((x1, x2), key=canonical_sort_key))


def roots_quad(A, B, C):
    """Both roots of A x^2 + B x + C when the discriminant is a square, else None."""
    if A == 0:
        raise DegenerateParameterError("leading coefficient of quadratic vanishes")
    A = promote_int(A)
    disc = B * B - 4 * A * C
    root = exact_sqrt(disc)
    if root is None:
        return None
    x1 = (-B + root) / (2 * A)
    x2 = (-B - root) / (2 * A)
    return _sort_pair(x1, x2)


def is_sum_two_rational_squares(x: Fraction) -> TwoSquares | None:
    """Witness that x is a sum of two rational squares, or None.

    x = n / d^2 with n = numerator * denominator, so x is a sum of two
    rational squares iff n is a sum of two integer squares, iff no prime
    = 3 (mod 4) divides the squarefree kernel of n.
    """
    x = Fraction(x)
    if x <= 0:
        raise DomainError("is_sum_two_rational_squares requires x > 0")
    root = exactnum.sqrt_fraction(x)
    if root is not None:
        return TwoSquares(Fraction(0), root, x)
    n = x.numerator * x.denominator
    rep = exactnum.sum_of_two_squares(n)
    if rep is None:
        return None
    d = x.denominator
    return TwoSquares(Fraction(rep[0], d), Fraction(rep[1], d), x)


def triad_json(t: Triad, cert: SquareCertificate | None = None) -> dict[str, str]:
    """Decimal-string JSON object for a triad and (optionally) its certificate."""
    out = {"a": str(t.a), "b": str(t.b), "c": str(t.c)}
    if cert is not None:
        out.update({"f": str(cert.f), "g": str(cert.g), "h": str(cert.h)})
    return out
