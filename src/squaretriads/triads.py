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
from .exactnum import TwoSquares, _fraction, _integer, is_perfect_square, squarefree_decompose
from .multipoly import _parts, _quotient, canonical_sort_key, exact_sqrt

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


def _int_fields(obj, names: str, message: str, least: int) -> None:
    """Check and convert the one-letter integer fields of a frozen dataclass
    by exactnum's rule; an int field of at least `least` is left as it is."""
    for name in names:
        v = getattr(obj, name)
        if type(v) is not int or v < least:
            object.__setattr__(obj, name, _integer(v, message, least))


@dataclass(frozen=True, order=True)
class Triad:
    """Three strictly positive integers; order as given (canonicalize sorts)."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        _int_fields(self, "abc", "triad members must be positive integers, got %r", 1)

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
        _int_fields(self, "fgh", "certificate entries must be nonnegative integers, got %r", 0)


@dataclass(frozen=True)
class CubicSpec:
    """Coefficient data for x^3 - f^2 x^2 + g^2 x - h^2 (f, g, h enter squared)."""

    f: Fraction
    g: Fraction
    h: Fraction

    def __post_init__(self):
        for name in ("f", "g", "h"):
            object.__setattr__(self, name, _fraction(getattr(self, name)))


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
            object.__setattr__(self, name, _fraction(getattr(self, name)))
        if self.m * self.m * self.p - 2 * self.m * self.q - self.p == 0:
            raise DegenerateParameterError("degenerate parameters: m^2 p - 2 m q - p = 0")


def _require_triad(t) -> None:
    if not isinstance(t, Triad):
        raise DomainError("expected a Triad, not %r" % (t,))


def elementary_symmetric(t: Triad) -> tuple[int, int, int]:
    _require_triad(t)
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
    _require_triad(t)
    g = math.gcd(math.gcd(t.a, t.b), t.c)
    _, root = squarefree_decompose(g)
    r2 = root * root
    return Triad(t.a // r2, t.b // r2, t.c // r2).sorted()


def rational_to_integer_triad(ra: Fraction, rb: Fraction, rc: Fraction) -> Triad:
    """Scale a positive rational triple by a square making it integral.

    The scale k^2, with k the lcm of the denominators, preserves squareness
    of all three symmetric functions, so the result verifies exactly when
    the rational triple did.  canonicalize then strips the largest square
    from the gcd; the integral square multiple with a squarefree gcd is
    unique, so this is the triad of the least such scale.
    """
    ra, rb, rc = _fraction(ra), _fraction(rb), _fraction(rc)
    if ra <= 0 or rb <= 0 or rc <= 0:
        raise DomainError("rational triple must be strictly positive")
    k = math.lcm(ra.denominator, rb.denominator, rc.denominator)
    return canonicalize(Triad(*[x.numerator * (k // x.denominator) * k for x in (ra, rb, rc)]))


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
    Works over any exact domain (rationals or rational functions).  A, B and
    C are homogeneous of degrees 2, 4 and 6, so at s, t, u = a/d, b/d, c/d
    they are A(a, b, c) / d^2, B(a, b, c) / d^4 and C(a, b, c) / d^6.
    """
    a, b, c, d = _parts(s, t, u)
    d2 = d * d
    A = b * b
    B = -a * (a**3 - 2 * a * a * c + a * b * b + a * c * c - 2 * b * b * c)
    C = c * c * b * b * (a * a + b * b)
    return _quotient(A, d2), _quotient(B, d2 * d2), _quotient(C, d2 * d2 * d2)


def quad_root_numerators(A, B, C):
    """(-B + r, -B - r) with r^2 = B^2 - 4AC, the roots of A x^2 + B x + C
    times 2A, when the discriminant is a square in its domain, else None."""
    root = exact_sqrt(B * B - 4 * A * C)
    if root is None:
        return None
    return -B + root, -B - root


def roots_quad(A, B, C):
    """Both roots of A x^2 + B x + C when the discriminant is a square, else None.

    The roots are those of the numerators of A, B and C over one denominator.
    """
    if A == 0:
        raise DegenerateParameterError("leading coefficient of quadratic vanishes")
    a, b, c, _ = _parts(A, B, C)
    nums = quad_root_numerators(a, b, c)
    if nums is None:
        return None
    return tuple(sorted((_quotient(nums[0], 2 * a), _quotient(nums[1], 2 * a)), key=canonical_sort_key))


def is_sum_two_rational_squares(x: Fraction) -> TwoSquares | None:
    """Witness that x is a sum of two rational squares, or None.

    x = n / d^2 with n = numerator * denominator, so x is a sum of two
    rational squares iff n is a sum of two integer squares, iff no prime
    = 3 (mod 4) divides the squarefree kernel of n.  The numerator and the
    denominator are coprime, so n is factored as the two of them.  x must
    be exact: a float or a bool raises DomainError.
    """
    x = _fraction(x, "is_sum_two_rational_squares requires an exact rational, got %r")
    if x <= 0:
        raise DomainError("is_sum_two_rational_squares requires x > 0")
    root = exactnum.sqrt_fraction(x)
    if root is not None:
        return TwoSquares(Fraction(0), root, x)
    d = x.denominator
    factors = exactnum.factorize(x.numerator) | exactnum.factorize(d)
    rep = exactnum.two_squares_from_factorization(dict(sorted(factors.items())))
    if rep is None:
        return None
    return TwoSquares(Fraction(rep[0], d), Fraction(rep[1], d), x)


def triad_json(t: Triad, cert: SquareCertificate | None = None) -> dict[str, str]:
    """Decimal-string JSON object for a triad and (optionally) its certificate."""
    out = {"a": str(t.a), "b": str(t.b), "c": str(t.c)}
    if cert is not None:
        out.update({"f": str(cert.f), "g": str(cert.g), "h": str(cert.h)})
    return out
