"""From a discriminant-squaring u to a polynomial solution family.

Given u(s, t) alone, the quadratic in x has two rational-function roots
exactly when its discriminant, s^4 phi(s, t, u), is a square, i.e. when u
lies on the quartic model; the exact square root is that check, and no v
is needed.  Together with s^2 + t^2 the two roots are the roots of the
cubic, i.e. a rational solution triple.  Scaling by a square of rational
functions and stripping common square factors turns the triple into the
canonical polynomial family.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, VerificationError
from .exactnum import is_perfect_square, squarefree_decompose
from .multipoly import (
    Poly,
    RatFunc,
    canonical_sort_key,
    largest_square_root_divisor,
    poly_divide_exact,
    poly_gcd,
    poly_lcm,
    poly_sqrt,
    var,
)
from .triads import quad_in_x, roots_quad

__all__ = [
    "cubic_root_triple",
    "polynomialize_roots",
    "canonical_triple",
    "square_witnesses",
    "solution_family_polys",
]


def cubic_root_triple(u: RatFunc) -> tuple[RatFunc, RatFunc, RatFunc]:
    """The three cubic roots (s^2 + t^2 and the two x-quadratic roots) for this u.

    The x-roots come from roots_quad, whose exact square root of the
    discriminant squares its answer back: that is the check that u lies on
    the quartic model.
    """
    S, T = RatFunc(var("s")), RatFunc(var("t"))
    roots = roots_quad(*quad_in_x(S, T, u))
    if roots is None:
        raise DomainError("discriminant is not a square for this u")
    return (S * S + T * T, *roots)


def polynomialize_roots(roots: tuple[RatFunc, ...]) -> tuple[Poly, ...]:
    """Scale a rational root triple by a square into canonical polynomials.

    The scale is the lcm of the denominators (or its square, whichever is
    a perfect square), with integer contents handled alongside the
    polynomial parts; canonical_triple then strips surplus square factors.
    """
    den = Poly.one()
    cden = 1
    for rt in roots:
        den = poly_lcm(den, rt.den)
        c = int(rt.den.rational_content())
        cden = cden * c // math.gcd(cden, c)
    scale_poly = den if poly_sqrt(den) is not None else den * den
    scale_int = cden if is_perfect_square(cden) else cden * cden
    scale = scale_poly * scale_int
    members = []
    for rt in roots:
        scaled = rt * scale
        if not scaled.is_polynomial:
            raise VerificationError("square scaling failed to clear a denominator")
        members.append(scaled.num)
    return canonical_triple(tuple(members))


def canonical_triple(members: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """Strip the largest common square polynomial factor and square content.

    The triple may only be rescaled by squares, so this is the canonical
    representative of its scaling class; members are sorted deterministically.
    """
    return tuple(sorted(strip_common_squares(members), key=canonical_sort_key))


def strip_common_squares(members: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """canonical_triple's members before sorting, in the order given."""
    g = members[0]
    for mpoly in members[1:]:
        g = poly_gcd(g, mpoly)
    root = largest_square_root_divisor(g)
    if not root.is_const:
        sq = root * root
        stripped = tuple(poly_divide_exact(mp, sq) for mp in members)
        if any(q is None for q in stripped):
            raise VerificationError("canonical square factor did not divide a member")
        members = stripped
    contents = [mp.rational_content() for mp in members]
    for c in contents:
        if c.denominator != 1:
            raise VerificationError("family member has non-integer content")
    gc = 0
    for c in contents:
        gc = math.gcd(gc, c.numerator)
    _, croot = squarefree_decompose(gc)
    if croot > 1:
        inv = Fraction(1, croot * croot)
        members = tuple(mp * inv for mp in members)
    return members


def square_witnesses(a: Poly, b: Poly, c: Poly) -> tuple[Poly, Poly, Poly]:
    """(f, g, h) with f^2 = a+b+c, g^2 = ab+bc+ca, h^2 = abc; error if any fails."""
    names = ("sum", "pairwise-product sum", "product")
    ab = a * b
    values = (a + b + c, ab + (a + b) * c, ab * c)
    out = []
    for name, val in zip(names, values):
        w = poly_sqrt(val)
        if w is None:
            raise VerificationError("symmetric function %r is not a polynomial square" % name)
        out.append(w)
    return tuple(out)


def solution_family_polys(u: RatFunc) -> tuple[Poly, Poly, Poly]:
    """Canonical polynomial triple generated by a u on the quartic model."""
    return polynomialize_roots(cubic_root_triple(u))
