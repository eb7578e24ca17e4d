"""From a discriminant-squaring u to a polynomial solution family.

Given u(s, t) alone, the quadratic in x has two roots exactly when its
discriminant, s^4 phi(s, t, u), is a square, i.e. when u lies on the
quartic model; the exact square root is that check, and no v is needed.
Together with s^2 + t^2 the two roots are the roots of the cubic, i.e. a
rational solution triple.  Every point of the quartic over Q(s, t) is
s U(t/s) for a U on the line s = 1, t = m, so the triple is built in m
alone, from the numerator and denominator of U, scaled by a square into
polynomials, stripped of common square factors and homogenized once: the
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
    _divexact,
    canonical_sort_key,
    largest_square_root_divisor,
    poly_divide_exact,
    poly_gcd,
    poly_lcm,
    poly_sqrt,
    substitute,
    var,
)
from .triads import quad_in_x, quad_root_numerators

__all__ = [
    "line_u_triple",
    "polynomialize_roots",
    "canonical_triple",
    "square_witnesses",
    "solution_family_polys",
]


def line_u_triple(N: Poly, D: Poly) -> tuple[Poly, Poly, Poly]:
    """Canonical family in (s, t) of the line point U = N/D, N and D in Z[m].

    quad_in_x is homogeneous of degrees 2, 4, 6, and its B and C have
    degree 2 in u, so at (D, m D, N) = D (1, m, U) its coefficients are
    D^2 times polynomials A, B, C whose quadratic has the roots D^2 x(1, m).
    With R the exact square root of B^2 - 4AC (the check that U lies on
    the quartic model), the cubic's roots scaled by the square (2AD)^2 are

        (1 + m^2) (2AD)^2,  (-B + R) 2A,  (-B - R) 2A.

    Their common squares are stripped in m, and each member p becomes the
    form s^d p(t/s), with d the largest degree in m rounded up to even:
    a + b + c is a square, so the family's degree is even, and s^2 cannot
    divide all three members of a canonical family.
    """
    m = var("m")
    D2 = D * D
    A, B, C = (_divexact(c, D2) for c in quad_in_x(D, m * D, N))
    roots = quad_root_numerators(A, B, C)
    if roots is None:
        raise DomainError("discriminant is not a square for this u")
    two_a = 2 * A
    members = strip_common_squares(((1 + m * m) * (two_a * D) ** 2, roots[0] * two_a, roots[1] * two_a))
    d = max(mp.degree_in("m") for mp in members)
    d += d & 1
    return tuple(sorted((_homogenize_m(mp, d) for mp in members), key=canonical_sort_key))


def _homogenize_m(p: Poly, d: int) -> Poly:
    """s^d p(t/s) for p in m alone and d >= deg p, computed term by term."""
    if p.is_const:
        terms = {(d, 0): p.terms[()]} if not p.is_zero else {}
        return Poly._make(("s", "t"), terms)
    i = p.vars.index("m")
    return Poly._make(("s", "t"), {(d - e[i], e[i]): c for e, c in p.terms.items()})


def _weights_ok(f: RatFunc, weight: int) -> bool:
    """f is zero, or a quotient of forms whose degrees differ by weight."""
    if f.is_zero:
        return True
    if not (f.num.is_homogeneous() and f.den.is_homogeneous()):
        return False
    return f.num.total_degree() - f.den.total_degree() == weight


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
    """Canonical polynomial triple generated by a u(s, t) on the quartic model.

    A point of the quartic over Q(s, t) is s U(t/s), so u must be a
    function of s and t, homogeneous of weight 1; its U is u at s = 1,
    t = m.
    """
    if not _weights_ok(u, 1) or not set(u.num.vars) | set(u.den.vars) <= {"s", "t"}:
        raise DomainError("u must be a homogeneous function of s and t of weight 1")
    line = {"s": 1, "t": var("m")}
    return line_u_triple(substitute(u.num, line), substitute(u.den, line))
