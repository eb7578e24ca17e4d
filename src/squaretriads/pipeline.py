"""From a discriminant-squaring u to a polynomial solution family.

Given u(s, t) alone, the quadratic in x has two roots exactly when its
discriminant, s^4 phi(s, t, u), is a square, i.e. when u lies on the
quartic model; the exact square root is that check, and no v is needed.
Together with s^2 + t^2 the two roots are the roots of the cubic, i.e. a
rational solution triple.  Every point of the quartic over Q(s, t) is
s U(t/s) for a U on the line s = 1, t = m, so the triple is built in m
alone, from the numerator and denominator of U, scaled by a square into
polynomials, stripped of common square factors and homogenized once: the
canonical polynomial family.  This module is the only one that maps
between the line and the plane (s, t).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .errors import DomainError, PoleError, VerificationError
from .exactnum import squarefree_decompose
from .multipoly import (
    Poly,
    RatFunc,
    _divexact,
    _from_list,
    _require_poly,
    _to_list,
    canonical_sort_key,
    largest_square_root_divisor,
    poly_gcd,
    poly_sqrt,
    substitute,
    var,
)
from .triads import quad_root_numerators

__all__ = [
    "line_u_triple",
    "polynomialize_roots",
    "canonical_triple",
    "square_witnesses",
    "solution_family_polys",
]


def line_u_triple(N: Poly, D: Poly) -> tuple[Poly, Poly, Poly]:
    """Canonical family in (s, t) of the line point U = N/D, N and D in Z[m].

    N/D is first reduced by one gcd.  With A, B, C from _line_quadratic,
    the quadratic A x^2 + B x + C has the roots D^2 x(1, m).  With R the
    exact square root of B^2 - 4AC (the check that U lies on the quartic
    model), the cubic's roots scaled by the square (2AD)^2 are

        (1 + m^2) (2AD)^2,  (-B + R) 2A,  (-B - R) 2A.

    Their common squares are stripped in m (_strip_m_squares), and each
    member p becomes the form s^d p(t/s), with d the largest degree in m
    rounded up to even: a + b + c is a square, so the family's degree is
    even, and s^2 cannot divide all three members of a canonical family.
    """
    _require_poly("line_u_triple", N, D)
    if D.is_zero:
        raise PoleError("U = N/D has a zero denominator")
    if N.is_zero:
        raise DomainError("U = 0 gives a zero member, so no triad")
    extra = sorted((set(N.vars) | set(D.vars)) - {"m"})
    if extra:
        raise DomainError("U must be a function of m alone, not of %s" % ", ".join(extra))
    g = poly_gcd(N, D)
    if not g.is_const:
        N, D = _divexact(N, g), _divexact(D, g)
    return _line_u_members(N, D)


def _line_u_members(N: Poly, D: Poly) -> tuple[Poly, Poly, Poly]:
    """line_u_triple for N, D in Z[m] with N, D nonzero and gcd(N, D) = 1.

    The coprimality is what bounds the common square (_strip_m_squares), so
    a caller that has not reduced N/D goes through line_u_triple.
    """
    m2 = var("m") ** 2
    A, B, C = _line_quadratic(N, D)
    roots = quad_root_numerators(A, B, C)
    if roots is None:
        raise DomainError("discriminant is not a square for this u")
    two_a = 2 * A
    members = _strip_m_squares(((1 + m2) * (two_a * D) ** 2, roots[0] * two_a, roots[1] * two_a))
    d = max(mp.degree_in("m") for mp in members)
    d += d & 1
    return tuple(sorted((_homogenize_m(mp, d) for mp in members), key=canonical_sort_key))


def _strip_m_squares(members: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """line_u_triple's members a0, b0, c0 stripped of their common squares.

    With gcd(N, D) = 1 the gcd G of the members divides m^4 (1 + m^2): an
    irreducible p other than m and m^2 + 1 that divides all three divides
    a0 = (1 + m^2)(2 m^2 D)^2, hence D, and b0 + c0 = -4 m^2 B, hence B
    and so N^2; and the same argument on a0 and b0 + c0 gives v_m(G) <= 4
    and v_{m^2+1}(G) <= 1.  So the largest square dividing G is m^(2j),
    with 2j the least m-valuation of the members rounded down to even,
    and what is left to strip is the square integer content.
    """
    j = min(e[0] for mp in members for e in mp.terms) >> 1
    if j:
        sq = var("m") ** (2 * j)
        members = tuple(_divexact(mp, sq) for mp in members)
    return _strip_square_content(members)


def _line_quadratic(N: Poly, D: Poly) -> tuple[Poly, Poly, Poly]:
    """quad_in_x(D, m D, N) / D^2 in closed form.

    quad_in_x is homogeneous of degrees 2, 4, 6, and its B and C have
    degree 2 in u, so at (D, m D, N) = D (1, m, U) each coefficient is D^2
    times a polynomial: A = m^2, B = -((1 + m^2) D (D - 2N) + N^2) and
    C = m^2 (1 + m^2) (N D)^2.
    """
    m2 = var("m") ** 2
    return m2, -((1 + m2) * D * (D - 2 * N) + N * N), m2 * (1 + m2) * (N * D) ** 2


def _homogenize_m(p: Poly, d: int) -> Poly:
    """s^d p(t/s) for p in m alone and d >= deg p.

    The form's image keeps t, whose exponents are those of m in p, so p's
    coefficient list in m is the form's list as well.
    """
    if p.is_zero:
        return p
    low, L = _to_list(p, ("m",), None, False)
    return _from_list(("s", "t"), None, d, low, L)


def polynomialize_roots(roots: tuple[RatFunc, ...]) -> tuple[Poly, ...]:
    """Scale a rational root triple by a square into canonical polynomials.

    The scale is the square of the product of the denominators;
    canonical_triple then strips the surplus square factors, and the
    stripped triple is the one representative of its class under scaling
    by squares.  A zero root would be a zero member, which no triad has.
    """
    roots = tuple(map(RatFunc._coerce, _triple(roots)))
    if any(rt.is_zero for rt in roots):
        raise DomainError("a zero root gives a zero member, so no triad")
    scale = math.prod((rt.den for rt in roots), start=Poly.one()) ** 2
    return canonical_triple(tuple(rt.num * _divexact(scale, rt.den) for rt in roots))


def canonical_triple(members: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """Strip the largest common square polynomial factor and square content.

    The triple may only be rescaled by squares, so this is the canonical
    representative of its scaling class; members are sorted deterministically.
    """
    return tuple(sorted(strip_common_squares(members), key=canonical_sort_key))


def strip_common_squares(members: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """canonical_triple's members before sorting, in the order given."""
    members = _triple(members)
    root = largest_square_root_divisor(reduce(poly_gcd, members))
    if not root.is_const:
        sq = root * root
        members = tuple(_divexact(mp, sq) for mp in members)
    return _strip_square_content(members)


def _triple(members) -> tuple:
    """members as a tuple, if it is a tuple or list of exactly three; otherwise DomainError."""
    if not isinstance(members, (tuple, list)) or len(members) != 3:
        raise DomainError("a triple is a tuple or list of three members, not %r" % (members,))
    return tuple(members)


def _strip_square_content(members: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """members divided by the largest square dividing their integer contents."""
    contents = [mp.rational_content() for mp in members]
    if any(c.denominator != 1 for c in contents):
        raise VerificationError("family member has non-integer content")
    _, croot = squarefree_decompose(math.gcd(*(c.numerator for c in contents)))
    if croot > 1:
        inv = Fraction(1, croot * croot)
        members = tuple(mp * inv for mp in members)
    return members


def square_witnesses(a: Poly, b: Poly, c: Poly) -> tuple[Poly, Poly, Poly]:
    """(f, g, h) with f^2 = a+b+c, g^2 = ab+bc+ca, h^2 = abc; error if any fails."""
    _require_poly("square_witnesses", a, b, c)
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
    u = RatFunc._coerce(u)
    num, den = u.num, u.den
    weight_one = num.is_homogeneous() and den.is_homogeneous() and num.total_degree() - den.total_degree() == 1
    if not weight_one or not set(num.vars) | set(den.vars) <= {"s", "t"}:
        raise DomainError("u must be a homogeneous function of s and t of weight 1")
    line = {"s": 1, "t": var("m")}
    return line_u_triple(substitute(num, line), substitute(den, line))
