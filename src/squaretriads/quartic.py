"""Quartic models v^2 = quartic(u): ascent, composition, discriminant forms.

All operations are generic over the coefficient domain: exact rationals
(int/Fraction) or rational functions (Poly/RatFunc), since the same
formulas are used both numerically and symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompositionError, DegenerateParameterError, DomainError, NoAscentError, VerificationError
from .exactnum import promote_int
from .multipoly import exact_sqrt

__all__ = [
    "QuarticModel",
    "QuarticPoint",
    "euler_quartic",
    "phi",
    "psi",
    "fermat_ascend",
    "ascend_constant_side",
    "ascend_leading_side",
    "choudhry_compose",
    "second_root_vieta",
]


@dataclass(frozen=True)
class QuarticModel:
    """v^2 = u^4 + a1 u^3 + a2 u^2 + a3 u + a4 over an exact domain."""

    a1: object
    a2: object
    a3: object
    a4: object

    def rhs(self, u):
        return ((u + self.a1) * u + self.a2) * u * u + self.a3 * u + self.a4

    def contains(self, pt: "QuarticPoint") -> bool:
        return pt.v * pt.v == self.rhs(pt.u)


@dataclass(frozen=True)
class QuarticPoint:
    u: object
    v: object


def euler_quartic(s, t) -> QuarticModel:
    """The quartic whose solutions make the x-quadratic discriminant a square.

    a1 = -4(s^2+t^2)/s, a2 = 2(s^2+t^2)(3s^4+2s^2t^2-2t^4)/s^4,
    a3 = -4(s^2+t^2)^2/s, a4 = (s^2+t^2)^2.
    """
    if s == 0:
        raise DomainError("euler_quartic requires s != 0")
    s, t = promote_int(s), promote_int(t)
    s2t2 = s * s + t * t
    a1 = -4 * s2t2 / s
    a2 = 2 * s2t2 * (3 * s**4 + 2 * s * s * t * t - 2 * t**4) / s**4
    a3 = -4 * s2t2 * s2t2 / s
    a4 = s2t2 * s2t2
    return QuarticModel(a1, a2, a3, a4)


def phi(s, t, u):
    """The quartic-in-u discriminant kernel: s^4 * phi equals the x-discriminant."""
    return euler_quartic(s, t).rhs(u)


def psi(s, t, x):
    """The u-discriminant kernel: 4 t^2 * psi equals the u-discriminant.

    psi = x(s^2 - x) t^4 + 2 s^4 t^2 x + s^2 (s^4 + s^2 x + x^2) x.
    """
    return x * (s * s - x) * t**4 + 2 * s**4 * t * t * x + s * s * (s**4 + s * s * x + x * x) * x


def ascend_constant_side(c4, c3, c2, c1, c0):
    """One Fermat step on v^2 = c4 u^4 + ... + c0 anchored at the square constant term.

    Matches (e + b1 u + b2 u^2)^2 against the low three coefficients; the
    leftover u^3/u^4 terms leave a linear equation for a new nonzero u.
    Returns (u, v) with v = e + b1 u + b2 u^2, so v^2 is the quartic at u.
    """
    e = exact_sqrt(promote_int(c0))
    if e is None or e == 0:
        raise NoAscentError("anchor coefficient is not a nonzero square")
    b1 = c1 / (2 * e)
    b2 = (c2 - b1 * b1) / (2 * e)
    den = b2 * b2 - c4
    if den == 0:
        raise NoAscentError("residual equation of the ascent is degenerate")
    u = (c3 - 2 * b1 * b2) / den
    if u == 0:
        raise NoAscentError("ascent reproduces the anchor point")
    return u, e + (b1 + b2 * u) * u


def ascend_leading_side(c4, c3, c2, c1, c0):
    """One Fermat step anchored at the square leading coefficient.

    At u = 1/w the quartic is u^4 times the reversed quartic in w, so this is
    the constant-side step on the reversed coefficients, mapped back.
    Returns (u, v) with v^2 the quartic at u.
    """
    w, v = ascend_constant_side(c0, c1, c2, c3, c4)
    return 1 / w, v / (w * w)


def fermat_ascend(Q: QuarticModel, side: str = "constant") -> QuarticPoint:
    """Rational point on Q from Fermat's square-matching method.

    side is "constant" (anchor at sqrt(a4)) or "leading" (anchor at the
    monic u^4 term); the returned v is the square root of the quartic at u,
    normalized nonnegative / positive-leading-coefficient.
    """
    if side not in ("constant", "leading"):
        raise DomainError("side must be 'constant' or 'leading'")
    if side == "constant":
        u, _ = ascend_constant_side(1, Q.a1, Q.a2, Q.a3, Q.a4)
    else:
        u, _ = ascend_leading_side(1, Q.a1, Q.a2, Q.a3, Q.a4)
    v = exact_sqrt(Q.rhs(u))
    if v is None:
        raise VerificationError("ascent produced an off-curve u; this is a bug")
    return QuarticPoint(u, v)


def choudhry_compose(Q: QuarticModel, P1: QuarticPoint, P2: QuarticPoint) -> QuarticPoint:
    """Third rational point from two points with distinct u (composition rule).

    u12 = {-2 v1 v2 + 2(u1-u2)(u2 v1 - u1 v2) + a1(u1+u2) u1 u2 + 2 a2 u1 u2
           + a3(u1+u2) + 2 a4 + 2(u1^2 - u1 u2 + u2^2) u1 u2}
          / {(u1-u2)(2 v1 - 2 v2 + a1(u1-u2) + 2 u1^2 - 2 u2^2)};
    v12 is recovered as the (normalized) square root of the quartic at u12.
    """
    if not Q.contains(P1) or not Q.contains(P2):
        raise DomainError("composition inputs must lie on the quartic model")
    u1, v1, u2, v2 = P1.u, P1.v, P2.u, P2.v
    if u1 == u2:
        raise CompositionError("composition requires distinct u coordinates")
    num = (
        -2 * v1 * v2
        + 2 * (u1 - u2) * (u2 * v1 - u1 * v2)
        + Q.a1 * (u1 + u2) * u1 * u2
        + 2 * Q.a2 * u1 * u2
        + Q.a3 * (u1 + u2)
        + 2 * Q.a4
        + 2 * (u1 * u1 - u1 * u2 + u2 * u2) * u1 * u2
    )
    den = (u1 - u2) * (2 * v1 - 2 * v2 + Q.a1 * (u1 - u2) + 2 * u1 * u1 - 2 * u2 * u2)
    if den == 0:
        raise CompositionError("composition denominator vanishes for these points")
    u12 = promote_int(num) / den
    v12 = exact_sqrt(Q.rhs(u12))
    if v12 is None:
        raise VerificationError("composed u is off-curve; this is a bug")
    return QuarticPoint(u12, v12)


def second_root_vieta(A, B, C, known):
    """The other root of A x^2 + B x + C = 0 given one root, via Vieta."""
    if A == 0:
        raise DegenerateParameterError("Vieta step needs a true quadratic (A != 0)")
    if A * known * known + B * known + C != 0:
        raise DomainError("claimed root does not satisfy the quadratic")
    A = promote_int(A)
    if known != 0:
        return C / (A * known)
    return -B / A - known
