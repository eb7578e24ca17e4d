"""Quartic models v^2 = quartic(u): ascent, composition, discriminant forms.

All operations are generic over the coefficient domain: exact rationals
(int/Fraction) or rational functions (Poly/RatFunc), since the same
formulas are used both numerically and symbolically.  They run on
numerators and denominators over the base ring (int or Poly, split by
multipoly._parts) and reduce each returned value once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompositionError, DegenerateParameterError, DomainError, NoAscentError, VerificationError
from .exactnum import promote_int
from .multipoly import _parts, _quotient, exact_sqrt

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
    """v^2 = u^4 + a1 u^3 + a2 u^2 + a3 u + a4 over an exact domain.

    The coefficients are kept as given (integers become Fractions) and,
    for the formulas, over their base ring: with a_i = A_i / M, the model
    times M is M v^2 = M u^4 + A1 u^3 + A2 u^2 + A3 u + A4.
    """

    a1: object
    a2: object
    a3: object
    a4: object

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4"):
            object.__setattr__(self, name, promote_int(getattr(self, name)))
        *nums, M = _parts(self.a1, self.a2, self.a3, self.a4)
        object.__setattr__(self, "_ring", (M, *nums))

    def _form(self, p, q):
        """M q^4 rhs(p / q), the model's binary quartic over the base ring."""
        M, A1, A2, A3, A4 = self._ring
        q2 = q * q
        return ((M * p + A1 * q) * p + A2 * q2) * p * p + (A3 * p + A4 * q) * q2 * q

    def rhs(self, u):
        p, q = _parts(u)
        return _quotient(self._form(p, q), self._ring[0] * q**4)

    def contains(self, pt: "QuarticPoint") -> bool:
        p, q = _parts(pt.u)
        r, w = _parts(pt.v)
        return r * r * self._ring[0] * q**4 == self._form(p, q) * w * w


@dataclass(frozen=True)
class QuarticPoint:
    u: object
    v: object

    def __post_init__(self):
        object.__setattr__(self, "u", promote_int(self.u))
        object.__setattr__(self, "v", promote_int(self.v))


def euler_quartic(s, t) -> QuarticModel:
    """The quartic whose solutions make the x-quadratic discriminant a square.

    a1 = -4(s^2+t^2)/s, a2 = 2(s^2+t^2)(3s^4+2s^2t^2-2t^4)/s^4,
    a3 = -4(s^2+t^2)^2/s, a4 = (s^2+t^2)^2.  a_i is homogeneous of degree
    i, so at s = a/d, t = b/d it is a_i(a, b) / d^i.
    """
    if s == 0:
        raise DomainError("euler_quartic requires s != 0")
    a, b, d = _parts(s, t)
    n = a * a + b * b
    a1 = _quotient(-4 * n, a * d)
    a2 = _quotient(2 * n * (3 * a**4 + 2 * a * a * b * b - 2 * b**4), a**4 * d * d)
    a3 = _quotient(-4 * n * n, a * d**3)
    a4 = _quotient(n * n, d**4)
    return QuarticModel(a1, a2, a3, a4)


def phi(s, t, u):
    """The quartic-in-u discriminant kernel: s^4 * phi equals the x-discriminant."""
    return euler_quartic(s, t).rhs(u)


def psi(s, t, x):
    """The u-discriminant kernel: 4 t^2 * psi equals the u-discriminant.

    psi = x(s^2 - x) t^4 + 2 s^4 t^2 x + s^2 (s^4 + s^2 x + x^2) x.
    """
    s, t, x = map(promote_int, (s, t, x))
    return x * (s * s - x) * t**4 + 2 * s**4 * t * t * x + s * s * (s**4 + s * s * x + x * x) * x


def _ascent(n4, n3, n2, n1, n0, d):
    """One Fermat step on v^2 = c4 u^4 + ... + c0, c_i = n_i / d, over the base ring.

    Times d^2 the quartic has the ring coefficients C_i = d n_i and the same
    u.  With E the root of C0, matching (E + b1 u + b2 u^2)^2 against the low
    three coefficients gives b1 = C1 / 2E and b2 = G / 8E^3, and the
    leftover u^3/u^4 terms give
        u = 8 E^2 H / K,   v = E W / (d K^2),
    where G = 4 E^2 C2 - C1^2, H = 8 E^4 C3 - C1 G, K = G^2 - 64 E^6 C4 and
    W = K^2 + 4 H (C1 K + 2 H G).  Returns (8 E^2 H, K, E W).
    """
    E = exact_sqrt(d * n0)
    if E is None or E == 0:
        raise NoAscentError("anchor coefficient is not a nonzero square")
    C1, C2, C3, C4 = d * n1, d * n2, d * n3, d * n4
    E2 = E * E
    G = 4 * E2 * C2 - C1 * C1
    H = 8 * E2 * E2 * C3 - C1 * G
    K = G * G - 64 * E2 * E2 * E2 * C4
    if K == 0:
        raise NoAscentError("residual equation of the ascent is degenerate")
    if H == 0:
        raise NoAscentError("ascent reproduces the anchor point")
    return 8 * E2 * H, K, E * (K * K + 4 * H * (C1 * K + 2 * H * G))


def ascend_constant_side(c4, c3, c2, c1, c0):
    """One Fermat step on v^2 = c4 u^4 + ... + c0 anchored at the square constant term.

    Matches (e + b1 u + b2 u^2)^2 against the low three coefficients; the
    leftover u^3/u^4 terms leave a linear equation for a new nonzero u.
    Returns (u, v) with v = e + b1 u + b2 u^2, so v^2 is the quartic at u.
    """
    *n, d = _parts(c4, c3, c2, c1, c0)
    x, y, w = _ascent(*n, d)
    return _quotient(x, y), _quotient(w, d * y * y)


def ascend_leading_side(c4, c3, c2, c1, c0):
    """One Fermat step anchored at the square leading coefficient.

    At u = 1/w the quartic is u^4 times the reversed quartic in w, so this is
    the constant-side step on the reversed coefficients, mapped back.
    Returns (u, v) with v^2 the quartic at u.
    """
    *n, d = _parts(c0, c1, c2, c3, c4)
    x, y, w = _ascent(*n, d)
    return _quotient(y, x), _quotient(w, d * x * x)


def fermat_ascend(Q: QuarticModel, side: str = "constant") -> QuarticPoint:
    """Rational point on Q from Fermat's square-matching method.

    side is "constant" (anchor at sqrt(a4)) or "leading" (anchor at the
    monic u^4 term); the returned v is the square root of the quartic at u,
    normalized nonnegative / positive-leading-coefficient.
    """
    if side not in ("constant", "leading"):
        raise DomainError("side must be 'constant' or 'leading'")
    M, A1, A2, A3, A4 = Q._ring
    if side == "constant":
        p, q, _ = _ascent(M, A1, A2, A3, A4, M)
    else:
        q, p, _ = _ascent(A4, A3, A2, A1, M, M)
    # v^2 = Q._form(p, q) / (M q^4)
    root = exact_sqrt(Q._form(p, q) * M)
    if root is None:
        raise VerificationError("ascent produced an off-curve u; this is a bug")
    return QuarticPoint(_quotient(p, q), _quotient(root, M * q * q))


def choudhry_compose(Q: QuarticModel, P1: QuarticPoint, P2: QuarticPoint) -> QuarticPoint:
    """Third rational point from two points with distinct u (composition rule).

    u12 = {-2 v1 v2 + 2(u1-u2)(u2 v1 - u1 v2) + a1(u1+u2) u1 u2 + 2 a2 u1 u2
           + a3(u1+u2) + 2 a4 + 2(u1^2 - u1 u2 + u2^2) u1 u2}
          / {(u1-u2)(2 v1 - 2 v2 + a1(u1-u2) + 2 u1^2 - 2 u2^2)};
    v12 is recovered as the (normalized) square root of the quartic at u12.
    Over the base ring, with u_i = p_i / q_i, v_i = r_i / w_i and a_i = A_i / M,
    numerator and denominator are multiplied by M (q1 q2)^3 w1 w2.
    """
    if not Q.contains(P1) or not Q.contains(P2):
        raise DomainError("composition inputs must lie on the quartic model")
    (p1, q1), (r1, w1) = _parts(P1.u), _parts(P1.v)
    (p2, q2), (r2, w2) = _parts(P2.u), _parts(P2.v)
    diff = p1 * q2 - p2 * q1
    if diff == 0:
        raise CompositionError("composition requires distinct u coordinates")
    M, A1, A2, A3, A4 = Q._ring
    add, prod, qq, ww = p1 * q2 + p2 * q1, p1 * p2, q1 * q2, w1 * w2
    qq2 = qq * qq
    num = 2 * M * qq * (diff * (p2 * r1 * q1 * w2 - p1 * r2 * q2 * w1) - qq2 * r1 * r2) + ww * (
        (A1 * add * prod + A3 * add * qq + 2 * (A2 * prod + A4 * qq) * qq) * qq
        + 2 * M * (add * add - 3 * prod * qq) * prod
    )
    den = diff * (2 * M * qq2 * (r1 * w2 - r2 * w1) + diff * ww * (A1 * qq + 2 * M * add))
    if den == 0:
        raise CompositionError("composition denominator vanishes for these points")
    root = exact_sqrt(Q._form(num, den) * M)
    if root is None:
        raise VerificationError("composed u is off-curve; this is a bug")
    return QuarticPoint(_quotient(num, den), _quotient(root, M * den * den))


def second_root_vieta(A, B, C, known):
    """The other root of A x^2 + B x + C = 0 given one root, via Vieta."""
    A, B, C, known = map(promote_int, (A, B, C, known))
    if A == 0:
        raise DegenerateParameterError("Vieta step needs a true quadratic (A != 0)")
    if A * known * known + B * known + C != 0:
        raise DomainError("claimed root does not satisfy the quadratic")
    if known != 0:
        return C / (A * known)
    return -B / A - known
