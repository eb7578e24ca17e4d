"""Weierstrass curves over the rationals and over the rational functions in m.

The quartic model in (U, V) is birationally a short Weierstrass curve
Y^2 = X^3 + A X + B over Q(m); its point P of infinite order generates,
through the birational map and the homogenization m = t/s, infinitely many
polynomial solution families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, PipelineStepError, PoleError, VerificationError
from .exactnum import promote_int
from .families import ParametricFamily, make_family
from .multipoly import Poly, RatFunc, poly_sqrt, var  # noqa: F401 (perfbench wraps ecurve.poly_sqrt)
from .pipeline import solution_family_polys

__all__ = [
    "ECPoint",
    "WeierstrassModel",
    "ec_add",
    "ec_neg",
    "ec_mul",
    "ecweier",
    "point_P",
    "quartic_model_coeffs",
    "xy_to_quartic",
    "quartic_to_xy",
    "dehomogenize",
    "homogenize",
    "line_to_plane",
    "plane_to_line",
    "specialize_curve",
    "specialize_point",
    "infinite_order_screen",
    "generate_family",
    "roundtrip_identity_xy",
    "roundtrip_identity_uv",
]


@dataclass(frozen=True)
class ECPoint:
    """Affine point (x, y) or the identity (x = y = None)."""

    x: object = None
    y: object = None

    @staticmethod
    def identity() -> "ECPoint":
        return ECPoint(None, None)

    @property
    def is_identity(self) -> bool:
        return self.x is None


@dataclass(frozen=True)
class WeierstrassModel:
    """Y^2 = X^3 + A X + B over an exact domain; must be nonsingular."""

    A: object
    B: object

    def __post_init__(self):
        if self.discriminant() == 0:
            raise DomainError("singular curve: discriminant vanishes")

    def discriminant(self):
        return -16 * (4 * self.A**3 + 27 * self.B * self.B)

    def contains(self, P: ECPoint) -> bool:
        if P.is_identity:
            return True
        return P.y * P.y == (P.x * P.x + self.A) * P.x + self.B


def _require_on_curve(E: WeierstrassModel, *points: ECPoint):
    for P in points:
        if not E.contains(P):
            raise DomainError("point is not on the curve")


def ec_neg(P: ECPoint) -> ECPoint:
    if P.is_identity:
        return P
    return ECPoint(P.x, -P.y)


def _add_unchecked(E: WeierstrassModel, P: ECPoint, Q: ECPoint) -> ECPoint:
    if P.is_identity:
        return Q
    if Q.is_identity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return ECPoint.identity()
        lam = (3 * P.x * P.x + E.A) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return ECPoint(x3, y3)


def ec_add(E: WeierstrassModel, P: ECPoint, Q: ECPoint) -> ECPoint:
    """Chord-and-tangent sum of two points on E."""
    _require_on_curve(E, P, Q)
    return _add_unchecked(E, P, Q)


def ec_mul(E: WeierstrassModel, k: int, P: ECPoint) -> ECPoint:
    """k-fold sum of P (k >= 0), validated once on entry."""
    if k < 0:
        raise DomainError("ec_mul requires k >= 0")
    _require_on_curve(E, P)
    acc = ECPoint.identity()
    for _ in range(k):
        acc = _add_unchecked(E, acc, P)
    return acc


# ---------------------------------------------------------------------------
# The specific function-field curve and its birational quartic model
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def ecweier() -> WeierstrassModel:
    """Y^2 = X^3 - 432(m^4-2m^2-2)(m^2+1)^2 X - 1728(m^2-1)(m^2+1)^3(2m^4-4m^2-7)."""
    m = var("m")
    A = -432 * (m**4 - 2 * m**2 - 2) * (m**2 + 1) ** 2
    B = -1728 * (m**2 - 1) * (m**2 + 1) ** 3 * (2 * m**4 - 4 * m**2 - 7)
    return WeierstrassModel(RatFunc(A), RatFunc(B))


@lru_cache(maxsize=1)
def point_P() -> ECPoint:
    """X = -12(m^6 - 4m^2 - 3)/m^2, Y = 216(m^2+1)^2/m^3; on ecweier identically."""
    m = var("m")
    X = RatFunc(-12 * (m**6 - 4 * m**2 - 3), m**2)
    Y = RatFunc(216 * (m**2 + 1) ** 2, m**3)
    return ECPoint(X, Y)


def quartic_model_coeffs(m):
    """Coefficients (a1, a2, a3, a4) of the dehomogenized quartic in U over Q(m).

    V^2 = U^4 - 4(m^2+1)U^3 - 2(m^2+1)(2m^4-2m^2-3)U^2 - 4(m^2+1)^2 U + (m^2+1)^2.
    """
    m1 = m * m + 1
    return (
        -4 * m1,
        -2 * m1 * (2 * m**4 - 2 * m * m - 3),
        -4 * m1 * m1,
        m1 * m1,
    )


def _quartic_rhs(U, m):
    a1, a2, a3, a4 = quartic_model_coeffs(m)
    return ((U + a1) * U + a2) * U * U + a3 * U + a4


def xy_to_quartic(X, Y, m):
    """(U, V) image of a curve point under the birational map.

    U = (6(m^2+1)X + mY + 72m^6 + 72m^4 - 72m^2 - 72) / (6(X - 24m^4 - 36m^2 - 12)),
    V = (2m^2 X^3 - 36m^2(2m^2+1)(m^2+1)X^2 - m^2 Y^2 - 432 m^3 (m^2+1)^2 Y
         + 1728 m^2 (m^2+1)^3 (8m^6 - 15m^4 - 21m^2 + 1))
        / (6(X - 24m^4 - 36m^2 - 12))^2.
    """
    m1 = m * m + 1
    den = promote_int(6 * (X - 24 * m**4 - 36 * m * m - 12))
    if den == 0:
        raise PoleError("X lies on the pole line of the birational map")
    U = (6 * m1 * X + m * Y + 72 * m**6 + 72 * m**4 - 72 * m * m - 72) / den
    V = (
        2 * m * m * X**3
        - 36 * m * m * (2 * m * m + 1) * m1 * X * X
        - m * m * Y * Y
        - 432 * m**3 * m1 * m1 * Y
        + 1728 * m * m * m1**3 * (8 * m**6 - 15 * m**4 - 21 * m * m + 1)
    ) / (den * den)
    return U, V


def quartic_to_xy(U, V, m):
    """(X, Y) image of a quartic-model point; pole at m = 0.

    X = 6(3U^2 - (6m^2+6)U + 3V - (m^2+1)(2m^4-2m^2-3)) / m^2,
    Y = 108(U^3 - (3m^2+3)U^2 + UV - (m^2+1)(2m^4-2m^2-3)U - (m^2+1)V - (m^2+1)^2) / m^3.
    """
    if m == 0:
        raise PoleError("the map back to the curve has a pole at m = 0")
    m = promote_int(m)
    m1 = m * m + 1
    c = m1 * (2 * m**4 - 2 * m * m - 3)
    X = 6 * (3 * U * U - 6 * m1 * U + 3 * V - c) / (m * m)
    Y = 108 * (U**3 - 3 * m1 * U * U + U * V - c * U - m1 * V - m1 * m1) / (m**3)
    return X, Y


def dehomogenize(s, t, u, v):
    """(m, U, V) = (t/s, u/s, v/s^2); works over any exact domain."""
    if s == 0:
        raise DomainError("dehomogenize requires s != 0")
    s = promote_int(s)
    return (t / s, u / s, v / (s * s))


def homogenize(m, U, V, s):
    """(t, u, v) = (m s, s U, s^2 V), the inverse of dehomogenize at this s."""
    if s == 0:
        raise DomainError("homogenize requires s != 0")
    return (m * s, s * U, s * s * V)


def _weights_ok(f: RatFunc, weight: int) -> bool:
    if f.is_zero:
        return True
    if not (f.num.is_homogeneous() and f.den.is_homogeneous()):
        return False
    return f.num.total_degree() - f.den.total_degree() == weight


def plane_to_line(u: RatFunc, v: RatFunc) -> tuple[RatFunc, RatFunc]:
    """(U(m), V(m)) from weight-(1, 2) homogeneous u(s, t), v(s, t)."""
    if not (_weights_ok(u, 1) and _weights_ok(v, 2)):
        raise DomainError("u, v must be homogeneous of weights 1 and 2")
    binding = {"s": 1, "t": var("m")}
    return u.substitute(binding), v.substitute(binding)


def _homogenize_univar(f: RatFunc, weight: int) -> RatFunc:
    """s^weight * f(t/s) for f univariate in m, computed term by term."""

    def hom(p: Poly, d: int) -> Poly:
        if p.is_const:
            terms = {(d, 0): p.terms[()]} if not p.is_zero else {}
            return Poly._make(("s", "t"), terms)
        i = p.vars.index("m")
        terms = {}
        for e, c in p.terms.items():
            terms[(d - e[i], e[i])] = c
        return Poly._make(("s", "t"), terms)

    dn = f.num.degree_in("m")
    dd = f.den.degree_in("m")
    shift = weight + dd - dn
    num = hom(f.num, dn)
    den = hom(f.den, dd)
    s = var("s")
    if shift >= 0:
        num = num * s**shift
    else:
        den = den * s ** (-shift)
    return RatFunc(num, den)


def line_to_plane(U: RatFunc, V: RatFunc) -> tuple[RatFunc, RatFunc]:
    """(u(s, t), v(s, t)) = (s U(t/s), s^2 V(t/s))."""
    for f in (U, V):
        extra = set(f.num.vars) | set(f.den.vars)
        if extra - {"m"}:
            raise DomainError("line functions must be rational functions of m only")
    return _homogenize_univar(U, 1), _homogenize_univar(V, 2)


def specialize_curve(E: WeierstrassModel, m_val: Fraction) -> WeierstrassModel:
    point = {"m": Fraction(m_val)}
    return WeierstrassModel(E.A.evaluate(point), E.B.evaluate(point))


def specialize_point(P: ECPoint, m_val: Fraction) -> ECPoint:
    if P.is_identity:
        return P
    point = {"m": Fraction(m_val)}
    return ECPoint(P.x.evaluate(point), P.y.evaluate(point))


def infinite_order_screen(E: WeierstrassModel, P: ECPoint) -> bool:
    """True when P is certified of infinite order on an integral model.

    Non-integral coordinates certify infinite order outright (Nagell-Lutz);
    otherwise no multiple kP for k <= 12 may be the identity, since
    rational torsion orders never exceed 12 (Mazur's bound).
    """
    A, B = Fraction(E.A), Fraction(E.B)
    if A.denominator != 1 or B.denominator != 1:
        raise DomainError("screen requires integral curve coefficients")
    if P.is_identity:
        return False
    _require_on_curve(E, P)
    x, y = Fraction(P.x), Fraction(P.y)
    if x.denominator != 1 or y.denominator != 1:
        return True
    acc = P
    for _ in range(2, 13):
        acc = _add_unchecked(E, acc, P)
        if acc.is_identity:
            return False
    return True


def generate_family(k: int) -> ParametricFamily:
    """Polynomial solution family from the k-th multiple of P on the curve.

    Maps kP through the birational transformation to the quartic model,
    homogenizes with m = t/s, and runs the shared solution pipeline.
    k = 1 recovers the constant-side ascent family.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError("generate_family requires an integer k >= 1")
    E = ecweier()
    P = point_P()
    try:
        Pk = ec_mul(E, k, P)
    except (PoleError, ZeroDivisionError) as exc:
        raise PipelineStepError("group law degenerated at k = %d: %s" % (k, exc)) from exc
    if Pk.is_identity:
        raise PipelineStepError("kP is the identity at k = %d" % k)
    m = RatFunc(var("m"))
    try:
        U, V = xy_to_quartic(Pk.x, Pk.y, m)
    except PoleError as exc:
        raise PipelineStepError("birational map has a pole at k = %d" % k) from exc
    if V * V != _quartic_rhs(U, m):
        raise VerificationError("birational image is off the quartic model")
    u, v = line_to_plane(U, V)
    members = solution_family_polys(u, v)
    return make_family(
        "ecgen%d" % k,
        ("s", "t"),
        members,
        (var("s"), var("t"), u.den),
        "function-field generator, k = %d" % k,
    )


# ---------------------------------------------------------------------------
# Symbolic round-trip identities modulo the curve relations
# ---------------------------------------------------------------------------


def _reduce_mod_relation(p: Poly, sq_var: str, rhs: Poly) -> Poly:
    """Rewrite sq_var^2 -> rhs until p has degree <= 1 in sq_var."""
    coeffs = p.as_univariate(sq_var)
    out = Poly.zero()
    yv = Poly.variable(sq_var)
    for e, c in enumerate(coeffs):
        if c.is_zero:
            continue
        out = out + c * rhs ** (e // 2) * yv ** (e % 2)
    return out


def _curve_rhs_poly() -> Poly:
    Xv = var("X")
    E = ecweier()
    return Xv**3 + E.A.num * Xv + E.B.num


def _quartic_rhs_poly() -> Poly:
    Uv = var("U")
    a1, a2, a3, a4 = quartic_model_coeffs(var("m"))
    return Uv**4 + a1 * Uv**3 + a2 * Uv**2 + a3 * Uv + a4


def roundtrip_identity_xy() -> bool:
    """(X, Y) -> (U, V) -> (X, Y) is the identity modulo Y^2 = X^3 + AX + B."""
    Xv, Yv, m = var("X"), var("Y"), var("m")
    X, Y, M = RatFunc(Xv), RatFunc(Yv), RatFunc(m)
    U, V = xy_to_quartic(X, Y, M)
    X2, Y2 = quartic_to_xy(U, V, M)
    rhs = _curve_rhs_poly()
    for before, after in ((X, X2), (Y, Y2)):
        diff = after - before
        if not _reduce_mod_relation(diff.num, "Y", rhs).is_zero:
            return False
        if _reduce_mod_relation(diff.den, "Y", rhs).is_zero:
            raise VerificationError("round-trip denominator vanishes on the curve")
    return True


def roundtrip_identity_uv() -> bool:
    """(U, V) -> (X, Y) -> (U, V) is the identity modulo V^2 = quartic(U)."""
    Uv, Vv, m = var("U"), var("V"), var("m")
    U, V, M = RatFunc(Uv), RatFunc(Vv), RatFunc(m)
    X, Y = quartic_to_xy(U, V, M)
    U2, V2 = xy_to_quartic(X, Y, M)
    rhs = _quartic_rhs_poly()
    for before, after in ((U, U2), (V, V2)):
        diff = after - before
        if not _reduce_mod_relation(diff.num, "V", rhs).is_zero:
            return False
        if _reduce_mod_relation(diff.den, "V", rhs).is_zero:
            raise VerificationError("round-trip denominator vanishes on the quartic model")
    return True
