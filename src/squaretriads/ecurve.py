"""Weierstrass curves over the rationals and over the rational functions in m.

The quartic model in (U, V) is birationally a short Weierstrass curve
Y^2 = X^3 + A X + B over Q(m); its point P of infinite order generates,
through the birational map and the homogenization m = t/s, infinitely many
polynomial solution families.

The generator reaches kP without the group law: scaled by m, the curve and
P have coefficients in Z[m], and the division-polynomial values
W_n = psi_n(P) form an elliptic divisibility sequence in Z[m] (Ward, Amer.
J. Math. 70, 1948; Washington, Elliptic Curves, section 3.2) that gives kP
in Jacobian coordinates with exact divisions only.  P has additive
reduction at m^2 + 1 = 0, where the valuation of W_n grows like n^2
(Silverman, Math. Ann. 332, 2005), so each W_n is carried as
(m^2 + 1)^v R_n.  The chord-and-tangent `ec_mul` works over any exact
domain and is the oracle for the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, PipelineStepError, PoleError, VerificationError
from .exactnum import promote_int
from .families import ParametricFamily, make_family
from .multipoly import Poly, RatFunc, _divexact, poly_divide_exact, poly_sqrt, var  # noqa: F401 (perfbench wraps ecurve.poly_sqrt)
from .pipeline import _homogenize_m, _weights_ok, line_u_triple
from .quartic import phi

__all__ = [
    "ECPoint",
    "WeierstrassModel",
    "ec_add",
    "ec_neg",
    "ec_mul",
    "ecweier",
    "point_P",
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

    def rhs(self, x):
        return (x * x + self.A) * x + self.B

    def contains(self, P: ECPoint) -> bool:
        if P.is_identity:
            return True
        return P.y * P.y == self.rhs(P.x)


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


def _require_multiple(k, least: int, caller: str):
    # bool is a subclass of int, but True is not the multiple 1
    if isinstance(k, bool) or not isinstance(k, int) or k < least:
        raise DomainError("%s requires an integer k >= %d" % (caller, least))


def ec_mul(E: WeierstrassModel, k: int, P: ECPoint) -> ECPoint:
    """k-fold sum of P (integer k >= 0) by chord and tangent, validated once on entry."""
    _require_multiple(k, 0, "ec_mul")
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


def _quartic_u(X, Y, m, z=1):
    """(U, den): U of the birational image of the point (X/z^2, Y/z^3), and
    den = 6z(X - 12(2m^4 + 3m^2 + 1)z^2).

    U = (6(m^2+1)Xz + mY + 72(m^6 + m^4 - m^2 - 1)z^3) / den.  z = 1 is the
    affine map; Jacobian coordinates in Z[m] give U as one quotient of
    polynomials.  The powers of z multiply the integer coefficients first,
    so z = 1 costs no extra operation on X, Y or m.
    """
    z2 = z * z
    den = promote_int(6 * z * (X - 12 * z2 * (2 * m**4 + 3 * m * m + 1)))
    if den == 0:
        raise PoleError("X lies on the pole line of the birational map")
    num = 6 * z * (m * m + 1) * X + m * Y + 72 * z2 * z * (m**6 + m**4 - m * m - 1)
    return num / den, den


def xy_to_quartic(X, Y, m):
    """(U, V) image of a curve point under the birational map.

    U is _quartic_u's, and
    V = (2m^2 X^3 - 36m^2(2m^2+1)(m^2+1)X^2 - m^2 Y^2 - 432 m^3 (m^2+1)^2 Y
         + 1728 m^2 (m^2+1)^3 (8m^6 - 15m^4 - 21m^2 + 1)) / den^2.
    """
    U, den = _quartic_u(X, Y, m)
    m1 = m * m + 1
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


def plane_to_line(u: RatFunc, v: RatFunc) -> tuple[RatFunc, RatFunc]:
    """(U(m), V(m)) from weight-(1, 2) homogeneous u(s, t), v(s, t)."""
    if not (_weights_ok(u, 1) and _weights_ok(v, 2)):
        raise DomainError("u, v must be homogeneous of weights 1 and 2")
    binding = {"s": 1, "t": var("m")}
    return u.substitute(binding), v.substitute(binding)


def _homogenize_univar(f: RatFunc, weight: int) -> RatFunc:
    """s^weight * f(t/s) for f univariate in m, computed term by term."""
    dn = f.num.degree_in("m")
    dd = f.den.degree_in("m")
    shift = weight + dd - dn
    num = _homogenize_m(f.num, dn)
    den = _homogenize_m(f.den, dd)
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


# ---------------------------------------------------------------------------
# kP from the elliptic divisibility sequence
# ---------------------------------------------------------------------------


def _integral_model() -> tuple[WeierstrassModel, ECPoint]:
    """ecweier and point_P scaled by m into Z[m]: A' = m^4 A, B' = m^6 B,
    P' = (m^2 X, m^3 Y) = (-12(m^6 - 4m^2 - 3), 216(m^2 + 1)^2)."""
    m = var("m")
    E, P = ecweier(), point_P()
    A, B, x, y = (_divexact(f.num * m**e, f.den) for f, e in ((E.A, 4), (E.B, 6), (P.x, 2), (P.y, 3)))
    return WeierstrassModel(A, B), ECPoint(x, y)


class _DivisionValues:
    """W_n = psi_n(P) for a point P = (x, y) of a curve E over Z[m], on demand.

    W_0..W_4 are the division polynomials at P, W_{-1} = -1, and

        W_{2n+1} = W_{n+2} W_n^3 - W_{n-1} W_{n+1}^3,
        W_{2n} = W_n (W_{n+2} W_{n-1}^2 - W_{n-2} W_{n+1}^2) / W_2,

    so W_n needs O(log n) levels below it (Washington, Elliptic Curves,
    section 3.2).  Each value is a pair (v, R), W_n = (m^2 + 1)^v R, with
    R = 0 or R prime to m^2 + 1: a product adds exponents, a difference
    takes out the smaller power and divides by m^2 + 1 while that is exact,
    and a division must be exact, so a failure is a VerificationError.
    """

    def __init__(self, E: WeierstrassModel, P: ECPoint):
        m = var("m")
        self.s1 = m * m + 1
        A, B, x, y = E.A, E.B, P.x, P.y
        w3 = 3 * x**4 + 6 * A * x * x + 12 * B * x - A * A
        w4 = 4 * y * (x**6 + 5 * A * x**4 + 20 * B * x**3 - 5 * A * A * x * x - 4 * A * B * x - 8 * B * B - A**3)
        self.values = {-1: (0, Poly.const(-1)), 0: (0, Poly.zero()), 1: (0, Poly.one())}
        for n, w in ((2, 2 * y), (3, w3), (4, w4)):
            self.values[n] = self.strip(0, w)

    def strip(self, v: int, r: Poly) -> tuple[int, Poly]:
        """(m^2 + 1)^v r as a pair (v', R) with R prime to m^2 + 1."""
        if r.is_zero:
            return 0, r
        while (q := poly_divide_exact(r, self.s1)) is not None:
            v, r = v + 1, q
        return v, r

    @staticmethod
    def mul(*factors: tuple[int, Poly]) -> tuple[int, Poly]:
        v, r = factors[0]
        for fv, fr in factors[1:]:
            v, r = v + fv, r * fr
        return v, r

    def sub(self, a: tuple[int, Poly], b: tuple[int, Poly]) -> tuple[int, Poly]:
        (va, ra), (vb, rb) = a, b
        if rb.is_zero:
            return a
        if ra.is_zero:
            return vb, -rb
        v = min(va, vb)
        return self.strip(v, ra * self.s1 ** (va - v) - rb * self.s1 ** (vb - v))

    def div(self, a: tuple[int, Poly], b: tuple[int, Poly]) -> tuple[int, Poly]:
        # R_a is prime to m^2 + 1, so with v < 0 the division fails, and
        # _divexact reports it
        v = a[0] - b[0]
        return max(v, 0), _divexact(a[1], b[1] * self.s1 ** max(-v, 0))

    def __getitem__(self, n: int) -> tuple[int, Poly]:
        if n not in self.values:
            W, h = self.__getitem__, n // 2
            if n & 1:
                w = self.sub(self.mul(W(h), W(h), W(h), W(h + 2)), self.mul(W(h + 1), W(h + 1), W(h + 1), W(h - 1)))
            else:
                inner = self.sub(self.mul(W(h - 1), W(h - 1), W(h + 2)), self.mul(W(h + 1), W(h + 1), W(h - 2)))
                w = self.div(self.mul(W(h), inner), W(2))
            self.values[n] = w
        return self.values[n]


def _kp_jacobian(E: WeierstrassModel, P: ECPoint, k: int) -> tuple[Poly, Poly, Poly]:
    """(x, y, z) in Z[m] with kP = (x/z^2, y/z^3) on E over Z[m], for k >= 1.

        x = x_P W_k^2 - W_{k-1} W_{k+1},
        y = (W_{k+2} W_{k-1}^2 - W_{k-2} W_{k+1}^2) / (4 y_P),
        z = W_k

    (Washington, Elliptic Curves, section 3.2); z = 0 when kP is the
    identity.  Jacobian coordinates have weights (2, 3, 1), so before the
    triple is expanded it is divided by (m^2 + 1)^(2e, 3e, e) for the
    largest e the valuations allow.
    """
    _require_on_curve(E, P)
    W = _DivisionValues(E, P)
    wk = W[k]
    x = W.sub(W.mul(W.strip(0, P.x), wk, wk), W.mul(W[k - 1], W[k + 1]))
    y = W.div(
        W.sub(W.mul(W[k - 1], W[k - 1], W[k + 2]), W.mul(W[k + 1], W[k + 1], W[k - 2])),
        W.strip(0, 4 * P.y),
    )
    triple = ((x, 2), (y, 3), (wk, 1))
    e = min((v // weight for (v, r), weight in triple if not r.is_zero), default=0)
    return tuple(r * W.s1 ** (v - weight * e) for (v, r), weight in triple)


def generate_family(k: int) -> ParametricFamily:
    """Polynomial solution family from the k-th multiple of P on the curve.

    kP comes from the elliptic divisibility sequence of P on the integral
    model (Ward 1948; Washington, Elliptic Curves, section 3.2) as
    Jacobian coordinates in Z[m], with no group law and no gcd on the way.
    Its U-coordinate on the quartic model is reduced once, and the shared
    solution pipeline runs on U's numerator and denominator in m;
    u = s U(t/s) gives the constraint.  k = 1 recovers the constant-side
    ascent family.
    """
    _require_multiple(k, 1, "generate_family")
    m = var("m")
    x, y, z = _kp_jacobian(*_integral_model(), k)
    if z.is_zero:
        raise PipelineStepError("kP is the identity at k = %d" % k)
    try:
        # the integral model's coordinates are m^2 X and m^3 Y, so kP = (x/(mz)^2, y/(mz)^3)
        U, _ = _quartic_u(x, y, m, m * z)
    except PoleError as exc:
        raise PipelineStepError("birational map has a pole at k = %d" % k) from exc
    # a DomainError here can only be a non-square discriminant: U is off
    # the quartic model
    try:
        members = line_u_triple(U.num, U.den)
    except DomainError as exc:
        raise VerificationError("birational image is off the quartic model") from exc
    return make_family(
        "ecgen%d" % k,
        ("s", "t"),
        members,
        (var("s"), var("t"), _homogenize_univar(U, 1).den),
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


def _roundtrip(there, back, names: tuple[str, str], rhs: RatFunc) -> bool:
    """back(there(a, b)) == (a, b) modulo b^2 = rhs, a polynomial in a and m."""
    a, b, M = RatFunc(var(names[0])), RatFunc(var(names[1])), RatFunc(var("m"))
    a2, b2 = back(*there(a, b, M), M)
    for before, after in ((a, a2), (b, b2)):
        diff = after - before
        if not _reduce_mod_relation(diff.num, names[1], rhs.num).is_zero:
            return False
        if _reduce_mod_relation(diff.den, names[1], rhs.num).is_zero:
            raise VerificationError("round-trip denominator vanishes on the curve")
    return True


def roundtrip_identity_xy() -> bool:
    """(X, Y) -> (U, V) -> (X, Y) is the identity modulo Y^2 = X^3 + AX + B."""
    return _roundtrip(xy_to_quartic, quartic_to_xy, ("X", "Y"), ecweier().rhs(RatFunc(var("X"))))


def roundtrip_identity_uv() -> bool:
    """(U, V) -> (X, Y) -> (U, V) is the identity modulo V^2 = quartic(U)."""
    return _roundtrip(quartic_to_xy, xy_to_quartic, ("U", "V"), phi(1, RatFunc(var("m")), RatFunc(var("U"))))
