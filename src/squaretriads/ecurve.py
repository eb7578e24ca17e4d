"""Weierstrass curves over the rationals and over the rational functions in m.

The quartic model in (U, V) is birationally a short Weierstrass curve
Y^2 = X^3 + A X + B over Q(m); its point P of infinite order generates,
through the birational map and the homogenization m = t/s, infinitely many
polynomial solution families.  The map between the line s = 1, t = m and
the plane (s, t) is `pipeline`'s alone.

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
from .exactnum import _exact_scalar, _integer, promote_int
from .families import ParametricFamily, make_family
from .multipoly import Poly, RatFunc, _divexact, evaluate, poly_sqrt, var  # noqa: F401 (perfbench wraps ecurve.poly_sqrt)
from .pipeline import _homogenize_m, _line_u_members
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

    def __post_init__(self):
        if self.x is not None or self.y is not None:
            object.__setattr__(self, "x", promote_int(self.x))
            object.__setattr__(self, "y", promote_int(self.y))

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
        object.__setattr__(self, "A", promote_int(self.A))
        object.__setattr__(self, "B", promote_int(self.B))
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


def ec_mul(E: WeierstrassModel, k: int, P: ECPoint) -> ECPoint:
    """k-fold sum of P (integer k >= 0) by chord and tangent, validated once on entry."""
    k = _integer(k, "ec_mul requires an integer k >= 0, not %r", 0)
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


def _weighted_uw(x, y, m, z):
    """(u, w) with U = u/w the U-coordinate of the curve point (x/z^2, y/z^3):

        u = 6(m^2+1)xz + my + 72(m^6 + m^4 - m^2 - 1)z^3,
        w = 6z(x - 12(2m^4 + 3m^2 + 1)z^2).

    In Jacobian coordinates, which have weights (2, 3, 1), the map is
    polynomial (Washington, Elliptic Curves, section 2.6); w = 0 is its pole
    line.  The powers of z multiply the integer coefficients first, so z = 1
    costs no extra operation on x, y or m.
    """
    z2 = z * z
    w = 6 * z * (x - 12 * z2 * (2 * m**4 + 3 * m * m + 1))
    u = 6 * z * (m * m + 1) * x + m * y + 72 * z2 * z * (m**6 + m**4 - m * m - 1)
    return u, w


def _weighted_v(x, y, m, z):
    """v with V = v/w^2 the V-coordinate of the curve point (x/z^2, y/z^3),
    w as in _weighted_uw:

        v = m^2 (2x^3 - 36(2m^2+1)(m^2+1)x^2 z^2 - y^2 - 432m(m^2+1)^2 y z^3
                 + 1728(m^2+1)^3 (8m^6 - 15m^4 - 21m^2 + 1) z^6).
    """
    m2, m1, z2 = m * m, m * m + 1, z * z
    z3 = z2 * z
    return m2 * (
        2 * x**3
        - 36 * (2 * m2 + 1) * m1 * z2 * x * x
        - y * y
        - 432 * m * m1 * m1 * z3 * y
        + 1728 * m1**3 * (8 * m2**3 - 15 * m2 * m2 - 21 * m2 + 1) * z3 * z3
    )


def _weighted_xyz(u, v, m, w):
    """(x, y, z) with (x/z^2, y/z^3) the curve point of the quartic point
    (u/w, v/w^2), weights (1, 2, 1):

        x = 6(3u^2 - 6(m^2+1)uw + 3v - cw^2),
        y = 108(u^3 - 3(m^2+1)u^2 w + uv - cuw^2 - (m^2+1)vw - (m^2+1)^2 w^3),
        z = mw,

    with c = (m^2+1)(2m^4 - 2m^2 - 3); z = 0 at m = 0.
    """
    m1 = m * m + 1
    c = m1 * (2 * m**4 - 2 * m * m - 3)
    cw2 = c * w * w
    x = 6 * (3 * u * u - 6 * m1 * w * u + 3 * v - cw2)
    y = 108 * (u * (u * u - 3 * m1 * w * u + v - cw2) - m1 * w * (v + m1 * w * w))
    return x, y, m * w


def _quartic_u(X, Y, m, z=1):
    """(U, w): U = u/w of _weighted_uw, reduced once, and w.

    z = 1 is the affine map; w = 0 raises PoleError.
    """
    u, w = _weighted_uw(X, Y, m, z)
    w = promote_int(w)
    if w == 0:
        raise PoleError("X lies on the pole line of the birational map")
    return u / w, w


def xy_to_quartic(X, Y, m):
    """(U, V) image of a curve point under the birational map.

    (U, V) = (u/w, v/w^2), with the weighted formulas of _weighted_uw and
    _weighted_v at z = 1, each reduced once:
    U = (6(m^2+1)X + mY + 72(m^6 + m^4 - m^2 - 1)) / w,
    V = (2m^2 X^3 - 36m^2(2m^2+1)(m^2+1)X^2 - m^2 Y^2 - 432 m^3 (m^2+1)^2 Y
         + 1728 m^2 (m^2+1)^3 (8m^6 - 15m^4 - 21m^2 + 1)) / w^2,
    w = 6(X - 12(2m^4 + 3m^2 + 1)); w = 0 raises PoleError.
    """
    U, w = _quartic_u(X, Y, m)
    return U, _weighted_v(X, Y, m, 1) / (w * w)


def quartic_to_xy(U, V, m):
    """(X, Y) image of a quartic-model point; pole at m = 0.

    (X, Y) = (x/z^2, y/z^3), with the weighted formulas of _weighted_xyz at
    w = 1 (so z = m), each reduced once:
    X = 6(3U^2 - (6m^2+6)U + 3V - (m^2+1)(2m^4-2m^2-3)) / m^2,
    Y = 108(U^3 - (3m^2+3)U^2 + UV - (m^2+1)(2m^4-2m^2-3)U - (m^2+1)V - (m^2+1)^2) / m^3.
    """
    if m == 0:
        raise PoleError("the map back to the curve has a pole at m = 0")
    x, y, z = _weighted_xyz(U, V, promote_int(m), 1)
    return x / (z * z), y / z**3


def specialize_curve(E: WeierstrassModel, m_val: Fraction) -> WeierstrassModel:
    point = {"m": _exact_scalar(m_val)}
    return WeierstrassModel(evaluate(E.A, point), evaluate(E.B, point))


def specialize_point(P: ECPoint, m_val: Fraction) -> ECPoint:
    point = {"m": _exact_scalar(m_val)}
    if P.is_identity:
        return P
    return ECPoint(evaluate(P.x, point), evaluate(P.y, point))


def infinite_order_screen(E: WeierstrassModel, P: ECPoint) -> bool:
    """True when P is certified of infinite order on an integral model.

    Non-integral coordinates certify infinite order outright (Nagell-Lutz);
    otherwise no multiple kP for k <= 12 may be the identity, since
    rational torsion orders never exceed 12 (Mazur's bound).
    """
    message = "screen requires a curve and point over Q, not %r"
    A, B = _exact_scalar(E.A, message), _exact_scalar(E.B, message)
    if A.denominator != 1 or B.denominator != 1:
        raise DomainError("screen requires integral curve coefficients")
    if P.is_identity:
        return False
    x, y = _exact_scalar(P.x, message), _exact_scalar(P.y, message)
    _require_on_curve(E, P)
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


@lru_cache(maxsize=1)
def _integral_model() -> tuple[WeierstrassModel, ECPoint]:
    """ecweier and point_P scaled by m into Z[m]: A' = m^4 A, B' = m^6 B,
    P' = (m^2 X, m^3 Y) = (-12(m^6 - 4m^2 - 3), 216(m^2 + 1)^2)."""
    m = var("m")
    E, P = ecweier(), point_P()
    A, B, x, y = (_divexact(f.num * m**e, f.den) for f, e in ((E.A, 4), (E.B, 6), (P.x, 2), (P.y, 3)))
    return WeierstrassModel(A, B), ECPoint(x, y)


_M2_PLUS_1 = var("m") ** 2 + 1


def _vanishes_at_i(r: Poly) -> bool:
    """True when m^2 + 1 divides r in Z[m], i.e. when r(i) = 0 in Z[i].

    i^e is 1, i, -1, -i as e = 0, 1, 2, 3 mod 4, so the real and imaginary
    parts of r(i) are alternating sums of the coefficients of the even and
    the odd powers of m.
    """
    if r.vars != ("m",):
        return r.is_zero
    parts = [0, 0]
    for (e,), c in r.terms.items():
        parts[e & 1] += -c if e & 2 else c
    return parts == [0, 0]


def _strip(v: int, r: Poly) -> tuple[int, Poly]:
    """(m^2 + 1)^v r as a pair (v', R) with R prime to m^2 + 1."""
    if r.is_zero:
        return 0, r
    while _vanishes_at_i(r):
        v, r = v + 1, _divexact(r, _M2_PLUS_1)
    return v, r


@lru_cache(maxsize=4)
def _division_seeds(E: WeierstrassModel, P: ECPoint) -> tuple[tuple[int, tuple[int, Poly]], ...]:
    """(n, W_n) for n = -1..4, as _DivisionValues carries them."""
    A, B, x, y = E.A, E.B, P.x, P.y
    w3 = 3 * x**4 + 6 * A * x * x + 12 * B * x - A * A
    w4 = 4 * y * (x**6 + 5 * A * x**4 + 20 * B * x**3 - 5 * A * A * x * x - 4 * A * B * x - 8 * B * B - A**3)
    seeds = ((-1, (0, Poly.const(-1))), (0, (0, Poly.zero())), (1, (0, Poly.one())))
    return seeds + tuple((n, _strip(0, w)) for n, w in ((2, 2 * y), (3, w3), (4, w4)))


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
    W_{-1}..W_4 of each (E, P) are computed once per process.
    """

    def __init__(self, E: WeierstrassModel, P: ECPoint):
        # a copy: __getitem__ adds to it
        self.values = dict(_division_seeds(E, P))

    @staticmethod
    def mul(*factors: tuple[int, Poly]) -> tuple[int, Poly]:
        v, r = factors[0]
        for fv, fr in factors[1:]:
            v, r = v + fv, r * fr
        return v, r

    @staticmethod
    def sub(a: tuple[int, Poly], b: tuple[int, Poly]) -> tuple[int, Poly]:
        (va, ra), (vb, rb) = a, b
        if rb.is_zero:
            return a
        if ra.is_zero:
            return vb, -rb
        v = min(va, vb)
        return _strip(v, ra * _M2_PLUS_1 ** (va - v) - rb * _M2_PLUS_1 ** (vb - v))

    @staticmethod
    def div(a: tuple[int, Poly], b: tuple[int, Poly]) -> tuple[int, Poly]:
        # R_a is prime to m^2 + 1, so with v < 0 the division fails, and
        # _divexact reports it
        v = a[0] - b[0]
        return max(v, 0), _divexact(a[1], b[1] * _M2_PLUS_1 ** max(-v, 0))

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
    x = W.sub(W.mul(_strip(0, P.x), wk, wk), W.mul(W[k - 1], W[k + 1]))
    y = W.div(
        W.sub(W.mul(W[k - 1], W[k - 1], W[k + 2]), W.mul(W[k + 1], W[k + 1], W[k - 2])),
        _strip(0, 4 * P.y),
    )
    triple = ((x, 2), (y, 3), (wk, 1))
    e = min((v // weight for (v, r), weight in triple if not r.is_zero), default=0)
    return tuple(r * _M2_PLUS_1 ** (v - weight * e) for (v, r), weight in triple)


def generate_family(k: int) -> ParametricFamily:
    """Polynomial solution family from the k-th multiple of P on the curve.

    kP comes from the elliptic divisibility sequence of P on the integral
    model (Ward 1948; Washington, Elliptic Curves, section 3.2) as
    Jacobian coordinates in Z[m], with no group law and no gcd on the way.
    Its U-coordinate on the quartic model is reduced once, and the shared
    solution pipeline runs on U's numerator and denominator in m; the
    denominator of u = s U(t/s) is the constraint.  k = 1 recovers the constant-side
    ascent family.
    """
    k = _integer(k, "generate_family requires an integer k >= 1, not %r", 1)
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
        # U is a reduced RatFunc, so its numerator and denominator are coprime
        members = _line_u_members(U.num, U.den)
    except DomainError as exc:
        raise VerificationError("birational image is off the quartic model") from exc
    # u = s U(t/s) has the denominator s^e U.den(t/s), e = max(deg U.den, deg U.num - 1)
    den = _homogenize_m(U.den, max(U.den.degree_in("m"), U.num.degree_in("m") - 1))
    return make_family(
        "ecgen%d" % k,
        ("s", "t"),
        members,
        (var("s"), var("t"), -den if den.leading_coeff() < 0 else den),
        "function-field generator, k = %d" % k,
    )


# ---------------------------------------------------------------------------
# Symbolic round-trip identities modulo the curve relations
#
# Both trips compose the weighted formulas over Z[m] and never divide:
#
#     (x, y, z) -> (u, v, w):  u = 6(m^2+1)xz + my + 72(m^6 + m^4 - m^2 - 1)z^3,
#                              v = m^2 (2x^3 - 36(2m^2+1)(m^2+1)x^2 z^2 - y^2
#                                       - 432m(m^2+1)^2 y z^3
#                                       + 1728(m^2+1)^3 (8m^6 - 15m^4 - 21m^2 + 1) z^6),
#                              w = 6z(x - 12(2m^4 + 3m^2 + 1)z^2),
#     (u, v, w) -> (x, y, z):  x = 6(3u^2 - 6(m^2+1)uw + 3v - cw^2),
#                              y = 108(u^3 - 3(m^2+1)u^2 w + uv - cuw^2 - (m^2+1)vw - (m^2+1)^2 w^3),
#                              z = mw,
#
# with c = (m^2+1)(2m^4 - 2m^2 - 3), (X, Y) = (x/z^2, y/z^3) and
# (U, V) = (u/w, v/w^2).  A trip from (X, Y, 1) is the identity when
# x' = X z'^2 and y' = Y z'^3 modulo Y^2 = X^3 + AX + B, and one from
# (U, V, 1) when u' = U w' and v' = V w'^2 modulo V^2 = phi(1, m, U);
# reduced to degree <= 1 in Y or V, the differences are zero polynomials.
# So no rational function, and no gcd, is built on the way.
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


def _identity_mod(pairs, h, sq_var: str, rhs: Poly) -> bool:
    """after == before * h^weight for each (after, before, weight) in pairs,
    modulo sq_var^2 = rhs; h must not vanish there."""
    if _reduce_mod_relation(h, sq_var, rhs).is_zero:
        raise VerificationError("round-trip denominator vanishes on the curve")
    return all(
        _reduce_mod_relation(after - before * h**weight, sq_var, rhs).is_zero for after, before, weight in pairs
    )


def roundtrip_identity_xy() -> bool:
    """(X, Y) -> (U, V) -> (X, Y) is the identity modulo Y^2 = X^3 + AX + B.

    (X, Y, 1) -> (u, v, w) -> (x', y', z') in weighted coordinates, and
    x' = X z'^2, y' = Y z'^3 on the curve.
    """
    E, X, Y, m = ecweier(), var("X"), var("Y"), var("m")
    u, w = _weighted_uw(X, Y, m, 1)
    x, y, z = _weighted_xyz(u, _weighted_v(X, Y, m, 1), m, w)
    # A and B are polynomials in m (denominator 1)
    return _identity_mod(((x, X, 2), (y, Y, 3)), z, "Y", X**3 + E.A.num * X + E.B.num)


def roundtrip_identity_uv() -> bool:
    """(U, V) -> (X, Y) -> (U, V) is the identity modulo V^2 = quartic(U).

    (U, V, 1) -> (x, y, z) -> (u', v', w') in weighted coordinates, and
    u' = U w', v' = V w'^2 on the quartic model.
    """
    U, V, m = var("U"), var("V"), var("m")
    x, y, z = _weighted_xyz(U, V, m, 1)
    u, w = _weighted_uw(x, y, m, z)
    return _identity_mod(((u, U, 1), (_weighted_v(x, y, m, z), V, 2)), w, "V", phi(1, m, U))
