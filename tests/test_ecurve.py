import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from squaretriads import ecurve as ec
from squaretriads import multipoly
from squaretriads.cli import main
from squaretriads.errors import DomainError, PipelineStepError, PoleError, VerificationError
from squaretriads.families import family_to_json, get_family, verify_family_symbolic
from squaretriads.multipoly import Poly, RatFunc, _divexact, evaluate, poly_divide_exact, poly_gcd, var
from squaretriads.pipeline import (
    _line_quadratic,
    _line_u_members,
    _strip_m_squares,
    line_u_triple,
    polynomialize_roots,
    solution_family_polys,
    strip_common_squares,
)
from squaretriads.quartic import euler_quartic, phi
from squaretriads.triads import quad_in_x, quad_root_numerators


@pytest.fixture(scope="module")
def curve():
    return ec.ecweier()


@pytest.fixture(scope="module")
def P(curve):
    return ec.point_P()


class TestCurveAndPoint:
    def test_point_on_curve_symbolically(self, curve, P):
        assert curve.contains(P)

    def test_specialization_m4(self, curve, P):
        E4 = ec.specialize_curve(curve, Fraction(4))
        assert (E4.A, E4.B) == (-27716256, -56159127360)
        P4 = ec.specialize_point(P, Fraction(4))
        assert (P4.x, P4.y) == (Fraction(-12087, 4), Fraction(7803, 8))
        assert E4.contains(P4)
        assert E4.discriminant() != 0

    def test_specialization_m0(self, curve):
        # direct evaluation of the displayed coefficient polynomials at m = 0
        E0 = ec.specialize_curve(curve, Fraction(0))
        assert (E0.A, E0.B) == (864, -12096)

    def test_point_specializes_on_curve_at_m1(self, curve, P):
        E1 = ec.specialize_curve(curve, Fraction(1))
        P1 = ec.specialize_point(P, Fraction(1))
        assert E1.contains(P1)

    def test_singular_curve_rejected(self):
        with pytest.raises(DomainError):
            ec.WeierstrassModel(Fraction(0), Fraction(0))


def chord_add(E, P, Q):
    """Chord-and-tangent sum of two points on E over any exact domain: the
    group law, kept here as the oracle for the division values."""
    if P.is_identity:
        return Q
    if Q.is_identity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return ec.ECPoint()
        lam = (3 * P.x * P.x + E.A) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    return ec.ECPoint(x3, lam * (P.x - x3) - P.y)


def chord_neg(P):
    return P if P.is_identity else ec.ECPoint(P.x, -P.y)


def chord_mul(E, k, P):
    """kP for k >= 0 by k chord-and-tangent additions to the identity."""
    acc = ec.ECPoint()
    for _ in range(k):
        acc = chord_add(E, acc, P)
    return acc


class TestGroupLaw:
    def test_identity_laws(self, curve, P):
        E4 = ec.specialize_curve(curve, Fraction(4))
        P4 = ec.specialize_point(P, Fraction(4))
        assert chord_add(E4, P4, ec.ECPoint()) == P4
        assert chord_add(E4, ec.ECPoint(), P4) == P4
        assert chord_add(E4, P4, chord_neg(P4)).is_identity

    def test_doubling_stays_on_curve(self, curve, P):
        E4 = ec.specialize_curve(curve, Fraction(4))
        P4 = ec.specialize_point(P, Fraction(4))
        D = chord_add(E4, P4, P4)
        assert E4.contains(D)

    def test_function_field_addition_on_curve(self, curve, P):
        P2 = chord_mul(curve, 2, P)
        P3 = chord_mul(curve, 3, P)
        assert curve.contains(P2) and curve.contains(P3)
        assert chord_add(curve, P2, P) == P3

    def test_function_field_associativity(self, curve, P):
        P2 = chord_mul(curve, 2, P)
        left = chord_add(curve, chord_add(curve, P, P), P2)
        right = chord_add(curve, P, chord_add(curve, P, P2))
        assert left == right and curve.contains(left)

    def test_associativity_at_specializations(self, curve, P):
        rng = random.Random(31)
        E4 = ec.specialize_curve(curve, Fraction(4))
        P4 = ec.specialize_point(P, Fraction(4))
        pts = [chord_mul(E4, k, P4) for k in range(1, 5)]
        for _ in range(20):
            a, b, c = (rng.choice(pts) for _ in range(3))
            left = chord_add(E4, chord_add(E4, a, b), c)
            right = chord_add(E4, a, chord_add(E4, b, c))
            assert left == right

    def test_multiples_commute_with_specialization(self, curve, P):
        for k in range(1, 9):
            kP = chord_mul(curve, k, P)
            for m0 in (Fraction(2), Fraction(3), Fraction(5, 3)):
                Em = ec.specialize_curve(curve, m0)
                assert ec.specialize_point(kP, m0) == chord_mul(Em, k, ec.specialize_point(P, m0))


# (order, A, B, x, y): a point of each order Mazur allows on an integral
# short model y^2 = x^3 + Ax + B
MAZUR_TORSION = [
    (2, 0, 1, -1, 0),
    (3, 0, 1, 0, 1),
    # Tate normal forms at t = 2 (tau = 2 for order 12), scaled to integral
    # short models
    (4, -2619, 918, -21, -216),
    (5, -27, 55350, -21, -216),
    (6, -10395, 31158, -69, -648),
    (7, -3483, 121014, -45, -432),
    (8, -44091, 3304854, -141, -2592),
    (9, -17739, 1205766, -117, -1296),
    (10, -58347, 3954150, -213, -2592),
    (12, -33339627, 73697852646, 3027, -22680),
]


def _constant_model(A, B, x, y):
    """A curve over Q and a point on it, with Poly coordinates in Z[m]."""
    c = Poly.const
    return ec.WeierstrassModel(c(A), c(B)), ec.ECPoint(c(x), c(y))


class TestDivisionValues:
    """kP from the elliptic divisibility sequence, against the group law."""

    def test_u_matches_the_group_law(self, curve, P):
        m = var("m")
        E, Pi, _ = ec._integral_model()
        assert Pi == ec.ECPoint(-12 * (m**6 - 4 * m * m - 3), 216 * (m * m + 1) ** 2)
        for k in range(1, 11):
            kP = chord_mul(curve, k, P)
            x, y, z = ec._kp_jacobian(E, Pi, k)
            assert all(c.rational_content().denominator == 1 for c in (x, y, z))
            # no power of m^2 + 1 is left to divide out with weights (2, 3, 1)
            assert not all(poly_divide_exact(c, (m * m + 1) ** w) for c, w in ((x, 2), (y, 3), (z, 1)))
            assert y * y == x**3 + E.A * x * z**4 + E.B * z**6
            U, _ = ec._quartic_u(x, y, m, m * z)
            assert U == ec._quartic_u(kP.x, kP.y, RatFunc(m))[0]

    def test_jacobian_multiples_over_q(self):
        # Y^2 = X^3 - 2 with (3, 5) has rank one and no torsion
        E, P = _constant_model(0, -2, 3, 5)
        Eq, Pq = ec.WeierstrassModel(Fraction(0), Fraction(-2)), ec.ECPoint(Fraction(3), Fraction(5))
        for k in range(1, 13):
            x, y, z = (c.evaluate({}) for c in ec._kp_jacobian(E, P, k))
            kP = chord_mul(Eq, k, Pq)
            assert (x / z**2, y / z**3) == (kP.x, kP.y)

    @pytest.mark.parametrize("order, A, B, x, y", [row for row in MAZUR_TORSION if row[0] > 2])
    def test_vanishes_exactly_at_multiples_of_the_order(self, order, A, B, x, y):
        # the screen's reading of the sequence: psi_k(P) = 0 exactly when
        # kP = O, here for two periods of each torsion point with y != 0
        W = ec._DivisionValues(*_constant_model(A, B, x, y))
        E, P = ec.WeierstrassModel(A, B), ec.ECPoint(x, y)
        vanishing = [k for k in range(1, 2 * order + 1) if W[k][1].is_zero]
        assert vanishing == [k for k in range(1, 2 * order + 1) if chord_mul(E, k, P).is_identity]
        assert vanishing == [order, 2 * order]

    def test_carried_parts_are_prime_to_m2_plus_1(self):
        m = var("m")
        W = ec._DivisionValues(*ec._integral_model())
        W[12]  # on demand: 12 needs 4..8, not 9..11
        assert 9 not in W.values
        for v, R in W.values.values():
            assert R.is_zero or poly_divide_exact(R, m * m + 1) is None
        # additive reduction at m^2 + 1 = 0: the valuation grows like n^2
        assert [W[n][0] for n in range(2, 11)] == [2, 5, 10, 15, 22, 30, 40, 50, 62]

    def test_seeds_are_not_shared_between_instances(self):
        assert ec._integral_model() is ec._integral_model()
        W = ec._DivisionValues(*ec._integral_model())
        W[12]
        fresh = ec._DivisionValues(*ec._integral_model())
        assert set(fresh.values) == {-1, 0, 1, 2, 3, 4}
        assert fresh[12] == W[12]

    def test_screens_keep_the_generators_seeds(self, monkeypatch):
        E, P, seeds = ec._integral_model()
        for _, A, B, x, y in MAZUR_TORSION:
            assert ec.infinite_order_screen(ec.WeierstrassModel(A, B), ec.ECPoint(x, y)) is False
        built = []
        honest = ec._division_seeds
        monkeypatch.setattr(ec, "_division_seeds", lambda E, P: built.append((E, P)) or honest(E, P))
        ec.generate_family(1)
        assert (E, P) not in built
        assert ec._integral_model()[2] is seeds

    def test_vanishing_at_i_is_divisibility_by_m2_plus_1(self):
        m = var("m")
        s1 = m * m + 1
        rng = random.Random(20261018)
        for _ in range(200):
            r = sum((rng.randint(-3, 3) * m**e for e in range(rng.randint(0, 7))), Poly.zero())
            r = r * s1 ** rng.randint(0, 2) if rng.random() < 0.5 else r
            if r.is_zero:
                continue
            assert ec._vanishes_at_i(r) == (poly_divide_exact(r, s1) is not None), r

    def test_torsion_point_gives_the_identity(self, monkeypatch):
        # (2, 3) on Y^2 = X^3 + 1 has order 6
        E, P = _constant_model(0, 1, 2, 3)
        assert [ec._kp_jacobian(E, P, k)[2].is_zero for k in range(1, 8)] == [False] * 5 + [True, False]
        monkeypatch.setattr(ec, "_integral_model", lambda: (E, P, None))
        with pytest.raises(PipelineStepError, match="kP is the identity at k = 6"):
            ec.generate_family(6)

    def test_zero_u_denominator_is_a_pipeline_step_error(self, monkeypatch):
        # z = 1 puts x = 12(2m^4 + 3m^2 + 1) m^2 on the pole line of the map
        m = var("m")
        pole = (12 * (2 * m**4 + 3 * m * m + 1) * m * m, Poly.zero(), Poly.one())
        with pytest.raises(PoleError):
            ec._quartic_u(pole[0], pole[1], m, m * pole[2])
        monkeypatch.setattr(ec, "_kp_jacobian", lambda E, P, k, seeds: pole)
        with pytest.raises(PipelineStepError, match="birational map has a pole at k = 2") as info:
            ec.generate_family(2)
        assert isinstance(info.value.__cause__, PoleError)

    def test_line_quadratic_closed_form(self):
        m = var("m")
        E, Pi, _ = ec._integral_model()
        for k in range(1, 5):
            x, y, z = ec._kp_jacobian(E, Pi, k)
            U, _ = ec._quartic_u(x, y, m, m * z)
            N, D = U.num, U.den
            expanded = tuple(_divexact(c, D * D) for c in quad_in_x(D, m * D, N))
            assert _line_quadratic(N, D) == expanded


def _affine_xy_to_quartic(X, Y, m):
    """The (X, Y) -> (U, V) map as its affine formulas, an oracle for ecurve."""
    m1 = m * m + 1
    den = 6 * (X - 12 * (2 * m**4 + 3 * m * m + 1))
    U = (6 * m1 * X + m * Y + 72 * (m**6 + m**4 - m * m - 1)) / den
    V = (
        2 * m * m * X**3
        - 36 * m * m * (2 * m * m + 1) * m1 * X * X
        - m * m * Y * Y
        - 432 * m**3 * m1 * m1 * Y
        + 1728 * m * m * m1**3 * (8 * m**6 - 15 * m**4 - 21 * m * m + 1)
    ) / (den * den)
    return U, V


def _affine_quartic_to_xy(U, V, m):
    """The (U, V) -> (X, Y) map as its affine formulas, an oracle for ecurve."""
    m1 = m * m + 1
    c = m1 * (2 * m**4 - 2 * m * m - 3)
    X = 6 * (3 * U * U - 6 * m1 * U + 3 * V - c) / (m * m)
    Y = 108 * (U**3 - 3 * m1 * U * U + U * V - c * U - m1 * V - m1 * m1) / m**3
    return X, Y


class TestBirationalMaps:
    def test_image_of_P_is_ascent_value(self, P):
        m = RatFunc(var("m"))
        U, V = ec.xy_to_quartic(P.x, P.y, m)
        assert U == 2 / (1 - m * m)
        assert V * V == phi(1, m, U)

    def test_symbolic_roundtrips_modulo_curve(self):
        assert ec.roundtrip_identity_xy() is True
        assert ec.roundtrip_identity_uv() is True

    def test_roundtrip_xy_detects_a_broken_map(self, monkeypatch):
        honest = ec._weighted_xyz

        def shifted(u, v, m, w):
            # X + 1 in weighted coordinates
            x, y, z = honest(u, v, m, w)
            return x + z * z, y, z

        monkeypatch.setattr(ec, "_weighted_xyz", shifted)
        assert ec.roundtrip_identity_xy() is False

    def test_roundtrip_uv_detects_a_broken_map(self, monkeypatch):
        honest = ec._weighted_uw

        def shifted(x, y, m, z):
            # U + 1 in weighted coordinates
            u, w = honest(x, y, m, z)
            return u + w, w

        monkeypatch.setattr(ec, "_weighted_uw", shifted)
        assert ec.roundtrip_identity_uv() is False

    def test_roundtrip_denominator_vanishing_on_the_curve_is_an_internal_error(self, monkeypatch):
        # each corrupted denominator is the curve relation: nonzero as a
        # polynomial, zero modulo it
        X, Y, U, V, m = var("X"), var("Y"), var("U"), var("V"), var("m")
        E = ec.ecweier()
        xy_relation = Y * Y - (X**3 + E.A.num * X + E.B.num)
        uv_relation = V * V - phi(1, m, U)
        honest_xyz, honest_uw = ec._weighted_xyz, ec._weighted_uw
        monkeypatch.setattr(ec, "_weighted_xyz", lambda u, v, m, w: honest_xyz(u, v, m, w)[:2] + (xy_relation,))
        with pytest.raises(VerificationError, match="denominator vanishes"):
            ec.roundtrip_identity_xy()
        monkeypatch.setattr(ec, "_weighted_xyz", honest_xyz)
        monkeypatch.setattr(ec, "_weighted_uw", lambda x, y, m, z: (honest_uw(x, y, m, z)[0], uv_relation))
        with pytest.raises(VerificationError, match="denominator vanishes"):
            ec.roundtrip_identity_uv()

    def test_roundtrips_make_no_gcd(self, monkeypatch):
        # RatFunc reduces through multipoly.poly_gcd; patch every module that
        # binds the name, so that no route to a gcd goes uncounted
        calls = []
        honest = multipoly.poly_gcd

        def counted(a, b):
            calls.append((a, b))
            return honest(a, b)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("squaretriads") and getattr(module, "poly_gcd", None) is honest:
                monkeypatch.setattr(module, "poly_gcd", counted)
        # the counter sees RatFunc's reduction
        RatFunc(var("m") ** 2 - 1, var("m") - 1)
        assert calls
        calls.clear()
        assert ec.roundtrip_identity_xy() is True
        assert ec.roundtrip_identity_uv() is True
        assert calls == []

    def test_roundtrip_at_random_specializations(self, curve, P):
        rng = random.Random(32)
        done = 0
        while done < 20:
            mv = Fraction(rng.randint(2, 40), rng.randint(1, 7))
            if mv in (0, 1, -1):
                continue
            try:
                Em = ec.specialize_curve(curve, mv)
                k = rng.randint(1, 3)
                Pm = ec.specialize_point(chord_mul(curve, k, P), mv)
                U, V = ec.xy_to_quartic(Pm.x, Pm.y, mv)
                X2, Y2 = ec.quartic_to_xy(U, V, mv)
            except (PoleError, ZeroDivisionError):
                continue
            assert (X2, Y2) == (Pm.x, Pm.y)
            done += 1

    def test_pole_conditions(self):
        with pytest.raises(PoleError):
            ec.quartic_to_xy(Fraction(1), Fraction(1), Fraction(0))
        with pytest.raises(PoleError):
            ec.quartic_to_xy(RatFunc(var("U")), RatFunc(var("V")), 0)
        for mv in (Fraction(0), Fraction(3), Fraction(-2, 7)):
            with pytest.raises(PoleError):
                ec.xy_to_quartic(12 * (2 * mv**4 + 3 * mv * mv + 1), Fraction(5), mv)
        m = RatFunc(var("m"))
        with pytest.raises(PoleError):
            ec.xy_to_quartic(12 * (2 * m**4 + 3 * m * m + 1), RatFunc(var("Y")), m)

    def test_maps_match_the_affine_formulas(self):
        rng = random.Random(20261019)

        def frac():
            return Fraction(rng.randint(-60, 60), rng.randint(1, 9))

        done = 0
        while done < 120:
            a, b, mv = frac(), frac(), frac()
            if mv == 0 or a == 12 * (2 * mv**4 + 3 * mv * mv + 1):
                continue
            assert ec.xy_to_quartic(a, b, mv) == _affine_xy_to_quartic(a, b, mv)
            assert ec.quartic_to_xy(a, b, mv) == _affine_quartic_to_xy(a, b, mv)
            done += 1

    def test_substitution_reduces_quartic_model(self):
        """The scaled substitution carries the (u, v) model onto the (U, V) model."""
        s, t, u, v = var("s"), var("t"), var("u"), var("v")
        Uv, Vv, mm = var("U"), var("V"), var("m")
        q = euler_quartic(RatFunc(s), RatFunc(t))
        relation = RatFunc(v * v) - q.rhs(RatFunc(u))
        image = relation.substitute(
            {
                "t": RatFunc(mm) * RatFunc(s),
                "u": RatFunc(s) * RatFunc(Uv),
                "v": RatFunc(s * s) * RatFunc(Vv),
            }
        )
        target = RatFunc(Vv * Vv) - phi(1, RatFunc(mm), RatFunc(Uv))
        assert image / target == RatFunc(var("s") ** 4)


class TestInfiniteOrderScreen:
    def test_displayed_point_is_infinite(self, curve, P):
        E4 = ec.specialize_curve(curve, Fraction(4))
        P4 = ec.specialize_point(P, Fraction(4))
        assert ec.infinite_order_screen(E4, P4) is True

    def test_two_torsion(self):
        E = ec.WeierstrassModel(Fraction(-1), Fraction(0))
        assert ec.infinite_order_screen(E, ec.ECPoint(Fraction(0), Fraction(0))) is False
        assert ec.infinite_order_screen(E, ec.ECPoint(Fraction(1), Fraction(0))) is False

    def test_integral_infinite_order_point(self):
        # Y^2 = X^3 - 2 with (3, 5): classic rank-one curve, no torsion
        E = ec.WeierstrassModel(Fraction(0), Fraction(-2))
        assert ec.infinite_order_screen(E, ec.ECPoint(Fraction(3), Fraction(5))) is True

    def test_non_integral_curve_rejected(self):
        E = ec.WeierstrassModel(Fraction(1, 4), Fraction(1))
        with pytest.raises(DomainError):
            ec.infinite_order_screen(E, ec.ECPoint(Fraction(0), Fraction(1)))

    def test_off_curve_rejected(self, curve):
        E4 = ec.specialize_curve(curve, Fraction(4))
        with pytest.raises(DomainError, match="not on the curve"):
            ec.infinite_order_screen(E4, ec.ECPoint(Fraction(1), Fraction(1)))

    def test_identity_is_not_of_infinite_order(self):
        assert ec.infinite_order_screen(ec.WeierstrassModel(0, -2), ec.ECPoint()) is False

    def test_non_integral_point_is_infinite(self):
        # 2(3, 5) = (129/100, -383/1000) on Y^2 = X^3 - 2; a torsion point of
        # an integral model is integral (Nagell-Lutz)
        E = ec.WeierstrassModel(0, -2)
        D = chord_add(E, ec.ECPoint(3, 5), ec.ECPoint(3, 5))
        assert D == ec.ECPoint(Fraction(129, 100), Fraction(-383, 1000))
        assert ec.infinite_order_screen(E, D) is True

    def test_curve_over_q_m_rejected(self, curve, P):
        with pytest.raises(DomainError, match="over Q"):
            ec.infinite_order_screen(curve, P)

    @pytest.mark.parametrize("order, A, B, x, y", MAZUR_TORSION)
    def test_torsion_of_every_mazur_order(self, order, A, B, x, y):
        E, P = ec.WeierstrassModel(A, B), ec.ECPoint(x, y)
        assert [chord_mul(E, k, P).is_identity for k in range(1, order + 1)] == [False] * (order - 1) + [True]
        assert ec.infinite_order_screen(E, P) is False

    def test_agrees_with_the_group_law_on_a_grid(self):
        # the integral points (x, y >= 0) with A in [-50, 50], B in [-60, 60]
        # and x in [-12, 30]; a seeded sample of those where y = 0 or y^2
        # divides 4A^3 + 27B^2 (Nagell-Lutz: every torsion point does), and
        # of the others
        candidates, others = [], []
        for A in range(-50, 51):
            for x in range(-12, 31):
                base = x**3 + A * x
                if base < -60:
                    continue
                low = math.isqrt(base - 61) + 1 if base > 60 else 0
                for y in range(low, math.isqrt(base + 60) + 1):
                    B = y * y - base
                    disc = 4 * A**3 + 27 * B * B
                    if disc != 0:
                        (others if y and disc % (y * y) else candidates).append((A, B, x, y))
        assert (len(candidates), len(others)) == (3079, 6688)
        rng = random.Random(1)
        orders = set()
        for A, B, x, y in rng.sample(candidates, 300) + rng.sample(others, 100):
            E, P = ec.WeierstrassModel(A, B), ec.ECPoint(x, y)
            order = next((k for k in range(1, 13) if chord_mul(E, k, P).is_identity), None)
            assert ec.infinite_order_screen(E, P) is (order is None), (A, B, x, y)
            orders.add(order)
        assert orders == {None, 2, 3, 4, 6}


class TestGenerateFamily:
    def test_k1_recovers_first_ascent_family(self):
        fam = ec.generate_family(1)
        assert set(fam.members()) == set(get_family("parmsol1").members())

    def test_k2_recovers_first_composed_family(self):
        fam = ec.generate_family(2)
        assert set(fam.members()) == set(get_family("parmsol3").members())

    def test_k3_is_new_and_verifies(self):
        fam = ec.generate_family(3)
        report = verify_family_symbolic(fam)
        assert report.ok
        degrees = {mp.total_degree() for mp in fam.members()}
        assert degrees == {40}

    def test_families_evaluate_to_verified_triads(self):
        from squaretriads.triads import Triad, canonicalize, verify_triad

        for k in (2, 3):
            fam = ec.generate_family(k)
            vals = [evaluate(mp, {"s": 2, "t": 3}) for mp in fam.members()]
            triad = canonicalize(Triad(*[int(v) for v in vals]))
            assert verify_triad(triad) is not None

    def test_invalid_k(self):
        # bool is a subclass of int, but True is not the multiple 1
        for k in (0, True, False, 2.0, Fraction(2)):
            with pytest.raises(DomainError):
                ec.generate_family(k)

    @pytest.mark.parametrize("k", [True, 2.5, Fraction(2), -1, False, 2.0, pytest.param(np.float64(2), id="np.float64(2)"), "2", None])
    def test_requires_an_integer_k(self, k):
        with pytest.raises(DomainError, match="integer k >= 1"):
            ec.generate_family(k)

    def test_takes_integer_types(self):
        for t in (np.int64, np.int32, np.uint8):
            assert ec.generate_family(t(1)) == ec.generate_family(1)

    @pytest.mark.parametrize(
        "k, digest",
        [
            (1, "72576611d2bd0f10b6eac0c6aa8c9575c920f88814c41c30206ddc72c0012b0f"),
            (2, "b0787a908120d302d118587fa371fae01399fdbbce99963cb620168e5f8bade8"),
            (3, "0e15564c430696ed1c157b05946af529bc3159535de94aee28be605c8cfcd8af"),
            (4, "4741491ce4e7f6e46b77605f95dd31a8492d041190f48118990afad926db19fd"),
            (5, "33469a5e8c0e59fe3fce7931525bb7be8755a1f4bb73a71673ab11710e1595d0"),
            (6, "34a80711e12d1ac6b30c146c2449c9c507f3828b8537772c448bf0b79257900a"),
            (7, "2dd5bcf2ba2173822d0c80bdb2c21387af38c95b582b3f1e58fe50976ae73f3a"),
            (8, "8626aa6a10dfffce6c669ccb6e13171470b13a610ef84419d70ebbeb3c8bc89e"),
            (9, "28370ddc98320a40ab8daac3b807508022f25a219fefb0f5715d48f0d72b6e50"),
            (10, "454f3269aace3cc8c8c8c8ed32fb3dd6483b4554a77a92b71c3410634374fe1d"),
            (11, "22f9a8759dd582795bafd99011c82b647b7996c8bca0fd83fab81866609ee50e"),
            (12, "99dec1e69da126ff2aea41edfa4236b2ebb2fdb5cb295c049d3383bbfd466263"),
        ],
    )
    def test_family_json_is_pinned(self, k, digest):
        payload = json.dumps(family_to_json(ec.generate_family(k)), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_both_entry_points_share_one_path(self, curve, P):
        m, plane_m = RatFunc(var("m")), RatFunc(var("t"), var("s"))
        for k in (1, 2, 3):
            Pk = chord_mul(curve, k, P)
            U, _ = ec._quartic_u(Pk.x, Pk.y, m)
            u = U.substitute({"m": plane_m}) * var("s")
            assert solution_family_polys(u) == ec.generate_family(k).members()

    @pytest.mark.parametrize("k", range(1, 9))
    def test_constraint_is_the_denominator_of_s_u(self, k):
        # u = s U(t/s) by rational-function substitution, sign included
        m, s, t = var("m"), var("s"), var("t")
        E, P, seeds = ec._integral_model()
        x, y, z = ec._kp_jacobian(E, P, k, seeds)
        U, _ = ec._quartic_u(x, y, m, m * z)
        u = U.substitute({"m": RatFunc(t, s)}) * s
        assert ec.generate_family(k).constraints == (s, t, u.den)

    @pytest.mark.parametrize("u", [RatFunc(var("s") * var("t")), RatFunc(var("s") ** 2, var("t"))])
    def test_u_off_the_model_is_rejected(self, u):
        # s*t has weight 2; s^2/t has weight 1 but a non-square discriminant
        with pytest.raises(DomainError):
            solution_family_polys(u)

    def test_zero_line_denominator_is_a_pole(self):
        with pytest.raises(PoleError):
            line_u_triple(var("m"), Poly.zero())

    @pytest.mark.parametrize(
        "N, D, names",
        [
            # U = -2/(m^2 - 1), the k = 1 point, written with a spare factor r
            (-2 * var("r"), (var("m") ** 2 - 1) * var("r"), "r"),
            # off the model as well: the variables are named, not the discriminant
            (var("s"), var("m") * var("t"), "s, t"),
        ],
    )
    def test_line_u_triple_names_variables_other_than_m(self, N, D, names):
        with pytest.raises(DomainError, match="not of %s$" % names):
            line_u_triple(N, D)

    def test_zero_u_is_rejected_at_every_entry_point(self):
        m = var("m")
        with pytest.raises(DomainError, match="zero member"):
            line_u_triple(Poly.zero(), m * m - 1)
        with pytest.raises(DomainError):
            solution_family_polys(RatFunc(0))
        x = RatFunc(var("s"), var("t"))
        with pytest.raises(DomainError, match="zero member"):
            polynomialize_roots((x, RatFunc(0), x + 1))

    def test_off_model_u_is_an_internal_error(self, monkeypatch, capsys):
        honest = ec._quartic_u

        def shifted(X, Y, m, z=1):
            U, den = honest(X, Y, m, z)
            return U + 1, den

        monkeypatch.setattr(ec, "_quartic_u", shifted)
        with pytest.raises(VerificationError, match="off the quartic model"):
            ec.generate_family(2)
        assert main(["generate", "2"]) == 3
        assert json.loads(capsys.readouterr().err) == {"error": "birational image is off the quartic model"}


def _line_point(k):
    """(N, D) of the U-coordinate of kP on the line s = 1, t = m."""
    E, P, seeds = ec._integral_model()
    x, y, z = ec._kp_jacobian(E, P, k, seeds)
    U, _ = ec._quartic_u(x, y, var("m"), var("m") * z)
    return U.num, U.den


def _unstripped_members(N, D):
    """line_u_triple's members before any common square is stripped."""
    m2 = var("m") ** 2
    A, B, C = _line_quadratic(N, D)
    roots = quad_root_numerators(A, B, C)
    return ((1 + m2) * (2 * A * D) ** 2, roots[0] * 2 * A, roots[1] * 2 * A)


def _plane_u_line_point(u):
    line = {"s": 1, "t": var("m")}
    return u.num.substitute(line), u.den.substitute(line)


class TestCommonSquareFromTheValuation:
    """line_u_triple strips m^(2j) and square content instead of a gcd fold."""

    @staticmethod
    def _plane_points():
        s, t = var("s"), var("t")
        a6 = s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6
        b6 = 3 * s**6 + s**4 * t**2 + s**2 * t**4 - t**6
        # the two ascent points and the two composed points of the paper
        return [
            RatFunc(2 * s**3, s**2 - t**2),
            RatFunc(s**4 - t**4, 2 * s**3),
            RatFunc((s**4 - t**4) * b6, 2 * s**3 * a6),
            RatFunc(2 * s**3 * a6, b6 * (s**2 - t**2)),
        ]

    @pytest.mark.parametrize("k", range(1, 11))
    def test_member_gcd_divides_m4_times_m2_plus_1(self, k):
        m = var("m")
        g = reduce(poly_gcd, _unstripped_members(*_line_point(k)))
        assert poly_divide_exact(m**4 * (m * m + 1), g) is not None

    @pytest.mark.parametrize("k", range(1, 13))
    def test_valuation_strip_equals_the_gcd_strip(self, k):
        members = _unstripped_members(*_line_point(k))
        assert _strip_m_squares(members) == strip_common_squares(members)

    def test_valuation_strip_on_the_paper_points(self):
        for u in self._plane_points():
            members = _unstripped_members(*_plane_u_line_point(u))
            assert _strip_m_squares(members) == strip_common_squares(members)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_the_generator_needs_no_reducing_gcd(self, k):
        # generate_family calls _line_u_members on U's coprime numerator and denominator
        N, D = _line_point(k)
        assert poly_gcd(N, D).is_const
        assert _line_u_members(N, D) == line_u_triple(N, D)

    @pytest.mark.parametrize("h", [var("m") ** 3 - 2 * var("m") + 7, var("m") * (var("m") ** 2 + 1), Poly.const(-6)])
    def test_a_common_factor_of_n_and_d_is_reduced_first(self, h):
        for N, D in [_line_point(2), _line_point(3), _plane_u_line_point(self._plane_points()[2])]:
            assert line_u_triple(N * h, D * h) == line_u_triple(N, D)
