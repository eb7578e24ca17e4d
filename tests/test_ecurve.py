import hashlib
import json
import random
from fractions import Fraction

import pytest

from squaretriads import ecurve as ec
from squaretriads.cli import main
from squaretriads.errors import DomainError, PipelineStepError, PoleError, VerificationError
from squaretriads.families import family_to_json, get_family, verify_family_symbolic
from squaretriads.multipoly import Poly, RatFunc, _divexact, evaluate, poly_divide_exact, var
from squaretriads.pipeline import _line_quadratic, solution_family_polys
from squaretriads.quartic import euler_quartic
from squaretriads.triads import quad_in_x


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


class TestGroupLaw:
    def test_identity_laws(self, curve, P):
        E4 = ec.specialize_curve(curve, Fraction(4))
        P4 = ec.specialize_point(P, Fraction(4))
        assert ec.ec_add(E4, P4, ec.ECPoint.identity()) == P4
        assert ec.ec_add(E4, ec.ECPoint.identity(), P4) == P4
        assert ec.ec_add(E4, P4, ec.ec_neg(P4)).is_identity

    def test_doubling_stays_on_curve(self, curve, P):
        E4 = ec.specialize_curve(curve, Fraction(4))
        P4 = ec.specialize_point(P, Fraction(4))
        D = ec.ec_add(E4, P4, P4)
        assert E4.contains(D)

    def test_function_field_addition_on_curve(self, curve, P):
        P2 = ec.ec_mul(curve, 2, P)
        P3 = ec.ec_mul(curve, 3, P)
        assert curve.contains(P2) and curve.contains(P3)
        assert ec.ec_add(curve, P2, P) == P3

    def test_function_field_associativity(self, curve, P):
        P2 = ec.ec_mul(curve, 2, P)
        left = ec.ec_add(curve, ec.ec_add(curve, P, P), P2)
        right = ec.ec_add(curve, P, ec.ec_add(curve, P, P2))
        assert left == right and curve.contains(left)

    def test_associativity_at_specializations(self, curve, P):
        rng = random.Random(31)
        E4 = ec.specialize_curve(curve, Fraction(4))
        P4 = ec.specialize_point(P, Fraction(4))
        pts = [ec.ec_mul(E4, k, P4) for k in range(1, 5)]
        for _ in range(20):
            a, b, c = (rng.choice(pts) for _ in range(3))
            left = ec.ec_add(E4, ec.ec_add(E4, a, b), c)
            right = ec.ec_add(E4, a, ec.ec_add(E4, b, c))
            assert left == right

    def test_ec_mul_commutes_with_specialization(self, curve, P):
        for k in range(1, 9):
            kP = ec.ec_mul(curve, k, P)
            for m0 in (Fraction(2), Fraction(3), Fraction(5, 3)):
                Em = ec.specialize_curve(curve, m0)
                assert ec.specialize_point(kP, m0) == ec.ec_mul(Em, k, ec.specialize_point(P, m0))

    def test_off_curve_rejected(self, curve):
        E4 = ec.specialize_curve(curve, Fraction(4))
        with pytest.raises(DomainError):
            ec.ec_add(E4, ec.ECPoint(Fraction(1), Fraction(1)), ec.ECPoint.identity())

    @pytest.mark.parametrize("k", [True, 2.5, Fraction(2), -1])
    def test_ec_mul_requires_an_integer_multiple(self, k):
        E = ec.WeierstrassModel(Fraction(0), Fraction(-2))
        with pytest.raises(DomainError, match="integer k >= 0"):
            ec.ec_mul(E, k, ec.ECPoint(Fraction(3), Fraction(5)))


def _constant_model(A, B, x, y):
    """A curve over Q and a point on it, with Poly coordinates in Z[m]."""
    c = Poly.const
    return ec.WeierstrassModel(c(A), c(B)), ec.ECPoint(c(x), c(y))


class TestDivisionValues:
    """kP from the elliptic divisibility sequence, against the group law."""

    def test_u_matches_the_group_law(self, curve, P):
        m = var("m")
        E, Pi = ec._integral_model()
        assert Pi == ec.ECPoint(-12 * (m**6 - 4 * m * m - 3), 216 * (m * m + 1) ** 2)
        for k in range(1, 11):
            kP = ec.ec_mul(curve, k, P)
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
            kP = ec.ec_mul(Eq, k, Pq)
            assert (x / z**2, y / z**3) == (kP.x, kP.y)

    def test_carried_parts_are_prime_to_m2_plus_1(self):
        m = var("m")
        W = ec._DivisionValues(*ec._integral_model())
        W[12]  # on demand: 12 needs 4..8, not 9..11
        assert 9 not in W.values
        for v, R in W.values.values():
            assert R.is_zero or poly_divide_exact(R, m * m + 1) is None
        # additive reduction at m^2 + 1 = 0: the valuation grows like n^2
        assert [W[n][0] for n in range(2, 11)] == [2, 5, 10, 15, 22, 30, 40, 50, 62]

    def test_torsion_point_gives_the_identity(self, monkeypatch):
        # (2, 3) on Y^2 = X^3 + 1 has order 6
        E, P = _constant_model(0, 1, 2, 3)
        assert [ec._kp_jacobian(E, P, k)[2].is_zero for k in range(1, 8)] == [False] * 5 + [True, False]
        monkeypatch.setattr(ec, "_integral_model", lambda: (E, P))
        with pytest.raises(PipelineStepError, match="kP is the identity at k = 6"):
            ec.generate_family(6)

    def test_zero_u_denominator_is_a_pipeline_step_error(self, monkeypatch):
        # z = 1 puts x = 12(2m^4 + 3m^2 + 1) m^2 on the pole line of the map
        m = var("m")
        pole = (12 * (2 * m**4 + 3 * m * m + 1) * m * m, Poly.zero(), Poly.one())
        with pytest.raises(PoleError):
            ec._quartic_u(pole[0], pole[1], m, m * pole[2])
        monkeypatch.setattr(ec, "_kp_jacobian", lambda E, P, k: pole)
        with pytest.raises(PipelineStepError, match="birational map has a pole at k = 2") as info:
            ec.generate_family(2)
        assert isinstance(info.value.__cause__, PoleError)

    def test_line_quadratic_closed_form(self):
        m = var("m")
        E, Pi = ec._integral_model()
        for k in range(1, 5):
            x, y, z = ec._kp_jacobian(E, Pi, k)
            U, _ = ec._quartic_u(x, y, m, m * z)
            N, D = U.num, U.den
            expanded = tuple(_divexact(c, D * D) for c in quad_in_x(D, m * D, N))
            assert _line_quadratic(N, D) == expanded


class TestBirationalMaps:
    def test_image_of_P_is_ascent_value(self, P):
        m = RatFunc(var("m"))
        U, V = ec.xy_to_quartic(P.x, P.y, m)
        assert U == 2 / (1 - m * m)
        from squaretriads.quartic import phi

        assert V * V == phi(1, m, U)

    def test_symbolic_roundtrips_modulo_curve(self):
        assert ec.roundtrip_identity_xy() is True
        assert ec.roundtrip_identity_uv() is True

    def test_roundtrip_xy_detects_a_broken_map(self, monkeypatch):
        honest = ec.quartic_to_xy

        def shifted(U, V, m):
            X, Y = honest(U, V, m)
            return X + 1, Y

        monkeypatch.setattr(ec, "quartic_to_xy", shifted)
        assert ec.roundtrip_identity_xy() is False

    def test_roundtrip_uv_detects_a_broken_map(self, monkeypatch):
        honest = ec.xy_to_quartic

        def shifted(X, Y, m):
            U, V = honest(X, Y, m)
            return U + 1, V

        monkeypatch.setattr(ec, "xy_to_quartic", shifted)
        assert ec.roundtrip_identity_uv() is False

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
                Pm = ec.specialize_point(ec.ec_mul(curve, k, P), mv)
                U, V = ec.xy_to_quartic(Pm.x, Pm.y, mv)
                X2, Y2 = ec.quartic_to_xy(U, V, mv)
            except (PoleError, ZeroDivisionError):
                continue
            assert (X2, Y2) == (Pm.x, Pm.y)
            done += 1

    def test_pole_conditions(self):
        with pytest.raises(PoleError):
            ec.quartic_to_xy(Fraction(1), Fraction(1), Fraction(0))

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
        from squaretriads.quartic import phi

        target = RatFunc(Vv * Vv) - phi(1, RatFunc(mm), RatFunc(Uv))
        assert image / target == RatFunc(var("s") ** 4)


class TestHomogenization:
    def test_tuple_maps_are_inverse(self):
        svals = (Fraction(3), Fraction(5, 2))
        for sval in svals:
            m, U, V = ec.dehomogenize(sval, Fraction(7), Fraction(11), Fraction(13))
            tv, u, v = ec.homogenize(m, U, V, sval)
            assert (tv, u, v) == (7, 11, 13)

    def test_s_one_is_identity_on_uv(self):
        m, U, V = ec.dehomogenize(Fraction(1), Fraction(9), Fraction(4), Fraction(25))
        assert (m, U, V) == (9, 4, 25)

    def test_zero_s_rejected(self):
        with pytest.raises(DomainError):
            ec.dehomogenize(Fraction(0), Fraction(1), Fraction(1), Fraction(1))

    def test_line_plane_roundtrip(self):
        s, t = var("s"), var("t")
        u = RatFunc(2 * s**3, s**2 - t**2)
        v = RatFunc(-(s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6), (s**2 - t**2) ** 2)
        U, V = ec.plane_to_line(u, v)
        m = var("m")
        assert U == RatFunc(-Poly.const(2), m**2 - 1)
        u2, v2 = ec.line_to_plane(U, V)
        assert (u2, v2) == (u, v)

    def test_plane_to_line_requires_homogeneous(self):
        s, t = var("s"), var("t")
        with pytest.raises(DomainError):
            ec.plane_to_line(RatFunc(s + 1), RatFunc(t))


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
        ],
    )
    def test_family_json_is_pinned(self, k, digest):
        payload = json.dumps(family_to_json(ec.generate_family(k)), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_both_entry_points_share_one_path(self, curve, P):
        m = RatFunc(var("m"))
        for k in (1, 2, 3):
            Pk = ec.ec_mul(curve, k, P)
            U, _ = ec._quartic_u(Pk.x, Pk.y, m)
            assert solution_family_polys(ec._homogenize_univar(U, 1)) == ec.generate_family(k).members()

    @pytest.mark.parametrize("u", [RatFunc(var("s") * var("t")), RatFunc(var("s") ** 2, var("t"))])
    def test_u_off_the_model_is_rejected(self, u):
        # s*t has weight 2; s^2/t has weight 1 but a non-square discriminant
        with pytest.raises(DomainError):
            solution_family_polys(u)

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
