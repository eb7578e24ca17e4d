import math
import random
from fractions import Fraction

import numpy as np
import pytest

from squaretriads.errors import (
    DegenerateParameterError,
    DomainError,
    ExcludedBranchError,
)
from squaretriads.multipoly import RatFunc, var
from squaretriads.triads import (
    CubicSpec,
    PQParameterization,
    SquareCertificate,
    Triad,
    canonicalize,
    elementary_symmetric,
    fg_from_parameterization,
    is_sum_two_rational_squares,
    quad_in_x,
    rational_roots_cubic,
    rational_to_integer_triad,
    roots_quad,
    triad_json,
    verify_triad,
)


class TestTriadBasics:
    def test_elementary_symmetric(self):
        assert elementary_symmetric(Triad(45, 64, 180)) == (289, 22500, 518400)
        assert elementary_symmetric(Triad(1, 1, 1)) == (3, 3, 1)
        assert elementary_symmetric(Triad(80, 225, 320)) == (625, 115600, 5760000)

    def test_verify(self):
        cert = verify_triad(Triad(45, 64, 180))
        assert (cert.f, cert.g, cert.h) == (17, 150, 720)
        assert verify_triad(Triad(81, 784, 186624)) is not None
        assert verify_triad(Triad(1, 2, 3)) is None

    def test_members_must_be_positive(self):
        with pytest.raises(DomainError):
            Triad(0, 1, 2)
        with pytest.raises(DomainError):
            Triad(1, -1, 2)

    @pytest.mark.parametrize(
        "cls, args",
        [(Triad, (True, 1, 2)), (SquareCertificate, (1, False, 3))]
        + [(Triad, (x, 1, 2)) for x in (2.0, np.float64(2), "2", None, Fraction(2))]
        + [(SquareCertificate, (1, x, 3)) for x in (2.0, np.float64(2), "2", None, Fraction(2))],
    )
    def test_bool_members_rejected(self, cls, args):
        # bool is a subclass of int; triad_json would render "True"
        with pytest.raises(DomainError):
            cls(*args)

    def test_integer_types_are_stored_as_int(self):
        # numpy members were refused, and e2 or e3 of int64 members would wrap
        t = Triad(np.int64(45), np.int32(64), np.uint8(180))
        assert t == Triad(45, 64, 180) and all(type(v) is int for v in t.members())
        cert = SquareCertificate(np.int64(17), np.int32(92), np.uint8(0))
        assert cert == SquareCertificate(17, 92, 0) and all(type(v) is int for v in (cert.f, cert.g, cert.h))
        big = Triad(np.int64(2**40), np.int64(2**41), np.int64(2**42))
        assert elementary_symmetric(big)[2] == 2**123

    def test_canonicalize(self):
        assert canonicalize(Triad(139264, 73728, 156672)) == Triad(72, 136, 153)
        assert canonicalize(Triad(45, 64, 180)) == Triad(45, 64, 180)
        assert canonicalize(Triad(180, 256, 720)) == Triad(45, 64, 180)
        # idempotent
        t = canonicalize(Triad(200704, 47775744, 20736))
        assert t == Triad(81, 784, 186624)
        assert canonicalize(t) == t

    def test_scaling_invariance(self):
        rng = random.Random(5)
        base = Triad(45, 64, 180)
        for _ in range(20):
            k = rng.randint(1, 50)
            scaled = Triad(base.a * k * k, base.b * k * k, base.c * k * k)
            assert verify_triad(scaled) is not None
            assert canonicalize(scaled) == base

    def test_json_rendering(self):
        cert = verify_triad(Triad(45, 64, 180))
        assert triad_json(Triad(45, 64, 180), cert) == {
            "a": "45",
            "b": "64",
            "c": "180",
            "f": "17",
            "g": "150",
            "h": "720",
        }


class TestRationalScaling:
    def test_already_integral(self):
        assert rational_to_integer_triad(Fraction(45), Fraction(64), Fraction(180)) == Triad(45, 64, 180)

    def test_least_square_scale(self):
        assert rational_to_integer_triad(Fraction(45, 4), Fraction(16), Fraction(45)) == Triad(45, 64, 180)

    def test_scaled_but_unverifiable(self):
        out = rational_to_integer_triad(Fraction(5, 9), Fraction(5), Fraction(16, 9))
        assert out == Triad(5, 16, 45)
        assert verify_triad(out) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            rational_to_integer_triad(Fraction(0), Fraction(1), Fraction(2))


class TestCubic:
    def test_table_row_roots(self):
        assert rational_roots_cubic(CubicSpec(17, 150, 720)) == [45, 64, 180]

    def test_zero_cubic(self):
        assert rational_roots_cubic(CubicSpec(0, 0, 0)) == [0, 0, 0]

    def test_single_rational_root(self):
        assert rational_roots_cubic(CubicSpec(1, 1, 1)) == [1]

    def test_round_trip_table_rows(self):
        from squaretriads.search import TABLE1_ROWS

        for _, _, members in TABLE1_ROWS:
            triad = Triad(*sorted(members))
            cert = verify_triad(triad)
            assert cert is not None
            roots = rational_roots_cubic(CubicSpec(cert.f, cert.g, cert.h))
            assert roots == sorted(Fraction(x) for x in triad.members())

    def test_round_trip_thirteen_digit(self):
        triad = Triad(252782198228, 1633780814400, 3474741058973)
        cert = verify_triad(triad)
        assert cert is not None
        roots = rational_roots_cubic(CubicSpec(cert.f, cert.g, cert.h))
        assert roots == [Fraction(x) for x in triad.members()]


class TestParameterization:
    def test_root_property(self):
        rng = random.Random(6)
        checked = 0
        while checked < 40:
            p, q, m, h = (Fraction(rng.randint(-5, 5)) for _ in range(4))
            if m == 0 or p * p + q * q == 0 or m * m * p - 2 * m * q - p == 0:
                continue
            P = PQParameterization(p, q, m, h)
            f, g = fg_from_parameterization(P)
            x = p * p + q * q
            assert x**3 - f * f * x * x + g * g * x - h * h == 0
            checked += 1

    def test_zero_branch_excluded(self):
        with pytest.raises(ExcludedBranchError):
            fg_from_parameterization(PQParameterization(1, 0, 0, 1))

    def test_degenerate_denominator_rejected_at_construction(self):
        with pytest.raises(DegenerateParameterError):
            PQParameterization(1, 0, 1, 5)

    def test_factorization_identity_symbolic(self):
        """The cubic with these (f, g) splits off x - p^2 - q^2 exactly."""
        x, p, q, mm, h = (RatFunc(var(nm)) for nm in ("x", "p", "q", "m", "h"))
        norm2 = p * p + q * q
        q4 = norm2 * norm2
        den = mm * mm * p - 2 * mm * q - p
        f = -((q4 - q * h) * mm * mm - 2 * mm * p * h + q4 + q * h) / (den * norm2)
        g = ((p * p * q + q**3 - h) * mm * mm + (2 * p**3 + 2 * p * q * q) * mm - p * p * q - q**3 - h) / den
        cubic = x**3 - f * f * x * x + g * g * x - h * h
        quotient = cubic / (x - norm2)
        # exact division: remainder-free quotient must be a quadratic in x
        num = quotient.num
        assert num.degree_in("x") == 2
        assert (x - norm2) * quotient == cubic
        # and it matches the displayed quadratic factor after clearing scale
        lead = den * den * norm2 * norm2
        scaled = quotient * lead
        mq = mm * mm * q + 2 * p * mm - q
        expected_x2 = lead
        expected_x1 = -(
            mq * mq * h * h
            - 2 * norm2 * norm2 * (mm * mm + 1) * mq * h
            + norm2**3 * mq * mq
        )
        expected_x0 = h * h * norm2 * den * den
        xr = RatFunc(var("x"))
        assert scaled == expected_x2 * xr * xr + expected_x1 * xr + expected_x0


class TestQuadratic:
    def test_coefficients(self):
        A, B, C = quad_in_x(Fraction(1), Fraction(2), Fraction(-2, 3))
        assert A == 4 and C == Fraction(80, 9)
        assert B == -Fraction(109, 9)

    def test_roots_from_ascent_value(self):
        A, B, C = quad_in_x(Fraction(1), Fraction(2), Fraction(-2, 3))
        roots = roots_quad(A, B, C)
        # the two displayed root forms evaluated at (s, t) = (1, 2)
        assert roots == (Fraction(5, 4), Fraction(16, 9))
        assert C / A == Fraction(4, 9) * 5  # Vieta: product is u^2 (s^2 + t^2)

    def test_simple_quadratics(self):
        assert roots_quad(Fraction(1), Fraction(-5), Fraction(6)) == (2, 3)
        assert roots_quad(Fraction(1), Fraction(0), Fraction(1)) is None
        with pytest.raises(DegenerateParameterError):
            roots_quad(Fraction(0), Fraction(1), Fraction(1))

    def test_degenerate_u_zero(self):
        A, B, C = quad_in_x(Fraction(1), Fraction(2), Fraction(0))
        assert C == 0
        roots = roots_quad(A, B, C)
        assert roots is not None and 0 in roots


class TestTwoRationalSquares:
    def test_examples(self):
        w = is_sum_two_rational_squares(Fraction(45))
        assert w is not None and w.p**2 + w.q**2 == 45
        assert is_sum_two_rational_squares(Fraction(3)) is None
        w = is_sum_two_rational_squares(Fraction(5, 2))
        assert w is not None and w.p**2 + w.q**2 == Fraction(5, 2)

    def test_requires_positive(self):
        with pytest.raises(DomainError):
            is_sum_two_rational_squares(Fraction(-1))

    @pytest.mark.parametrize("x", [0.1, 5.0, True, False, "5", pytest.param(np.float64(5), id="np.float64(5)"), None])
    def test_refuses_inexact_values(self, x):
        # 0.1 is 3602879701896397/2^55 in binary and True is not the integer 1
        with pytest.raises(DomainError):
            is_sum_two_rational_squares(x)

    def test_accepts_integer_types(self):
        np = pytest.importorskip("numpy")
        for x in (5, np.int64(5), np.uint8(5)):
            w = is_sum_two_rational_squares(x)
            assert (w.p, w.q, w.value) == (1, 2, 5)
        assert is_sum_two_rational_squares(np.int32(3)) is None

    def test_perfect_square_shortcut(self):
        w = is_sum_two_rational_squares(Fraction(49, 4))
        assert w is not None and (w.p, w.q) == (0, Fraction(7, 2))

    def test_members_of_verified_triads(self):
        from squaretriads.search import TABLE1_ROWS

        for _, _, members in TABLE1_ROWS:
            for x in members:
                assert is_sum_two_rational_squares(Fraction(x)) is not None


def ref_integer_triad(ra, rb, rc):
    """The least k with k^2 r integral for every member, found from the
    denominators' factorizations, then the square stripped from the gcd."""
    from squaretriads.exactnum import factorize

    k = 1
    for x in (ra, rb, rc):
        need = 1
        for p, e in factorize(x.denominator).items():
            need *= p ** ((e + 1) // 2)
        k = k * need // math.gcd(k, need)
    members = [x * k * k for x in (ra, rb, rc)]
    assert all(m.denominator == 1 for m in members)
    return canonicalize(Triad(*[int(m) for m in members]))


def test_rational_to_integer_triad_is_the_least_square_scale():
    """Denominators with square factors, and members sharing them, against
    the least square scale; the lcm scale of the library may be larger."""
    rng = random.Random(77)
    primes = (2, 3, 5, 7, 11, 13)

    def den():
        d = 1
        for p in rng.sample(primes, rng.randint(0, 3)):
            d *= p ** rng.randint(1, 4)
        return d

    scaled = 0
    for _ in range(400):
        common = den()
        triple = [Fraction(rng.randint(1, 10**4), common * den()) for _ in range(3)]
        got = rational_to_integer_triad(*triple)
        assert got == ref_integer_triad(*triple), triple
        assert all(type(m) is int for m in got.members())
        scaled += math.lcm(*[x.denominator for x in triple]) > 1
    assert scaled > 300
    # a triad divided by a square comes back, whatever its denominators share
    for t in (Triad(45, 64, 180), Triad(80, 225, 320), Triad(81, 784, 186624)):
        for q in (2, 6, 12, 35):
            rational = [Fraction(m, q * q) for m in t.members()]
            assert rational_to_integer_triad(*rational) == canonicalize(t)
