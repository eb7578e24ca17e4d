import random
from fractions import Fraction

import pytest

from squaretriads.errors import CompositionError, DomainError, NoAscentError
from squaretriads.exactnum import promote_int
from squaretriads.multipoly import Poly, RatFunc, evaluate, exact_sqrt, var
from squaretriads.quartic import (
    QuarticModel,
    QuarticPoint,
    ascend_constant_side,
    ascend_leading_side,
    choudhry_compose,
    euler_quartic,
    fermat_ascend,
    phi,
    psi,
    second_root_vieta,
)
from squaretriads.triads import quad_in_x

s, t = var("s"), var("t")
S, T = RatFunc(s), RatFunc(t)


def symbolic_model() -> QuarticModel:
    return euler_quartic(S, T)


# the two ascent solutions as displayed, including the sign of v
U14 = RatFunc(2 * s**3, s**2 - t**2)
V14 = RatFunc(-(s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6), (s**2 - t**2) ** 2)
U15 = RatFunc(s**4 - t**4, 2 * s**3)
V15 = RatFunc((s**2 + t**2) * (s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6), 4 * s**6)


class TestModel:
    def test_coefficients_symbolic(self):
        q = symbolic_model()
        assert q.a4 == (s**2 + t**2) ** 2
        assert q.a1 == RatFunc(-4 * (s**2 + t**2), s)

    def test_coefficients_numeric(self):
        q = euler_quartic(Fraction(1), Fraction(2))
        assert (q.a1, q.a2, q.a3, q.a4) == (-20, -210, -100, 25)

    def test_trivial_point(self):
        q = symbolic_model()
        assert q.contains(QuarticPoint(RatFunc(Poly.zero()), RatFunc(s**2 + t**2)))

    def test_s_zero_rejected(self):
        with pytest.raises(DomainError):
            euler_quartic(Fraction(0), Fraction(2))


class TestDiscriminantKernels:
    def test_phi_matches_x_discriminant_symbolically(self):
        u = RatFunc(var("u"))
        A, B, C = quad_in_x(S, T, u)
        assert S**4 * phi(S, T, u) == B * B - 4 * A * C

    def test_phi_at_zero(self):
        assert phi(S, T, RatFunc(Poly.zero())) == (s**2 + t**2) ** 2

    def test_phi_square_at_ascent_value(self):
        val = phi(Fraction(1), Fraction(2), Fraction(-2, 3))
        assert exact_sqrt(val) is not None

    def test_psi_matches_u_discriminant_symbolically(self):
        x = RatFunc(var("x"))
        Au = T * T * (S * S + T * T) - S * S * x
        Bu = 2 * S * x * (S * S + T * T)
        Cu = x * (T * T * x - S * S * (S * S + T * T))
        assert 4 * T * T * psi(S, T, x) == Bu * Bu - 4 * Au * Cu

    def test_psi_vanishes_at_zero(self):
        assert psi(S, T, RatFunc(Poly.zero())) == 0

    def test_psi_square_on_special_locus(self):
        r_, s_ = Fraction(2), Fraction(3)
        x0 = s_ * s_ * (r_ * r_ + s_ * s_) / (r_ * r_)
        assert exact_sqrt(psi(s_, r_, x0)) is not None

    def test_vieta_product_of_roots_symbolic(self):
        u = RatFunc(var("u"))
        A, _, C = quad_in_x(S, T, u)
        assert C / A == u * u * (S * S + T * T)


class TestFermatAscent:
    def test_constant_side_closed_form(self):
        pt = fermat_ascend(symbolic_model(), "constant")
        assert pt.u == U14
        assert pt.v in (V14, -V14)
        assert symbolic_model().contains(pt)

    def test_leading_side_closed_form(self):
        pt = fermat_ascend(symbolic_model(), "leading")
        assert pt.u == U15
        assert pt.v == V15
        assert symbolic_model().contains(pt)

    def test_symmetric_quartic_degenerates(self):
        q = QuarticModel(Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        for side in ("constant", "leading"):
            with pytest.raises(NoAscentError):
                fermat_ascend(q, side)

    def test_random_square_tail_quartics(self):
        """Ascent output is on-curve whenever the method applies."""
        rng = random.Random(21)
        produced = 0
        for _ in range(100):
            e = Fraction(rng.randint(1, 9))
            q = QuarticModel(
                Fraction(rng.randint(-9, 9)),
                Fraction(rng.randint(-9, 9)),
                Fraction(rng.randint(-9, 9)),
                e * e,
            )
            for side in ("constant", "leading"):
                try:
                    pt = fermat_ascend(q, side)
                except NoAscentError:
                    continue
                assert q.contains(pt)
                produced += 1
        assert produced > 100

    def test_ascent_helpers_return_matched_square(self):
        """The v returned with u squares to the quartic at u, symbolically and at Fractions."""

        def rhs(c, u):
            return (((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]

        q = symbolic_model()
        for c in ((1, q.a1, q.a2, q.a3, q.a4), (S * S, T, S + T, S * T, T * T)):
            for ascend in (ascend_constant_side, ascend_leading_side):
                u, v = ascend(*c)
                assert v * v == rhs(c, u)
        rng = random.Random(23)
        produced = 0
        for _ in range(60):
            w, e = rng.randint(1, 9), rng.randint(1, 9)
            middle = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
            c = (Fraction(w * w),) + middle + (Fraction(e * e),)
            for ascend in (ascend_constant_side, ascend_leading_side):
                try:
                    u, v = ascend(*c)
                except NoAscentError:
                    continue
                assert v * v == rhs(c, u)
                produced += 1
        assert produced > 60


def leading_side_closed_form(c4, c3, c2, c1, c0):
    """Reference: the leading-side step written out directly, matching
    (w u^2 + b1 u + b0)^2 against the high three coefficients."""
    w = exact_sqrt(promote_int(c4))
    if w is None or w == 0:
        raise NoAscentError("leading coefficient is not a nonzero square")
    b1 = c3 / (2 * w)
    b0 = (c2 - b1 * b1) / (2 * w)
    den = c1 - 2 * b1 * b0
    if den == 0:
        raise NoAscentError("degenerate residual equation")
    u = (b0 * b0 - c0) / den
    if u == 0:
        raise NoAscentError("reproduces the anchor point")
    return u, (w * u + b1) * u + b0


def ascent_outcome(ascend, c):
    try:
        return ascend(*c)
    except NoAscentError:
        return NoAscentError


class TestLeadingSideOracle:
    def test_fractions_match_closed_form(self):
        rng = random.Random(37)

        def q():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

        raised = produced = 0
        for i in range(400):
            w, c3, c2, c1, c0 = q(), q(), q(), q(), q()
            kind = i % 4
            if kind == 0:  # leading coefficient zero or not a square
                c4 = rng.choice((Fraction(0), Fraction(2), Fraction(-4), Fraction(3, 4), -w * w))
            else:
                c4 = w * w
            if w != 0 and kind in (1, 2):
                b1 = c3 / (2 * w)
                b0 = (c2 - b1 * b1) / (2 * w)
                if kind == 1:  # the linear equation for u has no u term
                    c1 = 2 * b1 * b0
                else:  # the step lands back on the anchor
                    c0 = b0 * b0
            c = (c4, c3, c2, c1, c0)
            want = ascent_outcome(leading_side_closed_form, c)
            assert ascent_outcome(ascend_leading_side, c) == want, c
            if want is NoAscentError:
                raised += 1
            else:
                produced += 1
        assert raised > 200 and produced > 60

    def test_symbolic_matches_closed_form(self):
        q = symbolic_model()
        for c in ((1, q.a1, q.a2, q.a3, q.a4), (S * S, T, S + T, S * T, T * T)):
            assert ascend_leading_side(*c) == leading_side_closed_form(*c)


class TestComposition:
    def test_first_branch_closed_form(self):
        q = symbolic_model()
        anchor = QuarticPoint(RatFunc(Poly.zero()), RatFunc(s**2 + t**2))
        out = choudhry_compose(q, anchor, QuarticPoint(U14, V14))
        A6 = s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6
        B6 = 3 * s**6 + s**4 * t**2 + s**2 * t**4 - t**6
        assert out.u == RatFunc((s**4 - t**4) * B6, 2 * s**3 * A6)

    def test_second_branch_closed_form(self):
        q = symbolic_model()
        anchor = QuarticPoint(RatFunc(Poly.zero()), RatFunc(s**2 + t**2))
        out = choudhry_compose(q, anchor, QuarticPoint(U15, V15))
        A6 = s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6
        B6 = 3 * s**6 + s**4 * t**2 + s**2 * t**4 - t**6
        assert out.u == RatFunc(2 * s**3 * A6, B6 * (s**2 - t**2))

    def test_coincident_points_rejected(self):
        q = symbolic_model()
        anchor = QuarticPoint(RatFunc(Poly.zero()), RatFunc(s**2 + t**2))
        with pytest.raises(CompositionError):
            choudhry_compose(q, anchor, anchor)

    def test_off_curve_rejected(self):
        q = symbolic_model()
        bad = QuarticPoint(RatFunc(Poly.one()), RatFunc(Poly.one()))
        anchor = QuarticPoint(RatFunc(Poly.zero()), RatFunc(s**2 + t**2))
        with pytest.raises(DomainError):
            choudhry_compose(q, anchor, bad)

    def test_on_curve_at_random_specializations(self):
        """Composed points stay on the model at 50 random (s, t)."""
        rng = random.Random(22)
        q = symbolic_model()
        anchor = QuarticPoint(RatFunc(Poly.zero()), RatFunc(s**2 + t**2))
        out1 = choudhry_compose(q, anchor, QuarticPoint(U14, V14))
        out2 = choudhry_compose(q, QuarticPoint(U14, V14), QuarticPoint(U15, V15))
        done = 0
        while done < 50:
            sv, tv = rng.randint(1, 30), rng.randint(1, 30)
            if sv == tv:
                continue
            pt = {"s": sv, "t": tv}
            qv = euler_quartic(Fraction(sv), Fraction(tv))
            for out in (out1, out2):
                try:
                    uv, vv = evaluate(out.u, pt), evaluate(out.v, pt)
                except ZeroDivisionError:
                    continue
                assert vv * vv == qv.rhs(uv)
            done += 1


class TestVieta:
    def test_simple(self):
        assert second_root_vieta(Fraction(1), Fraction(-5), Fraction(6), Fraction(2)) == 3

    def test_zero_root(self):
        assert second_root_vieta(Fraction(1), Fraction(-5), Fraction(0), Fraction(0)) == 5

    def test_requires_actual_root(self):
        with pytest.raises(DomainError):
            second_root_vieta(Fraction(1), Fraction(1), Fraction(1), Fraction(1))


def test_int_arguments_give_the_fraction_result():
    # int / int is a float in Python; every scalar helper that divides must
    # give for ints exactly what it gives for the same values as Fractions
    from dataclasses import astuple, is_dataclass

    from squaretriads.ecurve import quartic_to_xy, xy_to_quartic
    from squaretriads.triads import roots_quad

    def values(x):
        if is_dataclass(x):
            return values(astuple(x))
        if isinstance(x, tuple):
            return [v for item in x for v in values(item)]
        return [x]

    quartic = (-20, -210, -100, 25)  # euler_quartic(1, 2)
    calls = [
        (roots_quad, (1, -19, 90)),
        (second_root_vieta, (1, -19, 90, 9)),
        (second_root_vieta, (2, -3, 0, 0)),
        (euler_quartic, (1, 2)),
        (euler_quartic, (2, 1)),
        (ascend_constant_side, (1,) + quartic),
        (ascend_leading_side, (1,) + quartic),
        (xy_to_quartic, (1, 1, 1)),
        (quartic_to_xy, (1, 1, 2)),
        (lambda *a: fermat_ascend(euler_quartic(*a), "constant"), (1, 2)),
        (lambda *a: fermat_ascend(euler_quartic(*a), "leading"), (1, 2)),
        # v^2 = u^4 + u^3 + u + 1 through (0, 1) and (1, 2)
        (lambda *a: choudhry_compose(QuarticModel(*a[:4]), QuarticPoint(*a[4:6]), QuarticPoint(*a[6:])),
         (1, 0, 1, 1, 0, 1, 1, 2)),
    ]
    for f, args in calls:
        got = f(*args)
        want = f(*map(Fraction, args))
        assert got == want, (f, args)
        assert all(isinstance(v, Fraction) for v in values(got)), (f, args, got)
    assert roots_quad(1, -19, 90) == (9, 10)


def test_euler_quartic_takes_integer_types_exactly():
    # np.int64 arguments gave a float model, since int64 / int64 is a float
    from dataclasses import astuple

    np = pytest.importorskip("numpy")
    got = euler_quartic(np.int64(1), np.int64(2))
    assert got == euler_quartic(1, 2)
    assert all(type(c) is Fraction for c in astuple(got))
