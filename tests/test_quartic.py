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


# ---------------------------------------------------------------------------
# The formulas run on numerators and denominators over the base ring; these
# references are the same formulas written on field values, one reduced
# operation at a time, as they were before.
# ---------------------------------------------------------------------------


def ref_euler(s, t):
    s2t2 = s * s + t * t
    a2 = 2 * s2t2 * (3 * s**4 + 2 * s * s * t * t - 2 * t**4) / s**4
    return (-4 * s2t2 / s, a2, -4 * s2t2 * s2t2 / s, s2t2 * s2t2)


def ref_rhs(a, u):
    a1, a2, a3, a4 = a
    return ((u + a1) * u + a2) * u * u + a3 * u + a4


def ref_constant_side(c4, c3, c2, c1, c0, sqrt=exact_sqrt):
    e = sqrt(c0)
    if e is None or e == 0:
        raise NoAscentError("anchor")
    b1 = c1 / (2 * e)
    b2 = (c2 - b1 * b1) / (2 * e)
    den = b2 * b2 - c4
    if den == 0:
        raise NoAscentError("degenerate")
    u = (c3 - 2 * b1 * b2) / den
    if u == 0:
        raise NoAscentError("anchor point")
    return u, e + (b1 + b2 * u) * u


def ref_leading_side(c4, c3, c2, c1, c0, sqrt=exact_sqrt):
    w, v = ref_constant_side(c0, c1, c2, c3, c4, sqrt)
    return 1 / w, v / (w * w)


def ref_fermat(a, side):
    step = ref_constant_side if side == "constant" else ref_leading_side
    u, _ = step(Fraction(1), *a)
    return u, exact_sqrt(ref_rhs(a, u))


def ref_compose_u(a, P1, P2):
    a1, a2, a3, a4 = a
    (u1, v1), (u2, v2) = P1, P2
    if u1 == u2:
        raise CompositionError("equal u")
    num = (
        -2 * v1 * v2
        + 2 * (u1 - u2) * (u2 * v1 - u1 * v2)
        + a1 * (u1 + u2) * u1 * u2
        + 2 * a2 * u1 * u2
        + a3 * (u1 + u2)
        + 2 * a4
        + 2 * (u1 * u1 - u1 * u2 + u2 * u2) * u1 * u2
    )
    den = (u1 - u2) * (2 * v1 - 2 * v2 + a1 * (u1 - u2) + 2 * u1 * u1 - 2 * u2 * u2)
    if den == 0:
        raise CompositionError("den")
    return num / den


def ref_compose(a, P1, P2):
    u = ref_compose_u(a, P1, P2)
    return u, exact_sqrt(ref_rhs(a, u))


def outcome(f, *args):
    try:
        return f(*args)
    except (NoAscentError, CompositionError) as exc:
        return type(exc)


def as_tuple(pt):
    return pt if isinstance(pt, type) else (pt.u, pt.v)


def all_fractions(*values):
    return all(type(x) is Fraction for x in values)


class TestRingFormAgainstFractions:
    def test_every_certify_pair(self):
        """The benchmark's numeric chain at every coprime s != t <= 16."""
        from math import gcd

        from squaretriads.triads import rational_to_integer_triad, roots_quad, verify_triad

        from test_triads import ref_integer_triad

        pairs = [(s, t) for s in range(1, 17) for t in range(1, 17) if s != t and gcd(s, t) == 1]
        assert len(pairs) == 158
        for s_, t_ in pairs:
            S_, T_ = Fraction(s_), Fraction(t_)
            a = ref_euler(S_, T_)
            q = euler_quartic(S_, T_)
            assert (q.a1, q.a2, q.a3, q.a4) == a and all_fractions(q.a1, q.a2, q.a3, q.a4)
            points = {}
            for side in ("constant", "leading"):
                pt = fermat_ascend(q, side)
                assert (pt.u, pt.v) == ref_fermat(a, side) and all_fractions(pt.u, pt.v), (s_, t_, side)
                assert q.contains(pt) and not q.contains(QuarticPoint(pt.u, pt.v + 1))
                points[side] = pt
            anchor = QuarticPoint(Fraction(0), exact_sqrt(a[3]))
            composed = {}
            for side, pt in points.items():
                for other in (pt, QuarticPoint(pt.u, -pt.v)):
                    got = as_tuple(outcome(choudhry_compose, q, anchor, other))
                    want = outcome(ref_compose, a, (anchor.u, anchor.v), (other.u, other.v))
                    assert got == want, (s_, t_, other)
                    if isinstance(got, tuple):
                        assert all_fractions(*got)
                        composed.setdefault(side, got[0])
            # the benchmark's chain: the triads of the two ascents and of the
            # first composition with the constant-side point that succeeds
            for u in (points["constant"].u, points["leading"].u, composed["constant"]):
                x1, x2 = roots_quad(*quad_in_x(S_, T_, u))
                A, B, C = ref_quad_in_x(S_, T_, u)
                r = exact_sqrt(B * B - 4 * A * C)
                assert (x1, x2) == tuple(sorted(((-B + r) / (2 * A), (-B - r) / (2 * A))))
                triad = rational_to_integer_triad(S_ * S_ + T_ * T_, x1, x2)
                assert triad == ref_integer_triad(S_ * S_ + T_ * T_, x1, x2)
                assert verify_triad(triad) is not None

    def test_seeded_quartics_with_a_square_constant_term(self):
        """rhs, contains, both ascents and composition, at negative u and at
        the u = 0 anchor, on quartics with denominators."""
        rng = random.Random(2026)

        def frac(lo=-9, hi=9):
            return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4, 9, 12)))

        ascents = compositions = raised = 0
        for _ in range(150):
            e = frac(1, 9) * rng.choice((1, -1))
            a = (frac(), frac(), frac(), e * e)
            q = QuarticModel(*a)
            for u in (Fraction(0), frac(-9, -1), frac(1, 9), frac()):
                assert q.rhs(u) == ref_rhs(a, u) and type(q.rhs(u)) is Fraction
                v = exact_sqrt(ref_rhs(a, u))
                if v is not None:
                    assert q.contains(QuarticPoint(u, v)) and q.contains(QuarticPoint(u, -v))
                assert not q.contains(QuarticPoint(u, (v or 0) + Fraction(1, 7)))
            found = []
            for side in ("constant", "leading"):
                got = as_tuple(outcome(fermat_ascend, q, side))
                assert got == outcome(ref_fermat, a, side), (a, side)
                if isinstance(got, tuple):
                    ascents += 1
                    found.append(QuarticPoint(*got))
            anchors = [QuarticPoint(0, abs(e)), QuarticPoint(0, -abs(e))]
            for P1 in anchors + found:
                for P2 in found + [QuarticPoint(p.u, -p.v) for p in found]:
                    got = as_tuple(outcome(choudhry_compose, q, P1, P2))
                    assert got == outcome(ref_compose, a, (P1.u, P1.v), (P2.u, P2.v)), (a, P1, P2)
                    compositions += isinstance(got, tuple)
                    raised += not isinstance(got, tuple)
        assert ascents > 150 and compositions > 300 and raised > 0
        # the model itself, at rational s and t with denominators
        for _ in range(100):
            s_, t_ = frac(1, 9), frac()
            q = euler_quartic(s_, t_)
            assert (q.a1, q.a2, q.a3, q.a4) == ref_euler(s_, t_) and all_fractions(q.a1, q.a2, q.a3, q.a4)
            u = frac()
            assert phi(s_, t_, u) == ref_rhs(ref_euler(s_, t_), u)

    def test_ascent_helpers_on_general_coefficients(self):
        rng = random.Random(41)
        produced = 0
        for _ in range(300):
            w, e = Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            middle = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4, 9))) for _ in range(3)]
            c = (w * w, *middle, e * e)
            for ascend, ref in ((ascend_constant_side, ref_constant_side), (ascend_leading_side, ref_leading_side)):
                got = outcome(ascend, *c)
                assert got == outcome(ref, *c), (ascend, c)
                if isinstance(got, tuple):
                    assert all_fractions(*got)
                    produced += 1
        assert produced > 300


def ref_quad_in_x(s, t, u):
    A = t * t
    B = -s * (s**3 - 2 * s * s * u + s * t * t + s * u * u - 2 * t * t * u)
    C = u * u * t * t * (s * s + t * t)
    return A, B, C


def test_quad_in_x_matches_the_field_formula():
    rng = random.Random(8)
    for _ in range(200):
        s_, t_, u_ = (Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(3))
        got = quad_in_x(s_, t_, u_)
        assert got == ref_quad_in_x(s_, t_, u_) and all_fractions(*got)
    u = RatFunc(var("u"), s - t)
    assert quad_in_x(S, T, u) == ref_quad_in_x(S, T, u)
    # polynomial arguments give polynomials, as the pipeline's closed form needs
    assert all(isinstance(c, Poly) for c in quad_in_x(s, 2 * t, s + t))


class TestSymbolicRingForm:
    """The symbolic ascent and composition against a sympy cancel of the
    field formulas."""

    def setup_method(self):
        self.sympy = pytest.importorskip("sympy")
        self.ss, self.tt = self.sympy.symbols("s t", positive=True)

    def to_sympy(self, x):
        return self.sympy.sympify(str(x).replace("^", "**"), locals={"s": self.ss, "t": self.tt})

    def zero(self, expr):
        return self.sympy.cancel(self.sympy.together(expr)) == 0

    def sqrt(self, expr):
        return self.sympy.sqrt(self.sympy.factor(expr))

    def test_ascent_and_composition(self):
        a = ref_euler(self.ss, self.tt)
        q = symbolic_model()
        anchor = QuarticPoint(RatFunc(Poly.zero()), RatFunc(s**2 + t**2))
        A6 = s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6
        B6 = 3 * s**6 + s**4 * t**2 + s**2 * t**4 - t**6
        closed = {
            "constant": (U14, RatFunc((s**4 - t**4) * B6, 2 * s**3 * A6)),
            "leading": (U15, RatFunc(2 * s**3 * A6, B6 * (s**2 - t**2))),
        }
        for side, ref in (("constant", ref_constant_side), ("leading", ref_leading_side)):
            pt = fermat_ascend(q, side)
            assert pt.u == closed[side][0]
            u_ref, v_ref = ref(1, *a, sqrt=self.sqrt)
            assert self.zero(self.to_sympy(pt.u) - u_ref)
            assert self.zero(self.to_sympy(pt.v) - v_ref) or self.zero(self.to_sympy(pt.v) + v_ref)
            # v^2 is the quartic at u in RatFunc's own field arithmetic, and v
            # is the root with a positive leading coefficient
            field = (q.a1, q.a2, q.a3, q.a4)
            assert pt.v * pt.v == ref_rhs(field, pt.u)
            assert pt.v.num.leading_coeff() > 0
            try:
                out = choudhry_compose(q, anchor, pt)
                other = pt
            except CompositionError:
                other = QuarticPoint(pt.u, -pt.v)
                out = choudhry_compose(q, anchor, other)
            assert out.u == closed[side][1]
            P1 = (0, self.ss**2 + self.tt**2)
            P2 = (self.to_sympy(other.u), self.to_sympy(other.v))
            u12 = ref_compose_u(a, P1, P2)
            assert self.zero(self.to_sympy(out.u) - u12)
            assert out.u == ref_compose_u(field, (anchor.u, anchor.v), (other.u, other.v))
            assert out.v * out.v == ref_rhs(field, out.u)
            assert out.v.num.leading_coeff() > 0
