import itertools
import math
import operator
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squaretriads import multipoly as mp
from squaretriads.errors import DomainError, ImageTooLargeError, PoleError, VerificationError
from squaretriads.multipoly import (
    Poly,
    RatFunc,
    const,
    evaluate,
    exact_sqrt,
    largest_square_root_divisor,
    poly_divide_exact,
    poly_gcd,
    poly_sqrt,
    squarefree_decomposition,
    substitute,
    var,
)
from squaretriads.multipoly import _SHORT_TERMS, _canon_coeff, _short_support
from squaretriads.multipoly import _dense_divexact, _dense_sqrt, _from_list, _halve, _list_mul, _pack, _to_list
from squaretriads.multipoly import _unhalve, _unpack
from squaretriads.multipoly import _gcd_primes, _gf_divmod, _gf_gcd, _gf_mul, _gf_primitive, _gf_trim

s, t, m, n = var("s"), var("t"), var("m"), var("n")


def randpoly(rng, names=("s", "t"), deg=4, terms=5):
    p = Poly.zero()
    for _ in range(terms):
        mono = const(rng.randint(-6, 6))
        for name in names:
            mono = mono * var(name) ** rng.randint(0, deg)
        p = p + mono
    return p


def randform(rng, deg, terms, fractions=False):
    """Random homogeneous polynomial of total degree deg in (s, t)."""
    p = Poly.zero()
    for _ in range(terms):
        c = rng.randint(-6, 6)
        if fractions:
            c = Fraction(c, rng.randint(1, 5))
        k = rng.randint(0, deg)
        p = p + c * s ** (deg - k) * t**k
    return p


def run_within(seconds, fn, *args):
    """fn(*args), or TimeoutError once `seconds` have passed."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("needs SIGALRM")

    def over_budget(signum, frame):
        raise TimeoutError("exceeded its %d s budget" % seconds)

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.alarm(seconds)
    try:
        return fn(*args)
    except TimeoutError as exc:
        # raised afresh: on CPython 3.11 the handler's traceback can hold an
        # entry with no line number, which pytest fails to format (INTERNALERROR)
        raise TimeoutError(*exc.args) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (s**2 + t**2) * (s**2 - t**2) == s**4 - t**4

    def test_expand_and_collect(self):
        assert (s**4 - t**4) ** 2 + 4 * s**4 * t**4 == s**8 + 2 * s**4 * t**4 + t**8

    def test_additive_identity(self):
        p = 3 * s**2 * t - t + 1
        assert p + 0 == p
        assert p - p == 0

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(150):
            a, b, c = (randpoly(rng) for _ in range(3))
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a + b) * c == a * c + b * c

    def test_scalar_products_by_fractions(self):
        # each coefficient is _canon_coeff(c * scalar): an int where the
        # product is integral, else a Fraction, for int and Fraction c
        p = 6 * s**3 - 4 * s * t + 9 * t - 1
        q = Fraction(3, 4) * s**2 + Fraction(-5, 6) * t + 2
        mixed = p + q * m + 1
        for poly in (p, q, mixed, 12 * m**40 + 1):
            for c in (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(-4, 3), Fraction(7), 3, -1):
                got = poly * c
                assert got == c * poly
                want = Poly._make(poly.vars, {e: _canon_coeff(x * c) for e, x in poly.terms.items()})
                assert got == want
                assert [type(x) for x in got.terms.values()] == [type(x) for x in want.terms.values()]
                assert all(type(x) is int for x in got.terms.values() if Fraction(x).denominator == 1)
        assert p * Fraction(1, 2) == 3 * s**3 - 2 * s * t + Fraction(9, 2) * t - Fraction(1, 2)
        assert q * Fraction(-12) == -9 * s**2 + 10 * t - 24

    def test_canonical_variable_pruning(self):
        p = (s + t) - t  # t disappears; representation must collapse to s alone
        assert p.vars == ("s",)

    def test_render_deterministic(self):
        p = 4 * s**4 * t**4 + s**2 - Fraction(2, 3) * t
        assert p.render() == "4*s^4*t^4 + s^2 - 2/3*t"


class TestDivision:
    def test_exact_quotient(self):
        assert poly_divide_exact(s**4 - t**4, s**2 + t**2) == s**2 - t**2

    def test_not_divisible(self):
        assert poly_divide_exact(s**2 + t**2, s) is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(DomainError):
            poly_divide_exact(s, Poly.zero())

    def test_roundtrip_random(self):
        rng = random.Random(12)
        for _ in range(150):
            a, b = randpoly(rng), randpoly(rng)
            if b.is_zero:
                continue
            assert poly_divide_exact(a * b, b) == a


class TestSqrt:
    def test_examples(self):
        assert poly_sqrt(s**8 + 2 * s**4 * t**4 + t**8) == s**4 + t**4
        assert poly_sqrt(s**2 + t**2) is None
        assert poly_sqrt(4 * s**4 * t**4) == 2 * s**2 * t**2

    def test_rational_coefficients(self):
        p = (s**2 - 3 * t + Fraction(1, 2)) ** 2
        assert poly_sqrt(p) == s**2 - 3 * t + Fraction(1, 2)

    def test_squares_random(self):
        rng = random.Random(13)
        for i in range(200):
            # keep some cases at total degree 8 before squaring
            deg = 8 if i % 4 == 0 else 3
            nv = ("s",) if deg == 8 and i % 8 == 0 else ("s", "t", "m")
            a = randpoly(rng, names=nv, deg=deg if len(nv) == 1 else 3, terms=4)
            if a.is_zero:
                continue
            r = poly_sqrt(a * a)
            assert r is not None and r * r == a * a
            assert r.leading_coeff() > 0

    def test_non_squares(self):
        rng = random.Random(14)
        hits = 0
        for _ in range(100):
            a = randpoly(rng)
            if a.is_zero or poly_sqrt(a) is not None:
                continue
            hits += 1
        assert hits > 50  # random polynomials are rarely perfect squares


class TestGcd:
    def test_common_factor(self):
        g = poly_gcd((s**2 + t**2) * (s**2 - t**2) ** 2, (s**2 + t**2) ** 2 * s**3)
        assert g == s**2 + t**2

    def test_univariate(self):
        assert poly_gcd((m**2 - 1) * (m**3 + 5), (m**2 - 1) * (m + 7)) == m**2 - 1

    def test_mixed_variable_sets(self):
        assert poly_gcd(s**3 * (s**2 + t**2), s**2) == s**2

    def test_divides_both_random(self):
        rng = random.Random(15)
        for _ in range(80):
            a, b, g0 = randpoly(rng, deg=3, terms=3), randpoly(rng, deg=3, terms=3), randpoly(rng, deg=2, terms=3)
            if a.is_zero or b.is_zero or g0.is_zero:
                continue
            g = poly_gcd(a * g0, b * g0)
            assert poly_divide_exact(a * g0, g) is not None
            assert poly_divide_exact(b * g0, g) is not None
            assert poly_divide_exact(g, poly_gcd(g, g0)) is not None

    def test_trivariate_common_factor(self):
        rng = random.Random(19)
        for _ in range(30):
            names = ("s", "t", "m")
            a = randpoly(rng, names=names, deg=3, terms=4)
            b = randpoly(rng, names=names, deg=3, terms=4)
            g0 = randpoly(rng, names=names, deg=2, terms=3)
            if a.is_zero or b.is_zero or g0.is_zero:
                continue
            g = poly_gcd(a * g0, b * g0)
            assert poly_divide_exact(a * g0, g) is not None
            assert poly_divide_exact(b * g0, g) is not None
            # the common factor must be fully captured (up to content)
            assert poly_divide_exact(g, poly_gcd(g, g0)) is not None
            assert g.total_degree() >= poly_gcd(g0, g0).total_degree()

    def test_variable_hidden_in_content(self):
        # t(s + t) and t(s - t): the shared factor t lives in the content
        # of one variable's coefficient view and must not be lost
        assert poly_gcd(t * (s + t), t * (s - t)) == t
        assert poly_gcd(m * s + m, m * s - m) == m

    def test_univariate_large_coefficients(self):
        # the gcd's coefficients exceed one prime, so images combine by CRT
        g0 = m**3 + (2**70 + 1) * m + 3**50
        assert poly_gcd(g0 * (m**2 + 7), g0 * (2**40 * m - 1)) == g0

    def test_homogeneous_bivariate_with_monomial_factors(self):
        a = s**3 * t * (s**2 + t**2) * (s - t)
        b = s * t**2 * (s**2 + t**2) * (s + 2 * t)
        assert poly_gcd(a, b) == s * t * (s**2 + t**2)

    def test_trivariate_general(self):
        g0 = s * t + m + 1
        assert poly_gcd(g0 * (s - m * t), g0 * (t**2 + s)) == g0

    def test_content_only(self):
        # the primitive parts are coprime, so the gcd is the common content
        # in the evaluation variable t: the constant-image exit
        assert poly_gcd(t * (s + 1), t * (s + 2)) == t
        assert poly_gcd(m * t * (s + 1), t * (s + 2) * (m + 1)) == t

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(23)
        names = ("s", "t", "m")
        syms = sympy.symbols(names)

        def monomial(c, exps):
            mono = const(c)
            for name, k in zip(names, exps):
                mono = mono * var(name) ** k
            return mono

        def rand(nv, deg, terms, homogeneous):
            p = Poly.zero()
            for _ in range(terms):
                if homogeneous:
                    cuts = sorted(rng.randint(0, deg) for _ in range(nv - 1))
                    exps = [b - a for a, b in zip([0] + cuts, cuts + [deg])]
                else:
                    exps = [rng.randint(0, deg) for _ in range(nv)]
                p = p + monomial(rng.randint(-20, 20), exps)
            return p

        def to_sympy(p):
            return sympy.sympify(p.render().replace("^", "**"), locals=dict(zip(names, syms)))

        def from_sympy(e):
            return sum((monomial(int(c), exps) for exps, c in sympy.Poly(e, *syms).terms()), Poly.zero())

        checked = 0
        for _ in range(120):
            nv = rng.randint(1, 3)
            homogeneous = rng.random() < 0.4
            terms = 8 if rng.random() < 0.5 else 2  # dense or sparse
            deg = rng.randint(1, 4)
            a, b, g0 = (rand(nv, deg, terms, homogeneous) for _ in range(3))
            if a.is_zero or b.is_zero or g0.is_zero:
                continue
            ours = poly_gcd(a * g0, b * g0)
            theirs = from_sympy(sympy.gcd(to_sympy(a * g0), to_sympy(b * g0)))
            theirs = theirs * (1 / theirs.rational_content())  # equal up to a constant
            assert ours in (theirs, -theirs), (a * g0, b * g0)
            checked += 1
        assert checked > 100

    def test_shifted_generator_members_within_budget(self):
        # members of generate_family(3) shifted by s -> s + 1: degree 80,
        # 83-bit coefficients, neither homogeneous nor univariate
        from squaretriads.ecurve import generate_family

        if not hasattr(signal, "SIGALRM"):
            pytest.skip("needs SIGALRM")
        a, b, c = generate_family(3).members()
        shift = {"s": s + 1}
        x, y = substitute(a * b, shift), substitute(b * c, shift)

        def over_budget(signum, frame):
            raise TimeoutError("gcd exceeded its 20 s budget")

        previous = signal.signal(signal.SIGALRM, over_budget)
        signal.alarm(20)
        try:
            g = poly_gcd(x, y)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        # the shift commutes with the gcd, computed unshifted on the homogeneous route
        expected = substitute(poly_gcd(a * b, b * c), shift)
        assert g in (expected, -expected)

    @pytest.mark.parametrize("bits", [1600, 3000])
    def test_large_common_factor_within_budget(self, bits):
        # the gcd's coefficients need more bits than 25 primes above 2^62
        # hold, so the CRT loop must not restart at a fixed prime count
        x = var("x")
        big = 2**bits + 12345
        g = run_within(20, poly_gcd, (x + big) * (x + 1), (x + big) * (x + 2))
        assert g == x + big

    @pytest.mark.parametrize(
        "kernel, wrong, a, b",
        [
            (
                "_list_mul",
                lambda A, B: [c + 1 for c in _list_mul(A, B)],
                (s**2 + s * t + 3) * (s - t + 1),
                (s**2 + s * t + 3) * (s + 2 * t),
            ),
            ("_gf_gcd", lambda A, B, p: _gf_gcd(A, B, p) + [1], (m**2 - 1) * (m**3 + 5), (m**2 - 1) * (m + 7)),
        ],
        ids=["product", "image"],
    )
    def test_wrong_kernel_raises_within_a_second(self, kernel, wrong, a, b, monkeypatch):
        # a wrong product (general route) or a wrong gcd image mod p (one-variable
        # route) leaves no candidate that divides; the CRT loop stops at its
        # bound of primes and reports a bug instead of trying primes for ever
        monkeypatch.setattr(mp, kernel, wrong)
        with pytest.raises(VerificationError, match="no dividing candidate"):
            run_within(1, poly_gcd, a, b)

    def test_wrong_evaluation_raises_within_a_second(self, monkeypatch):
        # an evaluation mod p that always reads 0 makes every point a root of
        # a leading coefficient; the interpolation stops at its bound of draws
        # instead of drawing points for ever
        monkeypatch.setattr(mp, "_gf_eval", lambda a, x, p: 0)
        with pytest.raises(VerificationError, match="no run of good evaluation points"):
            run_within(1, poly_gcd, (s**2 + s * t + 3) * (s - t + 1), (s**2 + s * t + 3) * (s + 2 * t))

    def test_squarefree_decomposition(self):
        parts = dict((e, f) for f, e in squarefree_decomposition((s**2 + t**2) ** 3 * (s - t) ** 2 * (s + 2 * t)))
        assert parts[3] == s**2 + t**2
        assert parts[2] in (s - t, t - s)
        assert parts[1] == s + 2 * t

    def test_largest_square_root_divisor(self):
        g = largest_square_root_divisor((s**2 + t**2) ** 3 * (s - t) ** 2 * (s + 2 * t))
        assert g * g * (s**2 + t**2) * (s + 2 * t) in (
            (s**2 + t**2) ** 3 * (s - t) ** 2 * (s + 2 * t),
        )


class TestSubstituteEvaluate:
    def test_pythagorean_binding(self):
        out = substitute(s**2 + t**2, {"s": 2 * m * n, "t": m**2 - n**2})
        assert out == (m**2 + n**2) ** 2

    def test_rename(self):
        assert substitute(t, {"t": m * s}) == m * s

    def test_vacuous_binding_ignored(self):
        p = s**2 + 1
        assert substitute(p, {"t": m}) == p

    def test_substitution_is_simultaneous(self):
        # a binding may mention the variable it replaces
        assert substitute(s**2, {"s": s + 1}) == s**2 + 2 * s + 1
        out = substitute(s * t, {"s": t, "t": s})
        assert out == s * t

    def test_evaluate_examples(self):
        assert evaluate(s**4 + t**4, {"s": 1, "t": 2}) == 17
        u = (2 * s**3) / (s**2 - t**2)
        assert evaluate(u, {"s": 1, "t": 2}) == Fraction(-2, 3)

    def test_evaluate_requires_bindings(self):
        with pytest.raises(DomainError):
            evaluate(s + t, {"s": 1})

    def test_pole_detected(self):
        with pytest.raises(PoleError):
            evaluate(1 / (s**2 - t**2), {"s": 1, "t": 1})

    def test_integer_scalars_convert_exactly(self):
        np = pytest.importorskip("numpy")
        assert evaluate(s**40, {"s": np.int64(3)}) == 3**40
        c = Poly.const(np.int64(3)).terms[()]
        assert c == 3 and type(c) is int
        with pytest.raises(DomainError):
            Poly.const(True)  # bool is not the integer 1

    def test_inexact_scalars_rejected(self):
        for bad in (0.1, 2.0, "3"):
            with pytest.raises(DomainError):
                Poly.const(bad)
            with pytest.raises(DomainError):
                RatFunc(s, bad)
            with pytest.raises(DomainError):
                evaluate(s + t, {"s": bad, "t": 1})

    def test_substitute_commutes_with_evaluate(self):
        rng = random.Random(16)
        for _ in range(60):
            p = randpoly(rng, deg=3, terms=4)
            sigma = {"s": randpoly(rng, deg=2, terms=3), "t": randpoly(rng, deg=2, terms=3)}
            tau = {"s": Fraction(rng.randint(-5, 5)), "t": Fraction(rng.randint(-5, 5))}
            lhs = evaluate(substitute(p, sigma), tau)
            rhs = evaluate(p, {k: evaluate(v, tau) for k, v in sigma.items()})
            assert lhs == rhs


def fraction_evaluate(p, point):
    """evaluate's oracle: the term-by-term loop in Fractions."""
    if isinstance(p, RatFunc):
        den = fraction_evaluate(p.den, point)
        if den == 0:
            raise PoleError("denominator vanishes")
        return fraction_evaluate(p.num, point) / den
    vals = [Fraction(x if isinstance(x, Fraction) else operator.index(x)) for x in map(point.get, p.vars)]
    total = Fraction(0)
    for e, c in p.terms.items():
        term = Fraction(c)
        for x, k in zip(vals, e):
            term *= x**k
        total += term
    return total


class TestEvaluateDifferential:
    """evaluate sums in integers; the Fraction loop and sympy are its oracles."""

    NAMES = ("s", "t", "m")

    @classmethod
    def random_poly(cls, rng, nvars):
        p = Poly.zero()
        for _ in range(rng.randint(0, 6)):
            c = rng.randint(-9, 9)
            if rng.random() < 0.4:
                c = Fraction(c, rng.randint(1, 12))
            mono = const(c)
            for name in cls.NAMES[:nvars]:
                mono = mono * var(name) ** rng.randint(0, 6)
            p = p + mono
        return p

    @classmethod
    def random_point(cls, rng):
        np = pytest.importorskip("numpy")
        kinds = (
            lambda: 0,
            lambda: rng.randint(-7, 7),
            lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            lambda: np.int64(rng.randint(-7, 7)),
        )
        return {name: rng.choice(kinds)() for name in cls.NAMES}

    def test_equals_the_fraction_loop(self):
        rng = random.Random(17)
        for trial in range(600):
            p = self.random_poly(rng, trial % 4)
            for _ in range(3):
                point = self.random_point(rng)
                got = evaluate(p, point)
                assert type(got) is Fraction
                assert got == fraction_evaluate(p, point)

    def test_rational_functions_and_their_poles(self):
        rng = random.Random(18)
        poles = 0
        for trial in range(300):
            num, den = self.random_poly(rng, trial % 4), self.random_poly(rng, trial % 4)
            if den.is_zero:
                continue
            f = RatFunc(num, den)
            point = self.random_point(rng)
            if fraction_evaluate(f.den, point) == 0:
                poles += 1
                with pytest.raises(PoleError):
                    evaluate(f, point)
            else:
                got = evaluate(f, point)
                assert type(got) is Fraction and got == fraction_evaluate(f, point)
        assert poles > 0

    def test_equals_sympy(self):
        sympy = pytest.importorskip("sympy")
        syms = dict(zip(self.NAMES, sympy.symbols(self.NAMES)))
        rng = random.Random(19)
        for trial in range(120):
            p = self.random_poly(rng, trial % 4)
            point = self.random_point(rng)
            expr = sum(
                (sympy.Rational(str(c)) * sympy.Mul(*(syms[v] ** k for v, k in zip(p.vars, e))) for e, c in p.terms.items()),
                sympy.Integer(0),
            )
            at = {syms[v]: sympy.Rational(str(x)) for v, x in point.items()}
            theirs = sympy.Rational(expr.subs(at))
            assert evaluate(p, point) == Fraction(int(theirs.p), int(theirs.q))

    def test_zero_and_constants_are_fractions(self):
        for p, value in ((Poly.zero(), 0), (const(7), 7), (const(Fraction(-3, 4)), Fraction(-3, 4))):
            for point in ({}, {"s": 2}):
                got = evaluate(p, point)
                assert type(got) is Fraction and got == value

    def test_domain_errors_with_fraction_coefficients(self):
        p = Fraction(1, 3) * s**2 * t + Fraction(5, 2) * m
        with pytest.raises(DomainError, match="unbound"):
            evaluate(p, {"s": 1, "t": Fraction(1, 2)})
        with pytest.raises(DomainError, match="exact"):
            evaluate(p, {"s": 1, "t": 0.5, "m": 2})
        with pytest.raises(PoleError):
            evaluate(RatFunc(p, 2 * s - 1), {"s": Fraction(1, 2), "t": 3, "m": 2})

    def test_every_registry_polynomial_at_every_certify_point(self):
        from squaretriads.families import registry

        for fam in registry():
            polys = (*fam.members(), *fam.constraints)
            for vals in itertools.product(range(1, 17), repeat=len(fam.params)):
                if len(vals) == 2 and math.gcd(*vals) != 1:
                    continue
                point = dict(zip(fam.params, vals))
                for p in polys:
                    got = evaluate(p, point)
                    assert type(got) is Fraction and got == fraction_evaluate(p, point)


class TestRatFunc:
    def test_reciprocal_product(self):
        u = (2 * s**3) / (s**2 - t**2)
        assert u * ((s**2 - t**2) / (2 * s**3)) == 1

    def test_add_zero(self):
        u = (2 * s**3) / (s**2 - t**2)
        assert u + 0 == u

    def test_normalization_idempotent(self):
        rng = random.Random(17)
        for _ in range(60):
            num, den = randpoly(rng, deg=3, terms=3), randpoly(rng, deg=3, terms=3)
            if den.is_zero:
                continue
            f = RatFunc(num, den)
            assert RatFunc(f.num, f.den) == f
            assert f.den.leading_coeff() > 0

    def test_field_identities_random(self):
        rng = random.Random(18)
        for _ in range(60):
            fn, fd = randpoly(rng, deg=3, terms=3), randpoly(rng, deg=3, terms=3)
            gn, gd = randpoly(rng, deg=3, terms=3), randpoly(rng, deg=3, terms=3)
            if fd.is_zero or gd.is_zero:
                continue
            f, g = RatFunc(fn, fd), RatFunc(gn, gd)
            assert (f + g) - g == f
            if not g.is_zero:
                assert (f * g) / g == f

    def test_zero_denominator_rejected(self):
        with pytest.raises(PoleError):
            RatFunc(s, Poly.zero())

    def test_sqrt(self):
        f = RatFunc((s**2 + t**2) ** 2 * 4 * s**2, (s**2 - t**2) ** 2)
        r = f.sqrt()
        assert r is not None and r * r == f
        assert RatFunc(s, t).sqrt() is None

    def test_exact_sqrt_dispatch(self):
        assert exact_sqrt(49) == 7
        assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert exact_sqrt(Fraction(2)) is None
        assert exact_sqrt(s**2) == s


class TestHenrici:
    """RatFunc arithmetic reduces without a gcd of whole products; each
    result must equal the full reduction of the unreduced one."""

    def factor(self, rng, shape):
        while True:
            if shape == 0:
                f = randpoly(rng, names=("m",), deg=3, terms=3)
            elif shape == 1:
                f = randform(rng, rng.randint(1, 3), 3)
            elif shape == 2:
                f = randpoly(rng, names=("s", "t"), deg=2, terms=3)
            else:
                f = randpoly(rng, names=("s", "t", "m"), deg=2, terms=3)
            if not f.is_zero:
                return f

    def test_operators_match_full_reduction(self):
        rng = random.Random(41)
        scalars = (1, -1, 2, Fraction(3, 2), Fraction(-5, 6))
        for i in range(200):
            shape = i % 4
            # a small shared pool: denominators get shared and repeated factors
            pool = [self.factor(rng, shape) for _ in range(3)]

            def product(most):
                p = const(rng.choice(scalars))
                for _ in range(rng.randint(0, most)):
                    p = p * rng.choice(pool)
                return p

            f = RatFunc(product(2), product(3))
            g = RatFunc(product(2), product(3))
            cases = [
                (f + g, f.num * g.den + g.num * f.den, f.den * g.den),
                (f - g, f.num * g.den - g.num * f.den, f.den * g.den),
                (f * g, f.num * g.num, f.den * g.den),
                (f / g, f.num * g.den, f.den * g.num),
            ]
            e = rng.choice((-2, -1, 0, 2, 3))
            if e >= 0:
                cases.append((f**e, f.num**e, f.den**e))
            else:
                cases.append((f**e, f.den**-e, f.num**-e))
            for got, num, den in cases:
                want = RatFunc(num, den)
                assert (got.num, got.den) == (want.num, want.den), (f, g)

    def test_sum_cancels_against_shared_denominator_factor(self):
        u = RatFunc(1, s * (s - 1))
        w = RatFunc(1, s * (s + 1))
        # (s + 1 + s - 1) / (s (s - 1)(s + 1)): the factor s of gcd(dens) cancels
        total = u + w
        assert (total.num, total.den) == (Poly.const(2), s**2 - 1)
        assert (u - u).num == 0 and (u - u).den == 1


class TestDenseRoute:
    """gcd, square root and exact division on univariate inputs and forms in
    two variables, whose coefficient-list image has one variable."""

    def cases(self, seed):
        rng = random.Random(seed)
        out = []
        while len(out) < 60:
            i = len(out)
            if i % 2:
                q = randform(rng, rng.randint(1, 5), rng.randint(2, 4), fractions=i % 3 == 0)
                q = q * s ** rng.randint(0, 2) * t ** rng.randint(0, 2)
            else:
                q = randpoly(rng, names=("m",), deg=6, terms=4) * m ** rng.randint(0, 3)
                if i % 3 == 0:
                    q = q * Fraction(-2, 3)
            if not q.is_const:
                out.append(q)
        return out

    def test_square_roots(self):
        negative_leads = 0
        for q in self.cases(51):
            negative_leads += q.leading_coeff() < 0
            r = poly_sqrt(q * q)
            assert r in (q, -q)
            assert r.leading_coeff() > 0
        assert negative_leads > 10

    def test_perturbed_squares(self):
        for q in self.cases(52):
            if q.vars == ("m",):
                # q^2 + 1 = (q + r)^2 forces r (2q + r) = 1, so q constant
                assert poly_sqrt(q * q + 1) is None
            else:
                # q^2 + s^2d is a square only for q = c * s^d
                d = q.total_degree()
                bump = s ** (2 * d) if q.degree_in("s") < d or len(q.terms) > 1 else t ** (2 * d)
                assert poly_sqrt(q * q + bump) is None

    # cases at equal positions of two lists have the same shape

    def test_exact_quotients(self):
        for q, r in zip(self.cases(53), self.cases(54)):
            assert poly_divide_exact(q * r, r) == q

    def test_non_divisible_and_negative_exponents(self):
        for q, r in zip(self.cases(55), self.cases(56)):
            if len(r.terms) < 2:
                continue
            if q.vars == ("m",):
                # r divides q r + 1 only if it divides 1
                assert poly_divide_exact(q * r + 1, r) is None
            else:
                # r divides q r + s^D only if r is a monomial
                assert poly_divide_exact(q * r + s ** (q * r).total_degree(), r) is None
                # q / t^(j+1) with t^j the largest power of t dividing q
                j = min(e[q.vars.index("t")] for e in q.terms) if "t" in q.vars else 0
                assert poly_divide_exact(q * r, r * t ** (j + 1)) is None
        assert poly_divide_exact(s**2 + t**2, s) is None
        assert poly_divide_exact(t**3, s) is None
        assert poly_divide_exact(s * t**2 + s**3, s**2) is None
        assert poly_divide_exact(m**2, m**3) is None
        assert poly_divide_exact(3 * m**5 - 6 * m**2, -3 * m**2) == 2 - m**3

    def test_gcd_with_monomial_factors_and_fractions(self):
        g0 = Fraction(1, 2) * s**2 * t - 3 * t**3
        a = g0 * (s - Fraction(2, 3) * t) * s**3
        b = -g0 * (s**2 + t**2) * s * t**2
        assert poly_gcd(a, b) == 2 * g0 * s
        assert poly_gcd(m**4 * (2 * m - 1), Fraction(3, 4) * m**2 * (2 * m - 1) ** 2) == m**2 * (2 * m - 1)

    def test_division_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        S, T = sympy.symbols("s t")
        a = (3 * s**4 - Fraction(1, 2) * s**2 * t**2 + 7 * t**4) * (2 * s - t) * s * t**2
        b = (2 * s - t) * s * t
        theirs_q, theirs_r = sympy.div(sympy.sympify(a.render().replace("^", "**"), locals={"s": S, "t": T}),
                                       sympy.sympify(b.render().replace("^", "**"), locals={"s": S, "t": T}), S, T)
        assert theirs_r == 0
        ours = poly_divide_exact(a, b)
        assert sympy.expand(sympy.sympify(ours.render().replace("^", "**"), locals={"s": S, "t": T}) - theirs_q) == 0
        _, rem = sympy.div(sympy.sympify((a + s**8).render().replace("^", "**"), locals={"s": S, "t": T}),
                           sympy.sympify(b.render().replace("^", "**"), locals={"s": S, "t": T}), S, T)
        assert rem != 0 and poly_divide_exact(a + s**8, b) is None


def schoolbook(a, b):
    """Product of two coefficient lists term by term: the kernel's oracle."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b, i):
            out[j] += ca * cb
    return out


def assert_product(a, b):
    """_list_mul(a, b) equals the schoolbook product, has ints where it is integral, and leaves a and b as they were."""
    before = (list(a), list(b))
    got = _list_mul(a, b)
    assert [Fraction(c) for c in got] == [Fraction(c) for c in schoolbook(a, b)], (a, b)
    assert all(type(c) is int for c in got if Fraction(c).denominator == 1), (a, b)
    assert (a, b) == before
    assert all(type(x) is type(y) for x, y in zip(a + b, before[0] + before[1]))


class TestPackedKernel:
    """Products, squares and quotients through the packed-integer kernel,
    against a schoolbook oracle and against sympy."""

    def test_pack_round_trip_at_the_slot_boundary(self):
        for w in (1, 2, 3, 8):
            half = 1 << (8 * w - 1)
            digits = [-half, half - 1, 0, -1, 1, -half, 0, half - 1]
            assert _unpack(_pack(digits, w), w, len(digits)) == digits
            # a slot cannot hold +2^(8w - 1): it reads back with a carry
            assert _unpack(_pack([half - 1, 0], w) + 1, w, 2) == [-half, 1]

    def test_products_at_byte_boundaries(self):
        # coefficients at +-2^(8j - 1) and 2^8j - 1 put the product's
        # coefficients next to the edges of the whole-byte slots
        for bits in (7, 8, 15, 16, 31, 32, 63, 64, 3000):
            for n in (1, 2, 3, 255, 256) if bits < 3000 else (1, 2, 3):
                a = [(-1) ** i * (1 << bits) for i in range(n)]
                b = [(1 << bits) - 1] * n
                c = [-(1 << bits)] * n
                assert _list_mul(a, b) == schoolbook(a, b)
                assert _list_mul(c, c) == schoolbook(c, c)  # the squaring path
                assert _list_mul(a, c) == schoolbook(a, c)

    def test_lists_with_fractions_zeros_and_single_terms(self):
        rng = random.Random(61)
        for _ in range(100):
            def rand_list():
                n = rng.choice((1, 1, 2, 5, 40))
                out = []
                for _ in range(n):
                    k = rng.random()
                    if k < 0.3:
                        out.append(0)
                    elif k < 0.6:
                        out.append(Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
                    elif k < 0.8:
                        out.append(rng.randint(-(1 << 3000), 1 << 3000))
                    else:
                        out.append(rng.randint(-9, 9))
                out[-1] = out[-1] or 1
                return out

            a, b = rand_list(), rand_list()
            assert_product(a, b)
            assert_product(a, a)
        # a shorter list with at most _SHORT_TERMS nonzero entries is a
        # shifted sum, one with more is packed: both sides of the threshold,
        # monomials, sparse long lists, a list passed twice, and Fractions
        # whose products are integral
        most = _SHORT_TERMS
        sparse = [1] + [0] * 99 + [1]  # m^100 + 1
        shorts = [
            [1],
            [-1],
            [7],
            [Fraction(3, 2)],
            [0, 0, 1],
            [0, 0, 0, -5],
            [1, 0, 1],
            [2, 0, 0, Fraction(-1, 3), 5],
            [1] * most,
            [1] * (most + 1),
            [Fraction(i + 1, 2) for i in range(most)] + [0, 0],
            [i - 3 for i in range(2 * most + 1)],
            [Fraction(2, 3), 0] * most + [Fraction(4, 3)],
            [1 << 200, 0] * (most - 1) + [-(1 << 300)],
            sparse,
        ]
        longs = [
            sparse,
            [Fraction(1, 2)] * 31,
            [(-1) ** i * (i + 1) for i in range(61)],
            [3, 0, 0, 0, 0, Fraction(3, 4), 0, 0, 0, 0, 6],
            [1 << 1000, 0, -(1 << 999), 0, 7],
        ]
        for a in shorts:
            for b in longs + shorts:
                assert_product(a, b)
                assert_product(b, a)
            assert_product(a, a)
        assert _short_support([1] * most) == list(range(most)) and _short_support([1] * (most + 1)) is None
        # integral products of Fractions come back as ints
        assert _list_mul([Fraction(1, 2)], [2, 4, Fraction(2, 3)]) == [1, 2, Fraction(1, 3)]
        got = _list_mul([Fraction(3, 2), 0, Fraction(1, 2)], [2, 0, 6])
        assert got == [3, 0, 10, 0, 3] and all(type(c) is int for c in got)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-9, 9), st.fractions(max_denominator=12), st.just(0)), min_size=1, max_size=12),
        st.lists(st.one_of(st.integers(-(1 << 80), 1 << 80), st.fractions(max_denominator=12), st.just(0)), max_size=40),
    )
    def test_products_against_schoolbook_property(self, a, b):
        b = b + [1]
        assert_product(a, b)
        assert_product(b, a)
        assert_product(a, a)

    @staticmethod
    def kernel_cases(seed, count):
        """Random polynomials in 1-3 variables: homogeneous or not, sparse or
        dense, with zero, negative, Fraction, 3000-bit or +-2^(8j - 1)
        coefficients, and constants and monomials among them."""
        rng = random.Random(seed)
        names = ("m", "s", "t")
        out = []
        for i in range(count):
            kind = i % 7
            # a Kronecker image has one slot per exponent below D, each as
            # wide as the largest coefficient: keep 3000-bit ones small
            nv = 1 + i % (2 if kind == 1 else 3)
            homogeneous = i % 4 < 2
            sparse = i % 5 < 2 and kind != 1
            deg = rng.randint(5, 12) if sparse else rng.randint(1, 4)
            terms = rng.choice((1, 2, 3)) if sparse else rng.randint(4, 9)
            p = Poly.zero()
            for _ in range(terms):
                if kind == 0:
                    c = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                elif kind == 1:
                    c = rng.randint(-(1 << 3000), 1 << 3000)
                elif kind == 2:
                    c = rng.choice((-1, 1)) << rng.choice((7, 15, 31, 63, 127))  # +-2^(8j - 1)
                else:
                    c = rng.randint(-5, 5)  # zeros among them
                if homogeneous:
                    cuts = sorted(rng.randint(0, deg) for _ in range(nv - 1))
                    exps = [b - a for a, b in zip([0] + cuts, cuts + [deg])]
                else:
                    exps = [rng.randint(0, deg) for _ in range(nv)]
                mono = const(c)
                for name, k in zip(names, exps):
                    mono = mono * var(name) ** k
                p = p + mono
            if i % 11 == 0:
                p = const(rng.choice((3, Fraction(-2, 7), 1 << 3000)))
            if not p.is_zero:
                out.append(p)
        return out

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        names = ("m", "s", "t")
        gens = sympy.symbols(names)

        def to_sympy(p):
            terms = {}
            for e, c in p.terms.items():
                exps = dict(zip(p.vars, e))
                c = Fraction(c)
                terms[tuple(exps.get(n, 0) for n in names)] = sympy.Rational(c.numerator, c.denominator)
            return sympy.Poly.from_dict(terms, *gens, domain="QQ")

        def is_square(sp):
            coeff, factors = sp.sqf_list()
            c = Fraction(int(coeff.p), int(coeff.q))
            return c > 0 and exact_sqrt(c) is not None and all(e % 2 == 0 for _, e in factors)

        cases = list(zip(self.kernel_cases(71, 60), self.kernel_cases(72, 60)))
        shapes = set()
        for a, b in cases:
            A, B = to_sympy(a), to_sympy(b)
            shapes.add((len((a * b).vars), (a * b).is_homogeneous()))
            assert to_sympy(a * b) == A * B
            assert to_sympy(a * a) == A * A
            assert to_sympy(b**3) == B**3
            # square roots: of a square, and of a square plus a perturbation
            r = poly_sqrt(a * a)
            assert r is not None and to_sympy(r) ** 2 == A * A
            bumped = a * a + b
            r = poly_sqrt(bumped)
            if bumped.is_zero:
                continue
            assert (r is not None) == is_square(A * A + B)
            if r is not None:
                assert to_sympy(r) ** 2 == A * A + B
            # exact division: of a product, and of a product plus a remainder
            assert to_sympy(poly_divide_exact(a * b, b)) == A
            for num in (a * b + a, a * b + 1):
                if num.is_zero:
                    continue
                q, rem = to_sympy(num).div(B)
                ours = poly_divide_exact(num, b)
                assert (ours is not None) == rem.is_zero
                if ours is not None:
                    assert to_sympy(ours) == q
        # 1-3 variables, homogeneous or not
        assert {(n, h) for n in (1, 2, 3) for h in (False, True)} - {(1, False)} <= shapes

    def test_constant_square_roots(self):
        # constants take the Kronecker route with no variable at all
        assert poly_sqrt(const(4)) == 2
        assert poly_sqrt(const(Fraction(9, 4))) == Fraction(3, 2)
        assert poly_sqrt(const(Fraction(1, 2**3001))) is None
        for c in (2, -4, Fraction(-1, 9), Fraction(4, 3)):
            assert poly_sqrt(const(c)) is None

    def test_images_that_divide_or_are_squares_when_the_polynomials_are_not(self):
        # p has degree 2 in s and in t, so D_s = D_t = 3: s -> z, t -> z^3,
        # and s*t goes where s^4 goes, to z^4.  p's image is then the square
        # of q's, and q's image divides it, yet p is neither q^2 nor q * x.
        q = t - s**2 - 1
        p = q * q - s**4 + s * t
        (_, image), (_, q_image) = (_to_list(x, ("s", "t"), [3, 3], False) for x in (p, q))
        assert schoolbook(q_image, q_image) == image
        assert _dense_sqrt(image) == q_image
        assert poly_sqrt(p) is None
        assert poly_divide_exact(p, q) is None
        # with a third variable m: D_m = 3 for p m^2, D_m = 2 for p m
        assert poly_sqrt(p * m**2) is None
        assert poly_divide_exact(p * m, q * m) is None
        # and the images of true quotients and roots are taken back
        assert poly_sqrt(q * q * m**2) in (q * m, -q * m)
        assert poly_divide_exact(p * q * m, q * m) == p


class TestHalvedKernels:
    """Lists with zeros in every odd slot run the list kernels halved; the
    oracles are schoolbook, sympy and the same kernel on lists whose odd
    slots are not all zero."""

    @staticmethod
    def even(rng, n, stride=2, fractions=False):
        """A list of f(z^stride) for a random f with n coefficients, f(0) != 0."""
        out = [0] * (stride * (n - 1) + 1)
        for i in range(0, len(out), stride):
            c = rng.randint(-(1 << 80), 1 << 80) if rng.random() < 0.3 else rng.randint(-9, 9)
            out[i] = Fraction(c, rng.randint(1, 12)) if fractions and rng.random() < 0.5 else c
        out[0], out[-1] = out[0] or 1, out[-1] or 1
        return out

    @staticmethod
    def planted(rng, L):
        """(copy of L with one odd slot set nonzero, the list of that one term)."""
        j = rng.randrange(1, len(L), 2)
        c = rng.choice((-3, -1, 1, 2, Fraction(1, 3)))
        out = list(L)
        out[j] = c
        return out, [0] * j + [c]

    def test_halve_and_unhalve(self):
        assert _halve([1, 0, 2]) == [1, 2] and _unhalve([1, 2]) == [1, 0, 2]
        assert _halve([1, 0, 2, 0, 0]) == [1, 2, 0]
        # one or two slots, an odd slot in use, or an even length stay whole
        for L in ([5], [1, 2], [1, 1, 1], [1, 0, 0, 0], [1, 0, 1, 0, 1, 1, 0]):
            assert _halve(L) is None
        rng = random.Random(3)
        for n in range(2, 12):
            L = self.even(rng, n)
            assert _unhalve(_halve(L)) == L

    def test_products(self):
        rng = random.Random(91)
        for i in range(200):
            fractions = i % 3 == 0
            stride = 4 if i % 5 == 0 else 2
            a = self.even(rng, rng.randint(1, 20), stride, fractions)
            b = self.even(rng, rng.randint(1, 20), 2, fractions)
            mixed = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))] + [1]
            for x, y in ((a, b), (b, a), (a, mixed), (mixed, b), (a, a)):
                want = [Fraction(c) for c in schoolbook(x, y)]
                assert [Fraction(c) for c in _list_mul(x, y)] == want, (x, y)
            # the squaring path: one list passed twice
            assert [Fraction(c) for c in _list_mul(a, a)] == [Fraction(c) for c in schoolbook(a, a)]
            if len(a) > 1:
                # the full-length kernel on a copy with a planted odd term
                a2, delta = self.planted(rng, a)
                assert _halve(a2) is None
                whole, extra = _list_mul(a2, b), schoolbook(delta, b)
                extra += [0] * (len(whole) - len(extra))
                assert [Fraction(c) for c in _list_mul(a, b)] == [Fraction(w - e) for w, e in zip(whole, extra)]

    def test_short_lists(self):
        for a in ([3], [Fraction(1, 2)], [1, 2], [2, 0, Fraction(-1, 3)], [-4, 0, 7]):
            for b in ([5], [1, -1], [1, 0, 1], [Fraction(3, 4), 0, 2]):
                assert [Fraction(c) for c in _list_mul(a, b)] == [Fraction(c) for c in schoolbook(a, b)]
        assert _list_mul([1, 0, 1], [1, 0, 1]) == [1, 0, 2, 0, 1]

    def test_lists_mod_p(self):
        p = next(_gcd_primes())
        rng = random.Random(93)
        for _ in range(100):
            a = [c % p for c in self.even(rng, rng.randint(1, 10), rng.choice((2, 4)))]
            b = [c % p for c in self.even(rng, rng.randint(1, 10))]
            if a[-1] and b[-1]:
                assert _gf_mul(a, b, p) == [c % p for c in schoolbook(a, b)]

    def test_exact_quotients(self):
        rng = random.Random(95)
        for i in range(150):
            fractions = i % 3 == 0
            q = self.even(rng, rng.randint(1, 12), 4 if i % 5 == 0 else 2, fractions)
            b = self.even(rng, rng.randint(2, 12), 2, fractions)
            a = _list_mul(q, b)
            assert [Fraction(c) for c in _dense_divexact(a, b)] == [Fraction(c) for c in q]
            # the full-length kernel on both lists times 1 + z
            assert _dense_divexact(schoolbook(a, [1, 1]), schoolbook(b, [1, 1])) == _dense_divexact(a, b)
            # even pairs that do not divide stay None
            bumped = list(a)
            bumped[0] += 1
            assert _halve(bumped) is not None
            assert _dense_divexact(bumped, b) is None
            assert _dense_divexact(schoolbook(bumped, [1, 1]), schoolbook(b, [1, 1])) is None
        assert _dense_divexact([1, 0, 1], [1, 0, 0, 0, 1]) is None

    def test_square_roots(self):
        # the root of z^2 (1 + z^2)^2 is odd: the list is not halved
        assert _dense_sqrt([0, 0, 1, 0, 2, 0, 1]) == [0, 1, 0, 1]
        # an even non-square: a candidate whose square is not the list
        a = [4, 0, 2, 0, 1]
        r = _dense_sqrt(a)
        assert r == [1, 0, 1] and schoolbook(r, r) != a
        assert poly_sqrt(m**4 + 2 * m**2 + 4) is None
        rng = random.Random(97)
        for i in range(150):
            r = self.even(rng, rng.randint(1, 12), 4 if i % 5 == 0 else 2, i % 3 == 0)
            if r[-1] < 0:
                r = [-c for c in r]
            a = _list_mul(r, r)
            assert [Fraction(c) for c in _dense_sqrt(a)] == [Fraction(c) for c in r]
            # the full-length kernel: the root of a (1 + z)^2 is r (1 + z)
            assert _dense_sqrt(schoolbook(a, [1, 2, 1])) == _list_mul(r, [1, 1])
            # a z^2 has the root r z, found without halving
            assert _dense_sqrt([0, 0] + a) == [0] + r
            for bumped in (a[:-1] + [a[-1] + 1], [a[0] + 1] + a[1:]):
                got = _dense_sqrt(bumped)
                assert got is None or schoolbook(got, got) != bumped

    def test_gcds_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        M, S, T = sympy.symbols("m s t")
        rng = random.Random(99)

        def to_sympy(p):
            return sympy.sympify(p.render().replace("^", "**"), locals={"m": M, "s": S, "t": T})

        def even_in(name, other=None):
            """A random polynomial in name^2, or a form of degree 2d in (other, name) even in name."""
            d = rng.randint(1, 5)
            p = Poly.zero()
            for _ in range(rng.randint(1, 4)):
                k = 2 * rng.randint(0, d)
                mono = rng.randint(-9, 9) * var(name) ** k
                p = p + (mono if other is None else mono * var(other) ** (2 * d - k))
            return p

        checked = 0
        for i in range(120):
            name, other = ("t", "s") if i % 2 else ("m", None)
            a, b, g0 = even_in(name, other), even_in(name, other), even_in(name, other)
            if i % 6 == 5:
                b = b * (var(name) + 1)  # one image even, the other not
            if a.is_zero or b.is_zero or g0.is_zero:
                continue
            ours = poly_gcd(a * g0, b * g0)
            theirs = sympy.Poly(sympy.gcd(to_sympy(a * g0), to_sympy(b * g0)), M, S, T)
            assert sympy.Poly(to_sympy(ours), M, S, T).monic() == theirs.monic(), (a * g0, b * g0)
            checked += 1
        assert checked > 100


class TestListImage:
    """The one map from polynomials to coefficient lists, and the squarefree
    structure computed on top of it."""

    def test_round_trip(self):
        rng = random.Random(81)
        cases = TestPackedKernel.kernel_cases(82, 80)
        shapes = set()
        for i, p in enumerate(cases):
            # monomial factors: the image's low zeros go into `low`
            if i % 3:
                for name in p.vars:
                    p = p * var(name) ** rng.randint(0, 3)
            vars = p.vars
            if i % 4 == 0 and len(vars) < 3:
                # a variable that p does not use
                vars = tuple(sorted(set(vars) | {rng.choice(("m", "s", "t"))}, key="mst".index))
            radix = [p.degree_in(v) + 1 + rng.randint(0, 2) for v in vars]
            hom = len(vars) == 2 and p.is_homogeneous()
            d = p.total_degree() if hom else None
            low, L = _to_list(p, vars, radix, hom)
            assert L[0] != 0 and L[-1] != 0
            assert _from_list(vars, radix, d, low, L) == p
            shapes.add((len(vars), hom, low > 0, any(type(c) is Fraction for c in L)))
        assert {(n, h) for n, h, _, _ in shapes} == {(0, False), (1, False), (2, False), (2, True), (3, False)}
        assert any(lo for _, _, lo, _ in shapes) and any(f for _, _, _, f in shapes)

    def test_sparse_image_in_several_variables_is_bounded(self):
        # squaring needs 121^3 slots: refused before the image is allocated
        p = s**60 * t**60 * m**60 + s + 1
        with pytest.raises(ImageTooLargeError):
            p * p
        assert issubclass(ImageTooLargeError, DomainError)
        # one variable and forms in two variables have images as long as
        # the polynomials themselves, so they are not bounded
        assert (m**600 + 1) * (m**600 + 1) == m**1200 + 2 * m**600 + 1
        assert (s**600 + t**600) ** 2 == s**1200 + 2 * s**600 * t**600 + t**1200

    @staticmethod
    def sqf_cases(seed):
        """Products of random factors to random powers: univariate ones,
        forms times powers of s and t, and non-homogeneous ones in m, s, t."""
        rng = random.Random(seed)
        out = []
        for i in range(99):
            kind = i % 3
            p = const(rng.choice((1, -1, 3, Fraction(-2, 3))))
            for _ in range(rng.randint(1, 3)):
                if kind == 0:
                    f = randpoly(rng, names=("m",), deg=3, terms=3)
                elif kind == 1:
                    f = randform(rng, rng.randint(1, 2), 3)
                else:
                    f = randpoly(rng, names=("m", "s", "t"), deg=1, terms=3)
                if not f.is_const:
                    p = p * f ** rng.randint(1, 4)
            if kind == 0:
                p = p * m ** rng.randint(0, 3)
            elif kind == 1:
                p = p * s ** rng.randint(0, 3) * t ** rng.randint(0, 3)
            out.append(p)
        return out

    def test_squarefree_structure_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        names = ("m", "s", "t")
        gens = sympy.symbols(names)

        def to_sympy(p):
            terms = {}
            for e, c in p.terms.items():
                exps = dict(zip(p.vars, e))
                c = Fraction(c)
                terms[tuple(exps.get(n, 0) for n in names)] = sympy.Rational(c.numerator, c.denominator)
            return sympy.Poly.from_dict(terms or {(0, 0, 0): 0}, *gens, domain="QQ")

        one = sympy.Poly(1, *gens, domain="QQ")
        checked = 0
        for p in self.sqf_cases(83):
            if p.is_const:
                continue
            checked += 1
            ours = squarefree_decomposition(p)
            _, theirs = to_sympy(p).sqf_list()
            for f, _ in ours:
                assert f.rational_content() == 1 and f.leading_coeff() > 0
            # one squarefree product per multiplicity, equal up to a constant
            by_e, want_e = {}, {}
            for f, e in ours:
                by_e[e] = by_e.get(e, one) * to_sympy(f)
            for f, e in theirs:
                want_e[e] = want_e.get(e, one) * f
            assert {e: f.monic() for e, f in by_e.items()} == {e: f.monic() for e, f in want_e.items()}, p
            root = one
            for f, e in theirs:
                root *= f ** (e // 2)
            assert to_sympy(largest_square_root_divisor(p)).monic() == root.monic(), p
        assert checked > 90


class TestCachedImage:
    """A Poly keeps its one-variable image once it is built; products of two
    such images, the quotients, roots and gcds built on them, and the list
    kernels below them only read the lists they are given."""

    @staticmethod
    def operands(seed, count):
        """Polynomials in m and forms in (s, t): even or not, with monomial
        factors and Fractions, and ones that cancel down to a
        single variable; half of them with their image already kept.  A few
        polynomials in (s, t) that are not forms go with them."""
        rng = random.Random(seed)
        out = []
        for i in range(count):
            step = 2 if i % 5 < 2 else 1  # even ones take the halved kernels
            deg = rng.randint(0, 5)
            coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
            if i % 3 == 0:
                coeffs = [Fraction(c, rng.randint(1, 4)) for c in coeffs]
            if i % 4 < 2:
                p = sum((c * m ** (step * k) for k, c in enumerate(coeffs)), Poly.zero())
                p = p * m ** rng.randint(0, 2)
            elif i % 4 == 2:
                p = sum((c * s ** (step * (deg - k)) * t ** (step * k) for k, c in enumerate(coeffs)), Poly.zero())
                p = p * s ** rng.randint(0, 2) * t ** rng.randint(0, 2)
                if i % 8 == 6:
                    # not a form: its image in (s, t) is not kept
                    p = p + rng.choice((s, t**7, s * t**3))
            else:
                # s t - s t: forms of which one variable cancels away
                p = rng.randint(1, 5) * rng.choice((s, t)) ** rng.randint(1, 4) + s * t - s * t
                assert len(p.vars) == 1
            if p.is_const:
                continue
            if i % 2 and (len(p.vars) == 1 or p.is_homogeneous()):
                _to_list(p, p.vars, None, len(p.vars) == 2)
                assert p._image is not None
            out.append(p)
        return out

    @staticmethod
    def snapshot(p):
        return dict(p.terms), None if p._image is None else (p._image[0], list(p._image[1]))

    @staticmethod
    def reference_product(a, b):
        """a * b by multiplying out the terms, normalized by Poly._make."""
        names = tuple(sorted(set(a.vars) | set(b.vars), key="mst".index))
        out = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                exps = dict(zip(a.vars, ea))
                for v, k in zip(b.vars, eb):
                    exps[v] = exps.get(v, 0) + k
                e = tuple(exps.get(v, 0) for v in names)
                out[e] = out.get(e, 0) + ca * cb
        return Poly._make(names, out)

    @staticmethod
    def check_result(r):
        # the Poly._make normal form: no zero term, no unused variable, and
        # ints for the integer coefficients
        assert r == Poly._make(r.vars, dict(r.terms))
        assert all(type(c) is int or c.denominator > 1 for c in r.terms.values())
        if r._image is not None:
            # a kept image is the one a fresh conversion of the terms gives
            assert len(r.vars) == 1 or (len(r.vars) == 2 and len({sum(e) for e in r.terms}) == 1)
            fresh = Poly(r.vars, dict(r.terms))
            assert r._image == _to_list(fresh, r.vars, None, len(r.vars) == 2)

    def pairs(self, seed):
        ops = self.operands(seed, 60)
        rng = random.Random(seed + 1)
        same = [(a, b) for a, b in itertools.product(ops, ops) if a.vars == b.vars or set(a.vars) | set(b.vars) <= {"s", "t"}]
        return rng.sample(same, 150)

    def run_checked(self, fn, *operands):
        """fn(*operands), checking that no operand or kept image changed."""
        before = [self.snapshot(p) for p in operands]
        out = fn(*operands)
        for p, (terms, image) in zip(operands, before):
            # an image may be kept now; one kept before is left as it was
            assert p.terms == terms and (image is None or self.snapshot(p)[1] == image)
            self.check_result(p)
        if isinstance(out, Poly):
            self.check_result(out)
        return out

    def test_products(self):
        shapes = set()
        for a, b in self.pairs(91):
            for x, y in ((a, b), (a, a)):  # a * a passes one list twice
                kept = x._image is not None and y._image is not None
                got = self.run_checked(operator.mul, x, y)
                assert got == self.reference_product(x, y)
                shapes.add((len(got.vars), kept, x is y))
        # both image paths, squares among them, in one and two variables,
        # and Kronecker images of polynomials that are not forms
        assert any(len(p.vars) == 2 and not p.is_homogeneous() for p, _ in self.pairs(91))
        assert {(n, kept) for n, kept, _ in shapes} == {(1, False), (1, True), (2, False), (2, True)}
        assert any(sq for _, _, sq in shapes)

    def test_exact_quotients(self):
        losses = 0
        for a, b in self.pairs(92):
            for ab in (a * b, self.reference_product(a, b)):
                assert self.run_checked(poly_divide_exact, ab, b) == a
                assert self.run_checked(poly_divide_exact, ab, a) == b
            self.run_checked(poly_divide_exact, a, b)  # None, or a quotient
            losses += len(a.vars) < len(b.vars)
        assert losses  # quotients with fewer variables than the dividend

    def test_square_roots(self):
        for a, _ in self.pairs(93):
            for sq in (a * a, self.reference_product(a, a)):
                r = self.run_checked(poly_sqrt, sq)
                assert r in (a, -a)
            self.run_checked(poly_sqrt, a)  # None, or a root

    def test_gcds(self):
        rng = random.Random(94)
        ops = self.operands(95, 40)
        for a, b in self.pairs(94):
            # a common factor in m, or in s and t
            c = rng.choice([c for c in ops if (c.vars == ("m",)) == (a.vars == ("m",))])
            ac, bc = a * c, self.reference_product(b, c)
            g = self.run_checked(poly_gcd, ac, bc)
            assert poly_divide_exact(ac, g) is not None and poly_divide_exact(bc, g) is not None
            assert poly_divide_exact(g, c) is not None
        # a gcd of forms that is a power of one variable
        g = self.run_checked(poly_gcd, s * t * (s + t), t**2 * (s - t))
        assert g == t and g.vars == ("t",)


class TestModularImages:
    """The mod-p layer under Brown's gcd against sympy's galoistools.

    galoistools writes a polynomial leading coefficient first; these
    helpers take trimmed lists constant term first.
    """

    p = next(_gcd_primes())

    @staticmethod
    def trimmed(lst, p):
        return all(0 <= c < p for c in lst) and (not lst or lst[-1] != 0)

    def rand(self, rng, deg):
        return _gf_trim([rng.randrange(self.p) for _ in range(deg)] + [rng.randrange(1, self.p)])

    def cases(self, rng):
        p = self.p
        for kind in ("common factor", "deg a < deg b", "b divides a", "constant b") * 75:
            if kind == "common factor":
                f = self.rand(rng, rng.randint(1, 5))
                a = _gf_mul(f, self.rand(rng, rng.randint(0, 6)), p)
                b = _gf_mul(f, self.rand(rng, rng.randint(0, 6)), p)
            elif kind == "deg a < deg b":
                b = self.rand(rng, rng.randint(1, 8))
                a = self.rand(rng, rng.randint(0, len(b) - 2))
            elif kind == "b divides a":
                b = self.rand(rng, rng.randint(0, 6))
                a = _gf_mul(b, self.rand(rng, rng.randint(0, 6)), p)
            else:
                b = [rng.randrange(1, p)]
                a = self.rand(rng, rng.randint(0, 8))
            yield kind, a, b
        yield "zero a", [], self.rand(rng, 3)

    def test_matches_galoistools(self):
        gt = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ

        p = self.p
        rng = random.Random(62)
        for kind, a, b in self.cases(rng):
            rev_a, rev_b = a[::-1], b[::-1]
            q, r = _gf_divmod(a, b, p)
            want_q, want_r = gt.gf_div(rev_a, rev_b, p, ZZ)
            assert (q[::-1], r[::-1]) == (want_q, want_r), (kind, a, b)
            g = _gf_gcd(a, b, p)
            monic = [c * pow(g[-1], -1, p) % p for c in g]
            assert monic[::-1] == gt.gf_gcd(rev_a, rev_b, p, ZZ), (kind, a, b)
            for out in (q, r, g):
                assert self.trimmed(out, p), (kind, a, b, out)
            if kind == "b divides a":
                assert r == []
            if kind == "constant b":
                assert r == [] and len(g) == 1

    def test_primitive_parts_trimmed(self):
        p = self.p
        rng = random.Random(9)
        for _ in range(40):
            f = self.rand(rng, rng.randint(1, 3))
            R = {(i,): _gf_mul(f, self.rand(rng, rng.randint(0, 4)), p) for i in range(3)}
            cont, prim = _gf_primitive(R, p)
            assert self.trimmed(cont, p)
            assert all(self.trimmed(lst, p) for lst in prim.values())
            # the content divides out exactly: each part times it is the input
            for m, lst in prim.items():
                assert _gf_mul(lst, cont, p) == R[m]


class TestSubstituteScalars:
    def test_integer_scalar_bindings_convert_exactly(self):
        np = pytest.importorskip("numpy")
        out = substitute(s**2, {"s": np.int64(3)})
        assert out == 9 and type(out.terms[()]) is int
        assert substitute(s * t, {"s": np.int64(2)}) == 2 * t

    def test_inexact_scalar_bindings_rejected(self):
        for bad in (0.5, 2.0, "3"):
            with pytest.raises(DomainError):
                substitute(s**2, {"s": bad})
