"""One rule for exact inputs, at every entry point that takes a scalar.

exactnum._integer and exactnum._exact_scalar decide what an integer and a
rational are: ints and other integer types (numpy ints, converted to int),
and for rationals also Fractions.  bool, floats and everything else raise
DomainError.  Entry points that already have a parametrized refusal test of
their own (factorize and the other integer functions of exactnum, Triad,
SquareCertificate, SearchConfig, evaluate_family, ec_mul and
is_sum_two_rational_squares) take these cases there.
"""

from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np
import pytest

from squaretriads import ecurve as ec
from squaretriads import exactnum as en
from squaretriads.errors import DomainError
from squaretriads.families import (
    evaluate_family,
    family_to_json,
    gensol1_pipeline,
    square_classification,
    verify_family_symbolic,
)
from squaretriads.multipoly import (
    Poly,
    RatFunc,
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
from squaretriads.pipeline import (
    canonical_triple,
    line_u_triple,
    polynomialize_roots,
    solution_family_polys,
    square_witnesses,
    strip_common_squares,
)
from squaretriads.quartic import QuarticModel, QuarticPoint, euler_quartic, psi, second_root_vieta
from squaretriads.search import naive_search
from squaretriads.triads import CubicSpec, PQParameterization, canonicalize, rational_to_integer_triad, verify_triad

s = var("s")
m = var("m")

# (name, call, integer_only); each call is valid at x = 2
BOUNDARIES = [
    ("Poly.__pow__", lambda x: s**x, True),
    ("RatFunc.__pow__", lambda x: RatFunc(s, s + 1) ** x, True),
    ("gensol1_pipeline r", lambda x: gensol1_pipeline(x, 1), True),
    ("gensol1_pipeline s", lambda x: gensol1_pipeline(1, x), True),
    ("generate_family", lambda x: ec.generate_family(x), True),
    ("naive_search", naive_search, True),
    ("promote_int", en.promote_int, False),
    ("sqrt_fraction", en.sqrt_fraction, False),
    ("TwoSquares", lambda x: en.TwoSquares(x, 0, 4), False),
    ("Poly.const", Poly.const, False),
    ("evaluate", lambda x: evaluate(s, {"s": x}), False),
    ("substitute", lambda x: substitute(s**2, {"s": x}), False),
    ("exact_sqrt", exact_sqrt, False),
    ("CubicSpec", lambda x: CubicSpec(x, 1, 1), False),
    ("PQParameterization", lambda x: PQParameterization(x, 1, 1, 1), False),
    ("rational_to_integer_triad", lambda x: rational_to_integer_triad(x, 2, 1), False),
    ("euler_quartic s", lambda x: euler_quartic(x, 1), False),
    ("euler_quartic t", lambda x: euler_quartic(1, x), False),
    ("specialize_curve", lambda x: ec.specialize_curve(ec.ecweier(), x), False),
    ("specialize_point", lambda x: ec.specialize_point(ec.point_P(), x), False),
    # scalar operands of Poly and RatFunc arithmetic, on either side
    ("Poly * x", lambda x: s * x, False),
    ("x * Poly", lambda x: x * s, False),
    ("Poly + x", lambda x: s + x, False),
    ("x - Poly", lambda x: x - s, False),
    ("Poly / x", lambda x: s / x, False),
    ("x / Poly", lambda x: x / s, False),
    ("RatFunc * x", lambda x: RatFunc(s) * x, False),
    ("x * RatFunc", lambda x: x * RatFunc(s), False),
    ("RatFunc - x", lambda x: RatFunc(s) - x, False),
    ("RatFunc / x", lambda x: RatFunc(s) / x, False),
    # the curve and quartic containers and the quartic's own formulas
    ("QuarticModel", lambda x: QuarticModel(x, 1, 2, 4), False),
    ("QuarticModel.rhs", lambda x: QuarticModel(1, 1, 2, 4).rhs(x), False),
    ("psi s", lambda x: psi(x, 1, 2), False),
    ("psi t", lambda x: psi(1, x, 2), False),
    ("psi x", lambda x: psi(1, 2, x), False),
    # x^2 - 3x + 2 = (x - 1)(x - 2), and 2x^2 - 3x + 1 = (2x - 1)(x - 1)
    ("second_root_vieta A", lambda x: second_root_vieta(x, -3, 1, 1), False),
    ("second_root_vieta B", lambda x: second_root_vieta(1, x, -3, 1), False),
    ("second_root_vieta C", lambda x: second_root_vieta(1, -3, x, 1), False),
    ("second_root_vieta known", lambda x: second_root_vieta(1, -3, 2, x), False),
    ("QuarticPoint u", lambda x: QuarticPoint(x, 1), False),
    ("QuarticPoint v", lambda x: QuarticPoint(0, x), False),
    ("WeierstrassModel", lambda x: ec.WeierstrassModel(x, 1), False),
    ("ECPoint x", lambda x: ec.ECPoint(x, 1), False),
    ("ECPoint y", lambda x: ec.ECPoint(1, x), False),
]

REFUSED = [True, False, 2.0, np.float64(2), "2", None]
REFUSED_BY_INTEGERS = [Fraction(2), Fraction(1, 2)]
ACCEPTED = [np.int64, np.int32, np.uint8]


def _numpy_values(x) -> list:
    """Every numpy value stored anywhere in x."""
    if is_dataclass(x):
        parts = [getattr(x, f.name) for f in fields(x)]
    elif isinstance(x, (tuple, list)):
        parts = list(x)
    elif isinstance(x, Poly):
        parts = list(x.terms.values())
    elif isinstance(x, RatFunc):
        parts = [x.num, x.den]
    elif isinstance(x, Fraction):
        parts = [x.numerator, x.denominator]
    else:
        return [x] if type(x).__module__ == "numpy" else []
    return [v for part in parts for v in _numpy_values(part)]


def test_every_boundary_follows_the_one_rule():
    problems = []
    for name, call, integer_only in BOUNDARIES:
        for x in REFUSED + (REFUSED_BY_INTEGERS if integer_only else []):
            try:
                got = call(x)
            except DomainError:
                continue
            except Exception as exc:  # a TypeError is a bug, not a refusal
                got = exc
            problems.append("%s(%r) gave %r" % (name, x, got))
        expected = call(2)
        for t in ACCEPTED:
            try:
                got = call(t(2))
            except Exception as exc:
                got = exc
            if got != expected or _numpy_values(got):
                problems.append("%s(%r) gave %r" % (name, t(2), got))
    assert problems == []


def test_containers_compute_exactly():
    # a float coefficient was computed in floats: QuarticModel(0.5, 1, 2, 4)
    # .rhs(0.25) gave 4.57421875, and ec_add on float points a float point
    with pytest.raises(DomainError):
        QuarticModel(0.5, 1, 2, 4).rhs(0.25)
    with pytest.raises(DomainError):
        ec.WeierstrassModel(0.5, 1.0)
    # integer coordinates are kept as Fractions, so the chord's slope is exact
    E = ec.WeierstrassModel(0, 1)
    doubled = ec.ec_add(E, ec.ECPoint(0, 1), ec.ECPoint(0, 1))
    assert doubled == ec.ECPoint(0, -1) and type(doubled.x) is Fraction
    assert ec.ECPoint(None, None).is_identity
    assert QuarticModel(1, 1, 2, 4).rhs(Fraction(1, 2)) == Fraction(87, 16)


def test_curve_screen_refuses_a_curve_or_point_over_q_of_m():
    # refused as a domain error, not a TypeError from Fraction(RatFunc)
    with pytest.raises(DomainError, match="over Q"):
        ec.infinite_order_screen(ec.ecweier(), ec.point_P())
    # (3, 5) on Y^2 = X^3 - 2, written as constants of Q(m)
    point = ec.ECPoint(RatFunc(Poly.const(3)), RatFunc(Poly.const(5)))
    with pytest.raises(DomainError, match="over Q"):
        ec.infinite_order_screen(ec.WeierstrassModel(0, -2), point)
    assert ec.infinite_order_screen(ec.WeierstrassModel(0, -2), ec.ECPoint(3, 5)) is True


def test_specializing_a_curve_or_point_over_q_is_refused():
    # refused as a domain error, not an AttributeError from Fraction.evaluate
    with pytest.raises(DomainError, match="Poly or RatFunc"):
        ec.specialize_curve(ec.WeierstrassModel(1, 1), 2)
    with pytest.raises(DomainError, match="Poly or RatFunc"):
        ec.specialize_point(ec.ECPoint(0, 1), 2)
    assert ec.specialize_point(ec.ECPoint.identity(), 2).is_identity


# entry points that take polynomials only, or (polynomialize_roots and
# solution_family_polys) rational functions, with each argument replaced
POLY_ENTRIES = [
    ("poly_gcd a", lambda x: poly_gcd(x, m)),
    ("poly_gcd b", lambda x: poly_gcd(m, x)),
    ("poly_sqrt", poly_sqrt),
    ("squarefree_decomposition", squarefree_decomposition),
    ("largest_square_root_divisor", largest_square_root_divisor),
    ("poly_divide_exact a", lambda x: poly_divide_exact(x, m)),
    ("poly_divide_exact b", lambda x: poly_divide_exact(m, x)),
    ("substitute", lambda x: substitute(x, {"m": 2})),
    ("line_u_triple N", lambda x: line_u_triple(x, m + 1)),
    ("line_u_triple D", lambda x: line_u_triple(m, x)),
    ("canonical_triple", lambda x: canonical_triple((x, x, x))),
    ("square_witnesses", lambda x: square_witnesses(x, x, x)),
    ("polynomialize_roots", lambda x: polynomialize_roots((x, x, x))),
    ("solution_family_polys", solution_family_polys),
]


@pytest.mark.parametrize("x", [2, Fraction(1, 2), RatFunc(m, m + 1), None], ids=repr)
def test_polynomial_entries_refuse_other_types(x):
    # these raised AttributeError ('int' object has no attribute 'is_zero',
    # 'RatFunc' object has no attribute 'vars') or TypeError
    problems = []
    for name, call in POLY_ENTRIES:
        try:
            call(x)
        except DomainError:
            pass
        except Exception as exc:
            problems.append("%s(%r) gave %r" % (name, x, exc))
    assert problems == []


# entry points given something other than a Triad, a ParametricFamily, a
# parameter sequence or a triple of three members; these raised
# AttributeError or TypeError, or returned a tuple of the wrong length
SHAPE_ENTRIES = [
    ("verify_triad", lambda: verify_triad((80, 225, 320))),
    ("canonicalize", lambda: canonicalize((80, 225, 320))),
    ("family_to_json", lambda: family_to_json(3)),
    ("verify_family_symbolic", lambda: verify_family_symbolic("parmsol1")),
    ("evaluate_family", lambda: evaluate_family("parmsol1", 5)),
    ("canonical_triple ()", lambda: canonical_triple(())),
    ("canonical_triple (s,)", lambda: canonical_triple((s,))),
    ("strip_common_squares (s,)", lambda: strip_common_squares((s,))),
    ("polynomialize_roots ()", lambda: polynomialize_roots(())),
    ("polynomialize_roots 2", lambda: polynomialize_roots(2)),
    ("polynomialize_roots (s,)", lambda: polynomialize_roots((RatFunc(s),))),
    ("square_classification ()", lambda: square_classification(())),
]


@pytest.mark.parametrize("name, call", SHAPE_ENTRIES, ids=[name for name, _ in SHAPE_ENTRIES])
def test_entries_refuse_a_wrong_shape(name, call):
    with pytest.raises(DomainError):
        call()


def test_solution_family_polys_takes_a_poly_u():
    # s has weight 1, so it gets past the weight check to the model check
    with pytest.raises(DomainError, match="discriminant"):
        solution_family_polys(s)
