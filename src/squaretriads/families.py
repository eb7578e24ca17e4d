"""Registry of closed-form parametric families and their construction pipelines.

The registry polynomials are transcribed displays, not re-derived; the
derivation pipelines elsewhere in the package are tested against them.
Every family, registered or constructed, is built by make_family, which
computes its polynomial square-witnesses (f, g, h) for the three elementary
symmetric functions and its classification by how many members are
themselves polynomial squares; the family also names the parameter loci
excluded from evaluation.

The two-nonzero-squares construction is written once, over any exact
domain: the symbolic run takes it over Q(r, s) and the numeric run over Q.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ExcludedLocusError, VerificationError
from .exactnum import _integer
from .multipoly import (
    Poly,
    RatFunc,
    evaluate,
    poly_sqrt,
    substitute,
    var,
)
from .pipeline import _triple, polynomialize_roots, square_witnesses, strip_common_squares
from .quartic import ascend_constant_side, second_root_vieta
from .triads import (
    SquareCertificate,
    Triad,
    canonicalize,
    is_sum_two_rational_squares,
    quad_in_x,
    rational_to_integer_triad,
    verify_triad,
)

__all__ = [
    "ParametricFamily",
    "FamilyReport",
    "make_family",
    "registry",
    "get_family",
    "evaluate_family",
    "verify_family_symbolic",
    "square_classification",
    "pythagorean_substitute",
    "gensol1_pipeline",
    "gensol1_steps",
    "second_u_family",
    "family_to_json",
]

ONE_SQUARE = "one-square"
ALL_SQUARES = "all-squares"
NO_SQUARES = "no-squares"


@dataclass(frozen=True)
class ParametricFamily:
    """A polynomial solution triple in named parameters, with square witnesses."""

    name: str
    params: tuple[str, ...]
    a: Poly
    b: Poly
    c: Poly
    witnesses: tuple[Poly, Poly, Poly]
    constraints: tuple[Poly, ...]
    classification: str
    paper_eq: str

    def members(self) -> tuple[Poly, Poly, Poly]:
        return (self.a, self.b, self.c)


def _require_family(fam) -> None:
    if not isinstance(fam, ParametricFamily):
        raise DomainError("expected a ParametricFamily, not %r" % (fam,))


_CLASS_BY_SQUARES = {3: ALL_SQUARES, 1: ONE_SQUARE, 0: NO_SQUARES}


def square_classification(members) -> tuple[int, str]:
    """(number of members that are polynomial squares, classification).

    Exactly two square members is an internal error: the product of the
    members is a square, so two square members force the third to be one.
    """
    squares = sum(1 for mp in _triple(members) if poly_sqrt(mp) is not None)
    if squares not in _CLASS_BY_SQUARES:
        raise VerificationError("unexpected number of square members: %d" % squares)
    return squares, _CLASS_BY_SQUARES[squares]


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of the symbolic verification of one family."""

    name: str
    ok: bool
    square_members: int
    classification_ok: bool
    messages: tuple[str, ...]


def make_family(name, params, members, constraints, paper_eq) -> ParametricFamily:
    """The family with these members, its square witnesses and its classification."""
    a, b, c = members
    witnesses = square_witnesses(a, b, c)
    _, classification = square_classification(members)
    return ParametricFamily(
        name=name,
        params=params,
        a=a,
        b=b,
        c=c,
        witnesses=witnesses,
        constraints=tuple(constraints),
        classification=classification,
        paper_eq=paper_eq,
    )


@lru_cache(maxsize=1)
def registry() -> tuple[ParametricFamily, ...]:
    """All ten closed-form families, in a fixed order."""
    s, t = var("s"), var("t")
    m, n = var("m"), var("n")
    r = var("r")

    A6 = s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6
    B6 = 3 * s**6 + s**4 * t**2 + s**2 * t**4 - t**6
    Q4 = m**4 - 6 * m**2 * n**2 + n**4
    P12 = (
        m**12 - 26 * m**10 * n**2 + 79 * m**8 * n**4 - 44 * m**6 * n**6
        + 79 * m**4 * n**8 - 26 * m**2 * n**10 + n**12
    )
    Q12 = (
        m**12 - 10 * m**10 * n**2 + 15 * m**8 * n**4 - 204 * m**6 * n**6
        + 15 * m**4 * n**8 - 10 * m**2 * n**10 + n**12
    )
    D6 = 5 * r**6 + 3 * r**4 * s**2 + 3 * r**2 * s**4 + s**6
    E8 = r**8 + 2 * r**6 * s**2 - 12 * r**4 * s**4 - 6 * r**2 * s**6 - s**8
    G12 = (
        r**12 + 6 * r**10 * s**2 + 87 * r**8 * s**4 + 108 * r**6 * s**6
        + 55 * r**4 * s**8 + 14 * r**2 * s**10 + s**12
    )
    tt = var("t")

    fams = (
        make_family(
            "parmsol1",
            ("s", "t"),
            (
                t**2 * (s**2 - t**2) ** 2 * (s**2 + t**2),
                s**2 * (s**2 - t**2) ** 2 * (s**2 + t**2),
                4 * s**4 * t**4,
            ),
            (s, t, s**2 - t**2),
            "quartic ascent, constant side",
        ),
        make_family(
            "parmsol2",
            ("s", "t"),
            (
                4 * s**4 * t**2 * (s**2 + t**2),
                4 * s**2 * t**4 * (s**2 + t**2),
                (s**4 - t**4) ** 2,
            ),
            (s, t, s**2 - t**2),
            "quartic ascent, leading side (Fauquembergue 1899)",
        ),
        make_family(
            "parmsol3",
            ("s", "t"),
            (
                4 * s**4 * t**2 * (s**2 + t**2) * A6**2,
                (s**4 - t**4) ** 2 * A6**2,
                4 * s**2 * t**4 * (s**2 + t**2) * B6**2,
            ),
            (s, t, s**2 - t**2, A6),
            "composition of the trivial point with ascent branch 1",
        ),
        make_family(
            "parmsol4",
            ("s", "t"),
            (
                t**2 * (s**2 - t**2) ** 2 * (s**2 + t**2) * B6**2,
                4 * s**4 * t**4 * B6**2,
                s**2 * (s**2 - t**2) ** 2 * (s**2 + t**2) * A6**2,
            ),
            (s, t, s**2 - t**2, B6),
            "composition of the trivial point with ascent branch 2",
        ),
        make_family(
            "allsq1",
            ("m", "n"),
            (
                (m**4 - n**4) ** 2 * Q4**2,
                4 * m**2 * n**2 * (m**2 + n**2) ** 2 * Q4**2,
                64 * m**4 * n**4 * (m**2 - n**2) ** 4,
            ),
            (m, n, m**2 - n**2),
            "Pythagorean specialization of parmsol1",
        ),
        make_family(
            "allsq2",
            ("m", "n"),
            (
                64 * m**4 * n**4 * (m**2 - n**2) ** 2,
                16 * m**2 * n**2 * (m**2 - n**2) ** 4,
                (m**2 + n**2) ** 2 * Q4**2,
            ),
            (m, n, m**2 - n**2),
            "Pythagorean specialization of parmsol2",
        ),
        make_family(
            "allsq3",
            ("m", "n"),
            (
                64 * m**4 * n**4 * (m**2 - n**2) ** 2 * P12**2,
                (m**2 + n**2) ** 2 * Q4**2 * P12**2,
                16 * m**2 * n**2 * (m**2 - n**2) ** 4 * Q12**2,
            ),
            (m, n, m**2 - n**2, P12),
            "Pythagorean specialization of parmsol3",
        ),
        make_family(
            "allsq4",
            ("m", "n"),
            (
                (m**4 - n**4) ** 2 * Q4**2 * Q12**2,
                64 * m**4 * n**4 * (m**2 - n**2) ** 4 * Q12**2,
                4 * m**2 * n**2 * (m**2 + n**2) ** 2 * Q4**2 * P12**2,
            ),
            (m, n, m**2 - n**2, Q12),
            "Pythagorean specialization of parmsol4",
        ),
        make_family(
            "gensol1",
            ("r", "s"),
            (
                r**2 * (r**2 + s**2) * E8**2 * G12,
                s**2 * (r**2 + s**2) * D6**2 * E8**2,
                4 * r**4 * s**4 * D6**2 * G12,
            ),
            (r, s, E8),
            "two-nonzero-squares pipeline",
        ),
        make_family(
            "euler1779",
            ("t",),
            (
                (tt - 1) ** 2 * (tt + 1) ** 2 * (tt**2 + 5) ** 2 * (tt**4 - 10 * tt**2 + 5) ** 2,
                256 * tt**4 * (tt - 1) ** 2 * (tt + 1) ** 2 * (tt**2 - 3) ** 2,
                4 * tt**2 * (tt**2 - 3) ** 2 * (tt**4 - 10 * tt**2 + 5) ** 2,
            ),
            (tt, tt**2 - 1),
            "Euler's 1779 all-squares family",
        ),
    )
    return fams


def get_family(name: str) -> ParametricFamily:
    for fam in registry():
        if fam.name == name:
            return fam
    raise DomainError("unknown family %r" % name)


def evaluate_family(name: str, point) -> tuple[Triad, SquareCertificate]:
    """Evaluate a family at integer parameters; canonicalized triad + certificate.

    point is a mapping {param: int} or a sequence matching the family's
    parameter order.  A parameter that is a bool or not of an integer type
    (numpy ints are accepted) raises DomainError before anything is
    evaluated; parameters on an excluded locus are rejected.
    """
    fam = get_family(name)
    if not isinstance(point, Mapping):
        try:
            values = list(point)
        except TypeError:
            raise DomainError("family parameters must be a mapping or a sequence, not %r" % (point,)) from None
        if len(values) != len(fam.params):
            raise DomainError(
                "family %s expects %d parameters, got %d" % (name, len(fam.params), len(values))
            )
        point = dict(zip(fam.params, values))
    ints = {}
    for p in fam.params:
        if p not in point:
            raise DomainError("missing parameter %r" % p)
        ints[p] = _integer(point[p], "family parameter %s must be an integer, not %%r" % p)
    point = ints
    for cons in fam.constraints:
        if evaluate(cons, point) == 0:
            raise ExcludedLocusError(
                "parameters %s lie on the excluded locus %s = 0" % (dict(point), cons)
            )
    members = []
    for mp in fam.members():
        val = evaluate(mp, point)
        if val.denominator != 1 or val <= 0:
            raise ExcludedLocusError("member value %s is not a positive integer" % val)
        members.append(int(val))
    triad = canonicalize(Triad(*members))
    cert = verify_triad(triad)
    if cert is None:
        raise VerificationError("family %s failed verification at %s" % (name, dict(point)))
    return triad, cert


def _sample_points(fam: ParametricFamily, count: int):
    """Deterministic in-domain integer sample points for numeric spot checks."""
    out = []
    k = 1
    while len(out) < count:
        k += 1
        for a in range(1, k + 1):
            b = k + 1 - a
            point = dict(zip(fam.params, (a, b) if len(fam.params) == 2 else (a + b,)))
            if any(evaluate(c, point) == 0 for c in fam.constraints):
                continue
            if point not in out:
                out.append(point)
            if len(out) == count:
                break
    return out


def verify_family_symbolic(fam: ParametricFamily) -> FamilyReport:
    """Check the (f, g, h) witness identities and the family's classification.

    The witnesses must square exactly to the three symmetric functions.
    Classification counts members that are polynomial squares (3, exactly
    1, or 0; 2 raises VerificationError); no-squares families additionally
    get numeric two-rational-squares spot checks at ten in-domain points.
    """
    _require_family(fam)
    msgs = []
    ok = True
    a, b, c = fam.members()
    f, g, h = fam.witnesses
    for w, val, label in ((f, a + b + c, "sum"), (g, a * b + b * c + c * a, "pairwise sum"), (h, a * b * c, "product")):
        if w * w != val:
            ok = False
            msgs.append("witness for %s does not square to it" % label)
    squares, found = square_classification(fam.members())
    cls_ok = found == fam.classification
    if not cls_ok:
        msgs.append("classified %s, but %d members are squares" % (fam.classification, squares))
    if fam.classification == NO_SQUARES and cls_ok:
        for point in _sample_points(fam, 10):
            for mp in fam.members():
                val = evaluate(mp, point)
                if val <= 0 or is_sum_two_rational_squares(val) is None:
                    cls_ok = False
                    msgs.append("member not a sum of two rational squares at %s" % point)
                    break
            if not cls_ok:
                break
    return FamilyReport(fam.name, ok and cls_ok, squares, cls_ok, tuple(msgs))


_PYTHAGOREAN_TARGET = {
    "parmsol1": "allsq1",
    "parmsol2": "allsq2",
    "parmsol3": "allsq3",
    "parmsol4": "allsq4",
}


def pythagorean_substitute(name: str) -> ParametricFamily:
    """Specialize a one-square family so that s^2 + t^2 becomes a square.

    Substitutes s = 2mn, t = m^2 - n^2 (so s^2 + t^2 = (m^2 + n^2)^2),
    then strips common square factors.  The result matches the registered
    all-squares family with the same index, slot by slot.
    """
    if name not in _PYTHAGOREAN_TARGET:
        raise DomainError("pythagorean_substitute applies to parmsol1..parmsol4")
    fam = get_family(name)
    m, n = var("m"), var("n")
    binding = {"s": 2 * m * n, "t": m**2 - n**2}
    members = tuple(substitute(mp, binding) for mp in fam.members())
    members = strip_common_squares(members)
    target = get_family(_PYTHAGOREAN_TARGET[name])
    return make_family(target.name, ("m", "n"), members, target.constraints, target.paper_eq)


# ---------------------------------------------------------------------------
# The two-nonzero-squares pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSquaresPipelineSteps:
    """Intermediate values of the construction, for inspection and tests."""

    x_known: RatFunc
    t_value: RatFunc
    u_first: RatFunc
    u_second: RatFunc
    x_second: RatFunc
    family: ParametricFamily


def _two_squares_roots(R, S, second_root: bool):
    """The construction at (r, s) = (R, S) over any exact domain.

    Returns (x0, t, u_first, u_second, x2), where x2 comes from the u-root
    chosen by second_root; (S^2 + t^2, x0, x2) is the rational root triple.
    """
    x0 = S * S * (R * R + S * S) / (R * R)
    # psi(s, t, x0) = c4 t^4 + c2 t^2 + c0 is a square at t = r; shift the
    # anchor to the constant term and apply one Fermat step.
    c4 = x0 * (S * S - x0)
    c2 = 2 * S**4 * x0
    c0 = S * S * x0 * (S**4 + S * S * x0 + x0 * x0)
    d0 = c4 * R**4 + c2 * R * R + c0
    d1 = 4 * c4 * R**3 + 2 * c2 * R
    d2 = 6 * c4 * R * R + c2
    d3 = 4 * c4 * R
    tau, v = ascend_constant_side(c4, d3, d2, d1, d0)
    t_val = R + tau
    # The quadratic in u at x = x0.  Its discriminant is 4 t^2 psi = (2 t v)^2,
    # and the other root follows by Vieta.
    norm = S * S + t_val * t_val
    A = t_val * t_val * norm - S * S * x0
    B = 2 * S * x0 * norm
    C = x0 * (t_val * t_val * x0 - S * S * norm)
    u_first = -(B + 2 * t_val * v) / (2 * A)
    u_second = C / (A * u_first)
    # second x-root by Vieta on the x-quadratic
    Ax, Bx, Cx = quad_in_x(S, t_val, u_second if second_root else u_first)
    x2 = second_root_vieta(Ax, Bx, Cx, x0)
    return x0, t_val, u_first, u_second, x2


@lru_cache(maxsize=2)
def _two_squares_chain(second_root: bool) -> TwoSquaresPipelineSteps:
    r, s = var("r"), var("s")
    S = RatFunc(s)
    x0, t_val, u_first, u_second, x2 = _two_squares_roots(RatFunc(r), S, second_root)
    members = polynomialize_roots((S * S + t_val * t_val, x0, x2))
    if second_root:
        name, paper_eq = "gensol2", "two-nonzero-squares pipeline, second u-root"
    else:
        name, paper_eq = "gensol1", "two-nonzero-squares pipeline"
    fam = make_family(name, ("r", "s"), members, (r, s, r**2 + s**2), paper_eq)
    return TwoSquaresPipelineSteps(
        x_known=x0,
        t_value=t_val,
        u_first=u_first,
        u_second=u_second,
        x_second=x2,
        family=fam,
    )


def gensol1_steps() -> TwoSquaresPipelineSteps:
    """Symbolic intermediates of the two-nonzero-squares construction."""
    return _two_squares_chain(False)


def gensol1_pipeline(r_val: int, s_val: int) -> tuple[Triad, SquareCertificate]:
    """Run the construction numerically at integer (r, s).

    Returns the canonicalized (Triad, SquareCertificate) built through the
    steps of the symbolic run (`gensol1_steps`).
    """
    r_val = _integer(r_val, "gensol1_pipeline requires an integer r, not %r")
    s_val = _integer(s_val, "gensol1_pipeline requires an integer s, not %r")
    if r_val == 0 or s_val == 0:
        raise ExcludedLocusError("r and s must be nonzero")
    # The anchor root e = s^3 (r^2+s^2)^2 / r^3 is positive on the positive
    # quadrant, in Q as in Q(r, s), so at (|r|, |s|) the chain takes the
    # symbolic run's branch; the triple (s^2+t^2, x0, x2) is even in r and
    # in s, so it is the family's value at (r, s) as well.
    S = Fraction(abs(s_val))
    x0, t_val, _, _, x2 = _two_squares_roots(Fraction(abs(r_val)), S, False)
    triad = rational_to_integer_triad(S * S + t_val * t_val, x0, x2)
    cert = verify_triad(triad)
    if cert is None:
        raise VerificationError("pipeline triad failed verification")
    return triad, cert


def second_u_family() -> ParametricFamily:
    """The companion family from the other root of the u-quadratic."""
    return _two_squares_chain(True).family


def family_to_json(fam: ParametricFamily) -> dict:
    """JSON-ready description with canonical polynomial text."""
    _require_family(fam)
    f, g, h = fam.witnesses
    return {
        "name": fam.name,
        "params": list(fam.params),
        "a": fam.a.render(),
        "b": fam.b.render(),
        "c": fam.c.render(),
        "f": f.render(),
        "g": g.render(),
        "h": h.render(),
        "classification": fam.classification,
        "paper_eq": fam.paper_eq,
    }
