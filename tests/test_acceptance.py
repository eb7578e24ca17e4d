"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact arithmetic, so "tolerance" means exact equality;
criteria with stated runtime budgets assert wall-clock time as well.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import random
import time
from fractions import Fraction

from squaretriads import ecurve as ec
from squaretriads import families as fam
from squaretriads import search as sr
from squaretriads.errors import ExcludedLocusError
from squaretriads.multipoly import (
    Poly,
    RatFunc,
    const,
    evaluate,
    poly_divide_exact,
    poly_sqrt,
    substitute,
    var,
)
from squaretriads.pipeline import canonical_triple, solution_family_polys
from squaretriads.quartic import QuarticPoint, choudhry_compose, euler_quartic, fermat_ascend
from squaretriads.triads import (
    CubicSpec,
    Triad,
    canonicalize,
    is_sum_two_rational_squares,
    rational_roots_cubic,
    verify_triad,
)

s, t, r = var("s"), var("t"), var("r")
S, T = RatFunc(s), RatFunc(t)
A6 = s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6
B6 = 3 * s**6 + s**4 * t**2 + s**2 * t**4 - t**6


def _report(num: int, label: str, ok: bool, elapsed: float) -> None:
    print("ACCEPTANCE %02d %-38s %s (%.2f s)" % (num, label, "PASS" if ok else "FAIL", elapsed))
    assert ok, "criterion %d (%s) failed" % (num, label)


def test_criterion_01_table1_regression():
    t0 = time.perf_counter()
    report = sr.reproduce_table1()
    ok = report.ok and len(report.rows) == 21 and report.elapsed < 1.0
    _report(1, "Table regression (21 rows, <1s)", ok, time.perf_counter() - t0)


def test_criterion_02_corpus_verification():
    t0 = time.perf_counter()
    report = sr.verify_corpus()
    certified = {members for members, cert in report.entries if cert is not None}
    ok = (
        report.ok
        and report.elapsed < 1.0
        and (81, 784, 186624) in certified
        and (80, 225, 320) in certified
        and (252782198228, 1633780814400, 3474741058973) in certified
    )
    _report(2, "historical corpus certified (<1s)", ok, time.perf_counter() - t0)


def test_criterion_03_search_completeness():
    t0 = time.perf_counter()
    results = sr.search_triads(sr.SearchConfig(10_000, primitive_only=True))
    members = [triad.members() for triad, _ in results]
    seven = [
        (45, 64, 180),
        (81, 160, 1440),
        (1300, 2925, 5184),
        (80, 225, 320),
        (90, 810, 1600),
        (1225, 5184, 9216),
        (72, 136, 153),
    ]
    ok = all(tuple(sorted(x)) in members for x in seven)
    for triad, cert in results:
        ok = ok and verify_triad(triad) == cert
    pruned = [x.members() for x, _ in sr.search_triads(sr.SearchConfig(500))]
    naive = [x.members() for x in sr.naive_search(500)]
    ok = ok and pruned == naive
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 180.0
    _report(3, "search to 1e4 + naive oracle at 500", ok, elapsed)


def test_criterion_04_symbolic_family_verification():
    t0 = time.perf_counter()
    ok = True
    for f in fam.registry():
        ok = ok and fam.verify_family_symbolic(f).ok
    ok = ok and fam.get_family("parmsol1").witnesses[0] == s**4 + t**4
    ok = ok and fam.get_family("parmsol2").witnesses[0] == (s**2 + t**2) ** 2
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(4, "10 families verify symbolically (<30s)", ok, elapsed)


def test_criterion_05_fermat_ascent_branches():
    t0 = time.perf_counter()
    q = euler_quartic(S, T)
    p_const = fermat_ascend(q, "constant")
    p_lead = fermat_ascend(q, "leading")
    v14_mag = RatFunc(s**6 - s**4 * t**2 - 5 * s**2 * t**4 + t**6, (s**2 - t**2) ** 2)
    ok = p_const.u == RatFunc(2 * s**3, s**2 - t**2)
    ok = ok and p_const.v in (v14_mag, -v14_mag) and q.contains(p_const)
    ok = ok and p_lead.u == RatFunc(s**4 - t**4, 2 * s**3)
    ok = ok and p_lead.v == RatFunc((s**2 + t**2) * A6, 4 * s**6)
    _report(5, "ascent reproduces both closed forms", ok, time.perf_counter() - t0)


def test_criterion_06_composition_and_composed_families():
    t0 = time.perf_counter()
    q = euler_quartic(S, T)
    anchor = QuarticPoint(RatFunc(Poly.zero()), RatFunc(s**2 + t**2))
    pt14 = QuarticPoint(
        RatFunc(2 * s**3, s**2 - t**2),
        RatFunc(-A6, (s**2 - t**2) ** 2),
    )
    pt15 = QuarticPoint(RatFunc(s**4 - t**4, 2 * s**3), RatFunc((s**2 + t**2) * A6, 4 * s**6))
    u19 = choudhry_compose(q, anchor, pt14).u
    u21 = choudhry_compose(q, anchor, pt15).u
    ok = u19 == RatFunc((s**4 - t**4) * B6, 2 * s**3 * A6)
    ok = ok and u21 == RatFunc(2 * s**3 * A6, B6 * (s**2 - t**2))
    fam20 = solution_family_polys(u19)
    fam22 = solution_family_polys(u21)
    ok = ok and fam20 == canonical_triple(
        (
            4 * s**4 * t**2 * (s**2 + t**2) * A6**2,
            (s**4 - t**4) ** 2 * A6**2,
            4 * s**2 * t**4 * (s**2 + t**2) * B6**2,
        )
    )
    ok = ok and fam22 == canonical_triple(
        (
            t**2 * (s**2 - t**2) ** 2 * (s**2 + t**2) * B6**2,
            4 * s**4 * t**4 * B6**2,
            s**2 * (s**2 - t**2) ** 2 * (s**2 + t**2) * A6**2,
        )
    )
    _report(6, "composition + composed families", ok, time.perf_counter() - t0)


def test_criterion_07_elliptic_machinery():
    t0 = time.perf_counter()
    # substitution carries the (u, v) model to the (U, V) model (up to s^4)
    Uv, Vv, mm = var("U"), var("V"), var("m")
    q = euler_quartic(S, T)
    relation = RatFunc(var("v") ** 2) - q.rhs(RatFunc(var("u")))
    image = relation.substitute(
        {"t": RatFunc(mm * s), "u": RatFunc(s) * RatFunc(Uv), "v": RatFunc(s**2) * RatFunc(Vv)}
    )
    from squaretriads.quartic import phi

    target = RatFunc(Vv**2) - phi(1, RatFunc(mm), RatFunc(Uv))
    ok = image / target == RatFunc(s**4)
    # mutual inverses, symbolically modulo the curve relation
    ok = ok and ec.roundtrip_identity_xy() and ec.roundtrip_identity_uv()
    # plus 20 random specializations
    E, P = ec.ecweier(), ec.point_P()
    rng = random.Random(77)
    done = 0
    while done < 20:
        mv = Fraction(rng.randint(2, 60), rng.randint(1, 5))
        try:
            Pm = ec.specialize_point(P, mv)
            U, V = ec.xy_to_quartic(Pm.x, Pm.y, mv)
            back = ec.quartic_to_xy(U, V, mv)
        except Exception:
            continue
        ok = ok and back == (Pm.x, Pm.y)
        done += 1
    # P on the curve; m = 4 specialization; infinite-order screen
    ok = ok and E.contains(P)
    E4 = ec.specialize_curve(E, Fraction(4))
    P4 = ec.specialize_point(P, Fraction(4))
    ok = ok and (E4.A, E4.B) == (-27716256, -56159127360)
    ok = ok and (P4.x, P4.y) == (Fraction(-12087, 4), Fraction(7803, 8))
    ok = ok and ec.infinite_order_screen(E4, P4) is True
    _report(7, "birational + curve machinery", ok, time.perf_counter() - t0)


def test_criterion_08_infinite_family_generator():
    t0 = time.perf_counter()
    ok = True
    fam1 = ec.generate_family(1)
    ok = ok and set(fam1.members()) == set(fam.get_family("parmsol1").members())
    for k in (1, 2, 3):
        fk = ec.generate_family(k)
        ok = ok and fam.verify_family_symbolic(fk).ok
    _report(8, "generator families k = 1, 2, 3", ok, time.perf_counter() - t0)


def test_criterion_09_two_nonzero_squares_pipeline():
    t0 = time.perf_counter()
    steps = fam.gensol1_steps()
    D6 = 5 * r**6 + 3 * r**4 * s**2 + 3 * r**2 * s**4 + s**6
    E8 = r**8 + 2 * r**6 * s**2 - 12 * r**4 * s**4 - 6 * r**2 * s**6 - s**8
    G12 = (
        r**12 + 6 * r**10 * s**2 + 87 * r**8 * s**4 + 108 * r**6 * s**6
        + 55 * r**4 * s**8 + 14 * r**2 * s**10 + s**12
    )
    ok = steps.t_value == RatFunc(r * (r**6 - 9 * r**4 * s**2 - 9 * r**2 * s**4 - 3 * s**6), D6)
    ok = ok and steps.u_first == RatFunc(2 * s**3 * D6, E8)
    ok = ok and steps.x_second == RatFunc(4 * r**2 * s**4 * G12, E8**2)
    ok = ok and set(steps.family.members()) == set(fam.get_family("gensol1").members())
    triad, _ = fam.gensol1_pipeline(1, 1)
    ok = ok and triad.members() == (72, 136, 153)
    second = fam.second_u_family()
    ok = ok and {mp.total_degree() for mp in second.members()} == {52}
    ok = ok and fam.verify_family_symbolic(second).ok
    _report(9, "two-nonzero-squares pipeline", ok, time.perf_counter() - t0)


def test_criterion_10_two_squares_law():
    t0 = time.perf_counter()
    ok = True
    for members in sr.CORPUS_TRIADS + tuple(row[2] for row in sr.TABLE1_ROWS):
        for x in members:
            witness = is_sum_two_rational_squares(Fraction(x))
            ok = ok and witness is not None and witness.p**2 + witness.q**2 == x
    rng = random.Random(99)
    for f in fam.registry():
        done = 0
        while done < 25:
            point = {p: rng.randint(1, 6) for p in f.params}
            try:
                triad, _ = fam.evaluate_family(f.name, point)
            except ExcludedLocusError:
                continue
            for x in triad.members():
                witness = is_sum_two_rational_squares(Fraction(x))
                ok = ok and witness is not None and witness.p**2 + witness.q**2 == x
            done += 1
    _report(10, "two-squares law on corpus + samples", ok, time.perf_counter() - t0)


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(123)
    ok = True
    # scaling invariance of verification
    for _ in range(20):
        k = rng.randint(1, 40)
        base = Triad(45, 64, 180)
        scaled = Triad(base.a * k * k, base.b * k * k, base.c * k * k)
        ok = ok and verify_triad(scaled) is not None and canonicalize(scaled) == base
    # certificate -> cubic -> roots round trip across the table corpus
    for _, _, members in sr.TABLE1_ROWS:
        triad = Triad(*sorted(members))
        cert = verify_triad(triad)
        roots = rational_roots_cubic(CubicSpec(cert.f, cert.g, cert.h))
        ok = ok and roots == sorted(Fraction(x) for x in triad.members())
    # pruned vs naive equivalence (small bound; criterion 3 covers 500)
    ok = ok and [x.members() for x, _ in sr.search_triads(sr.SearchConfig(250))] == [
        x.members() for x in sr.naive_search(250)
    ]

    # randomized polynomial identities
    def randpoly(names=("s", "t"), deg=4, terms=4):
        p = Poly.zero()
        for _ in range(terms):
            mono = const(rng.randint(-5, 5))
            for name in names:
                mono = mono * var(name) ** rng.randint(0, deg)
            p = p + mono
        return p

    for _ in range(100):
        a, b = randpoly(), randpoly()
        if not b.is_zero:
            ok = ok and poly_divide_exact(a * b, b) == a
        if not a.is_zero:
            root = poly_sqrt(a * a)
            ok = ok and root is not None and root * root == a * a
    for _ in range(40):
        p = randpoly(deg=3, terms=4)
        sigma = {"s": randpoly(deg=2, terms=3), "t": randpoly(deg=2, terms=3)}
        tau = {"s": Fraction(rng.randint(-4, 4)), "t": Fraction(rng.randint(-4, 4))}
        ok = ok and evaluate(substitute(p, sigma), tau) == evaluate(
            p, {k2: evaluate(v2, tau) for k2, v2 in sigma.items()}
        )
    _report(11, "property suites", ok, time.perf_counter() - t0)
