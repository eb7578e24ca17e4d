"""The benchmark's workloads: fixed or seeded inputs, one timed operation,
and output oracles that use plain integer arithmetic where they can.

Every workload is a closed loop with a single client: the next operation
starts only when the previous one has returned, because every caller of
squaretriads waits for its answer.

The library is called through module attributes (`search.search_triads`,
never a name imported into this file), so that the tracer's wrappers see
the benchmark's own calls too.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from squaretriads import ecurve, families, multipoly, quartic, search, triads
from squaretriads.errors import CompositionError

EXPECTED_TRIADS = Path(__file__).resolve().parent / "expected_triads.json"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_certificate(members, cert) -> None:
    """f^2 = a+b+c, g^2 = ab+bc+ca, h^2 = abc, in plain integers."""
    a, b, c = members
    f, g, h = cert.f, cert.g, cert.h
    if not (f * f == a + b + c and g * g == a * b + b * c + c * a and h * h == a * b * c):
        raise CheckFailed("certificate %s does not certify %s" % ((cert.f, cert.g, cert.h), members))


def check_two_squares(x: int, witness) -> None:
    """p^2 + q^2 = x for rational p = pn/pd, q = qn/qd, cleared to integers."""
    if witness is None:
        raise CheckFailed("no two-squares witness for triad member %d" % x)
    pn, pd = witness.p.numerator, witness.p.denominator
    qn, qd = witness.q.numerator, witness.q.denominator
    if pn * pn * qd * qd + qn * qn * pd * pd != x * pd * pd * qd * qd:
        raise CheckFailed("(%s)^2 + (%s)^2 != %d" % (witness.p, witness.q, x))


def poly_size(polys) -> dict[str, int]:
    """Exact output-size counts of a list of polynomials."""
    degree = terms = bits = 0
    for p in polys:
        degree += p.total_degree()
        terms += len(p.terms)
        for c in p.terms.values():
            c = Fraction(c)
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"degree_sum": degree, "terms_sum": terms, "coeff_bits_max": bits}


class Workload:
    """Defaults: each operation is its own unit, traced once, with no counts."""

    min_ops = 3
    has_rounds = False

    def setup(self) -> None:
        pass

    def at_boundary(self) -> bool:
        """Whether a run may stop after the operation just made."""
        return True

    def trace_ops(self):
        return [self.next_op()]

    def layer_metrics(self, results) -> dict[str, int]:
        return {}


class Search(Workload):
    """search_triads at a fixed bound; nearly all time is the per-candidate loop."""

    name = "search"
    why = (
        "serial search to 5000: per-candidate loop in search and exactnum.is_perfect_square; "
        "a vectorized kernel should cut is_perfect_square calls and op_p50_ms here "
        "and leave generate and certify flat"
    )
    # 5000 rather than 6000 fits six or seven searches in a 20 s run, so
    # the run's median holds still on a shared machine
    BOUND = 5000
    WORKERS = 1
    ORACLE_BOUND = 300

    def __init__(self, seed: int):
        # the inputs are fixed; the seed is only recorded with the result
        self.inputs = {"bound": self.BOUND, "workers": self.WORKERS, "oracle_bound": self.ORACLE_BOUND}
        self.expected: list[tuple[int, int, int]] = []

    def setup(self) -> None:
        pruned = [t.members() for t, _ in search.search_triads(search.SearchConfig(self.ORACLE_BOUND))]
        naive = [t.members() for t in search.naive_search(self.ORACLE_BOUND)]
        if pruned != naive:
            raise CheckFailed(
                "search_triads %s != naive_search %s at bound %d" % (pruned, naive, self.ORACLE_BOUND)
            )
        listed = [tuple(t) for t in json.loads(EXPECTED_TRIADS.read_text())]
        self.expected = [t for t in listed if t[2] <= self.BOUND]

    def next_op(self):
        return search.SearchConfig(self.BOUND, workers=self.WORKERS)

    def run(self, cfg):
        return search.search_triads(cfg)

    def check(self, cfg, result) -> None:
        got = [t.members() for t, _ in result]
        if got != self.expected:
            raise CheckFailed(
                "search at %d returned %d triads, expected the %d listed" % (cfg.bound, len(got), len(self.expected))
            )
        for t, cert in result:
            check_certificate(t.members(), cert)

    def layer_metrics(self, results) -> dict[str, int]:
        return {"search.triads_found": len(results[0])}


class SearchPar(Search):
    """The same search through the process pool with two workers."""

    name = "search-par"
    why = (
        "the same search with 2 worker processes: the only path through the pool, "
        "its chunking, per-chunk sieve and pickling; "
        "a shared sieve should raise pool utilization and cut op_p50_ms"
    )
    WORKERS = 2


class Generate(Workload):
    """Function-field families k = 1..8, the parametric quartic steps and the round trips."""

    name = "generate"
    why = (
        "generate_family(1..8), parametric ascent/composition, both round trips: "
        "gcd, poly_sqrt, exact division under ecurve; "
        "Brown gcd and dense Q(m) should cut op_p50_ms here, not on search"
    )
    K = tuple(range(1, 9))
    DEGREES = (8, 20, 40, 60, 92, 128, 172, 216)

    def __init__(self, seed: int):
        # the inputs are fixed; the seed is only recorded with the result
        self.inputs = {"k": [self.K[0], self.K[-1]], "quartic": "euler_quartic(s, t), both sides"}
        s, t = multipoly.var("s"), multipoly.var("t")
        self.S, self.T = multipoly.RatFunc(s), multipoly.RatFunc(t)
        self.anchor_v = multipoly.RatFunc(s * s + t * t)
        # closed forms of the two ascents (the paper's displayed u values)
        self.ascent_u = {
            "constant": multipoly.RatFunc(2 * s**3, s * s - t * t),
            "leading": multipoly.RatFunc(s**4 - t**4, 2 * s**3),
        }

    def next_op(self):
        return self.K

    def run(self, ks):
        fams = [ecurve.generate_family(k) for k in ks]
        q = quartic.euler_quartic(self.S, self.T)
        anchor = quartic.QuarticPoint(multipoly.RatFunc(multipoly.Poly.zero()), self.anchor_v)
        points = {}
        for side in ("constant", "leading"):
            pt = quartic.fermat_ascend(q, side)
            try:
                composed = quartic.choudhry_compose(q, anchor, pt)
            except CompositionError:
                # the composition degenerates for one sign of the square root
                composed = quartic.choudhry_compose(q, anchor, quartic.QuarticPoint(pt.u, -pt.v))
            points[side] = (pt, composed)
        roundtrips = (ecurve.roundtrip_identity_xy(), ecurve.roundtrip_identity_uv())
        return fams, q, points, roundtrips

    def check(self, ks, result) -> None:
        fams, q, points, roundtrips = result
        for k, fam in zip(ks, fams):
            degree = max(p.total_degree() for p in fam.members())
            if degree != self.DEGREES[k - 1]:
                raise CheckFailed("family k = %d has degree %d, expected %d" % (k, degree, self.DEGREES[k - 1]))
            report = families.verify_family_symbolic(fam)
            if not report.ok:
                raise CheckFailed("family k = %d fails symbolic verification: %s" % (k, report.messages))
        for side, (pt, composed) in points.items():
            if pt.u != self.ascent_u[side]:
                raise CheckFailed("%s-side ascent u = %s differs from the closed form" % (side, pt.u))
            if not (q.contains(pt) and q.contains(composed)):
                raise CheckFailed("%s-side ascent or composed point is off the quartic" % side)
        if roundtrips != (True, True):
            raise CheckFailed("round-trip identities returned %s" % (roundtrips,))

    def layer_metrics(self, results) -> dict[str, int]:
        fams = results[0][0]
        sizes = poly_size([p for fam in fams for p in fam.members()])
        return {"ecurve.generate_family." + key: value for key, value in sizes.items()}


class Certify(Workload):
    """A seeded stream of small certification requests, three kinds mixed evenly.

    PARAM_MAX bounds every parameter.  Members of `gensol1` at larger
    parameters carry two large primes, and factorize runs Brent rho on them
    with no budget: the slowest two-squares witness took 0.3 s at 16, 0.75 s
    at 20 and 1.9 s at 25.  At 16 those rho-bound requests are under one
    percent of the stream, so they set the tail and not the median.

    The stream is made of rounds.  A round holds every valid family point
    once as a `family` request and once as a `witness` request, and as many
    `quartic` requests, drawn from the (s, t) pairs in shuffled passes.  A
    run stops only between rounds, so every run sees the same slow requests
    and the tail measures the program rather than the draw.
    """

    name = "certify"
    why = (
        "seeded rounds of family, numeric-quartic and two-squares requests, "
        "params <= 16 so rho-bound factorizations (up to 0.3 s) stay in the tail; "
        "bounded rho should cut op_tail_ms here"
    )
    PARAM_MAX = 16
    KINDS = ("family", "quartic", "witness")
    TRACE_REQUESTS = 1500
    min_ops = 1
    has_rounds = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.inputs = {
            "param_max": self.PARAM_MAX,
            "kinds": list(self.KINDS),
            "mix": "one of each kind per block of three, block order seeded",
            "trace_requests": self.TRACE_REQUESTS,
        }
        self._decks: dict[str, list] = {}
        self._pending: list[str] = []
        self._issued = 0

    def setup(self) -> None:
        if not search.reproduce_table1().ok:
            raise CheckFailed("reproduce_table1() is not ok")
        if not search.verify_corpus().ok:
            raise CheckFailed("verify_corpus() is not ok")
        # The population of valid inputs: every in-range parameter point off
        # the excluded loci with positive members.  Each pass of a kind's
        # stream visits every point once, in a seeded order.
        points = []
        for fam in families.registry():
            for vals in itertools.product(range(1, self.PARAM_MAX + 1), repeat=len(fam.params)):
                if len(vals) == 2 and math.gcd(*vals) != 1:
                    continue
                point = dict(zip(fam.params, vals))
                if any(multipoly.evaluate(c, point) == 0 for c in fam.constraints):
                    continue
                if all(multipoly.evaluate(m, point) > 0 for m in fam.members()):
                    points.append((fam.name, vals))
        pairs = [
            (s, t)
            for s in range(1, self.PARAM_MAX + 1)
            for t in range(1, self.PARAM_MAX + 1)
            if s != t and math.gcd(s, t) == 1
        ]
        self.population = {"family": points, "quartic": pairs, "witness": points}
        self.inputs["population"] = {kind: len(p) for kind, p in self.population.items()}
        self.round_length = len(self.KINDS) * len(points)
        self.inputs["round_requests"] = self.round_length

    def at_boundary(self) -> bool:
        return self._issued % self.round_length == 0

    def _draw(self, kind: str):
        deck = self._decks.get(kind)
        if not deck:
            deck = self._decks[kind] = list(self.population[kind])
            self.rng.shuffle(deck)
        return deck.pop()

    def next_op(self):
        if not self._pending:
            self._pending = list(self.KINDS)
            self.rng.shuffle(self._pending)
        kind = self._pending.pop()
        item = self._draw(kind)
        self._issued += 1
        if kind == "witness":
            # the request is the witness for each member of the family's triad
            triad, _ = families.evaluate_family(*item)
            return kind, triad.members()
        return kind, item

    def run(self, op):
        kind, item = op
        if kind == "family":
            return families.evaluate_family(*item)
        if kind == "quartic":
            return self._quartic_chain(*item)
        return [triads.is_sum_two_rational_squares(Fraction(x)) for x in item]

    @staticmethod
    def _quartic_chain(s: int, t: int):
        """Numeric ascent on both sides, composition, and the triads the u values give."""
        S, T = Fraction(s), Fraction(t)
        q = quartic.euler_quartic(S, T)
        pc = quartic.fermat_ascend(q, "constant")
        pl = quartic.fermat_ascend(q, "leading")
        anchor = quartic.QuarticPoint(Fraction(0), multipoly.exact_sqrt(q.a4))
        try:
            composed = quartic.choudhry_compose(q, anchor, pc)
        except CompositionError:
            composed = quartic.choudhry_compose(q, anchor, quartic.QuarticPoint(pc.u, -pc.v))
        out = []
        for u in (pc.u, pl.u, composed.u):
            x1, x2 = triads.roots_quad(*triads.quad_in_x(S, T, u))
            triad = triads.rational_to_integer_triad(S * S + T * T, x1, x2)
            out.append((triad, triads.verify_triad(triad)))
        return out

    def check(self, op, result) -> None:
        kind, item = op
        if kind == "family":
            triad, cert = result
            check_certificate(triad.members(), cert)
        elif kind == "quartic":
            for triad, cert in result:
                if cert is None:
                    raise CheckFailed("quartic chain at %s gave a non-triad %s" % (item, triad))
                check_certificate(triad.members(), cert)
        else:
            for x, witness in zip(item, result):
                check_two_squares(x, witness)

    def trace_ops(self):
        return [self.next_op() for _ in range(self.TRACE_REQUESTS)]


WORKLOADS = {w.name: w for w in (Search, SearchPar, Generate, Certify)}
