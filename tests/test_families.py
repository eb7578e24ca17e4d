import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

from squaretriads import families as fam
from squaretriads.errors import DomainError, ExcludedLocusError, VerificationError
from squaretriads.multipoly import Poly, RatFunc, evaluate, poly_sqrt, var
from squaretriads.triads import (
    Triad,
    canonicalize,
    is_sum_two_rational_squares,
    rational_to_integer_triad,
    verify_triad,
)

s, t, r = var("s"), var("t"), var("r")


class TestRegistry:
    def test_ten_families(self):
        reg = fam.registry()
        assert len(reg) == 10
        assert [f.name for f in reg] == [
            "parmsol1",
            "parmsol2",
            "parmsol3",
            "parmsol4",
            "allsq1",
            "allsq2",
            "allsq3",
            "allsq4",
            "gensol1",
            "euler1779",
        ]

    def test_classifications(self):
        by_name = {f.name: f.classification for f in fam.registry()}
        assert by_name["euler1779"] == fam.ALL_SQUARES
        assert by_name["gensol1"] == fam.NO_SQUARES
        for i in (1, 2, 3, 4):
            assert by_name["parmsol%d" % i] == fam.ONE_SQUARE
            assert by_name["allsq%d" % i] == fam.ALL_SQUARES

    def test_degrees_by_classification(self):
        degs = {f.name: f.a.total_degree() for f in fam.registry()}
        assert degs["parmsol1"] == degs["parmsol2"] == 8
        assert degs["parmsol3"] == degs["parmsol4"] == 20
        assert {degs["allsq%d" % i] for i in (1, 2, 3, 4)} == {12, 16, 36, 40}
        assert degs["gensol1"] == 32

    def test_first_witnesses(self):
        assert fam.get_family("parmsol1").witnesses[0] == s**4 + t**4
        assert fam.get_family("parmsol2").witnesses[0] == (s**2 + t**2) ** 2

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            fam.get_family("nope")

    def test_fauquembergue_value(self):
        triad, _ = fam.evaluate_family("parmsol2", (2, 1))
        assert triad.members() == (80, 225, 320)


class TestEvaluation:
    @pytest.mark.parametrize(
        "name,params,expected",
        [
            ("parmsol1", (1, 2), (45, 64, 180)),
            ("parmsol2", (1, 2), (80, 225, 320)),
            ("gensol1", (1, 1), (72, 136, 153)),
            ("allsq1", (1, 2), (11025, 19600, 82944)),
            ("euler1779", (2,), (5776, 36864, 263169)),
            ("euler1779", (3,), (81, 784, 186624)),
        ],
    )
    def test_examples(self, name, params, expected):
        triad, cert = fam.evaluate_family(name, params)
        assert triad.members() == expected
        assert verify_triad(triad) == cert

    def test_all_squares_members_are_squares(self):
        from squaretriads.exactnum import is_perfect_square

        triad, _ = fam.evaluate_family("euler1779", (2,))
        assert all(is_perfect_square(x) is not None for x in triad.members())

    def test_excluded_locus(self):
        with pytest.raises(ExcludedLocusError):
            fam.evaluate_family("parmsol1", (1, 1))
        with pytest.raises(ExcludedLocusError):
            fam.evaluate_family("euler1779", (1,))

    def test_bad_arity(self):
        with pytest.raises(DomainError):
            fam.evaluate_family("parmsol1", (1,))

    @pytest.mark.parametrize(
        "params",
        [(True, 2), (2, False), (Fraction(1, 2), 1), (Fraction(2), 1), (2.0, 1), ("2", 1)]
        + [(np.float64(2), 1), (None, 1)],
    )
    def test_non_integer_parameters_are_refused_before_evaluation(self, params, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("evaluated at a refused point")

        monkeypatch.setattr(fam, "evaluate", no_evaluation)
        with pytest.raises(DomainError, match="must be an integer") as info:
            fam.evaluate_family("parmsol1", params)
        # a usage error, not a mathematical "no"
        assert not isinstance(info.value, ExcludedLocusError)

    def test_numpy_integer_parameters_are_accepted(self):
        np = pytest.importorskip("numpy")
        expected = fam.evaluate_family("parmsol1", (1, 2))
        assert fam.evaluate_family("parmsol1", (np.int64(1), np.int32(2))) == expected
        assert fam.evaluate_family("parmsol1", {"s": np.uint8(1), "t": np.int64(2)}) == expected

    def test_any_mapping_names_parameters(self):
        expected = fam.evaluate_family("parmsol1", (1, 2))
        assert fam.evaluate_family("parmsol1", MappingProxyType({"s": 1, "t": 2})) == expected

    def test_random_points_verify_with_two_squares_members(self):
        """Every member of every evaluation is a sum of two rational squares."""
        rng = random.Random(41)
        for f in fam.registry():
            done = 0
            while done < 25:
                point = {p: rng.randint(1, 6) for p in f.params}
                try:
                    triad, cert = fam.evaluate_family(f.name, point)
                except ExcludedLocusError:
                    continue
                assert verify_triad(triad) == cert
                for x in triad.members():
                    assert is_sum_two_rational_squares(Fraction(x)) is not None
                done += 1


class TestSymbolicVerification:
    def test_all_families_pass(self):
        for f in fam.registry():
            report = fam.verify_family_symbolic(f)
            assert report.ok, (f.name, report.messages)

    def test_classification_counts(self):
        """The builder's classification matches the paper's, family by family."""
        paper = {"gensol1": (0, fam.NO_SQUARES), "euler1779": (3, fam.ALL_SQUARES)}
        for i in (1, 2, 3, 4):
            paper["parmsol%d" % i] = (1, fam.ONE_SQUARE)
            paper["allsq%d" % i] = (3, fam.ALL_SQUARES)
        for f in fam.registry():
            report = fam.verify_family_symbolic(f)
            assert (report.square_members, f.classification) == paper[f.name]

    def test_detects_broken_classification(self):
        good = fam.get_family("parmsol1")
        bad = fam.ParametricFamily(
            name="bad",
            params=good.params,
            a=good.a,
            b=good.b,
            c=good.c,
            witnesses=good.witnesses,
            constraints=good.constraints,
            classification=fam.ALL_SQUARES,
            paper_eq="test",
        )
        report = fam.verify_family_symbolic(bad)
        assert not report.ok

    def test_square_classification(self):
        s, t = var("s"), var("t")
        assert fam.square_classification((s**2, t**2, (s * t) ** 2)) == (3, fam.ALL_SQUARES)
        assert fam.square_classification((s**2, t, s + t)) == (1, fam.ONE_SQUARE)
        assert fam.square_classification((s, t, s + t)) == (0, fam.NO_SQUARES)
        # two square members cannot occur in a triad: an internal error
        with pytest.raises(VerificationError):
            fam.square_classification((s**2, t**2, s**2 + t**2))


class TestPythagoreanSubstitution:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_exact_slotwise_match(self, i):
        out = fam.pythagorean_substitute("parmsol%d" % i)
        target = fam.get_family("allsq%d" % i)
        assert out.members() == target.members()
        assert out.classification == fam.ALL_SQUARES

    def test_only_one_square_sources(self):
        with pytest.raises(DomainError):
            fam.pythagorean_substitute("gensol1")

    def test_square_stripping_keeps_input_order(self):
        from squaretriads.multipoly import canonical_sort_key
        from squaretriads.pipeline import canonical_triple, strip_common_squares

        square = 9 * (s - t) ** 2
        members = (square * (s + 2 * t) ** 2, square * s * t, square * (s**2 + t**2))
        stripped = strip_common_squares(members)
        assert stripped == ((s + 2 * t) ** 2, s * t, s**2 + t**2)
        assert canonical_triple(members) == tuple(sorted(stripped, key=canonical_sort_key))

    def test_substitution_makes_norm_a_square(self):
        from squaretriads.multipoly import substitute

        mm, nn = var("m"), var("n")
        out = substitute(s**2 + t**2, {"s": 2 * mm * nn, "t": mm**2 - nn**2})
        assert poly_sqrt(out) == mm**2 + nn**2


class TestTwoNonzeroSquaresPipeline:
    def test_t_value(self):
        steps = fam.gensol1_steps()
        expected = RatFunc(
            r * (r**6 - 9 * r**4 * s**2 - 9 * r**2 * s**4 - 3 * s**6),
            5 * r**6 + 3 * r**4 * s**2 + 3 * r**2 * s**4 + s**6,
        )
        assert steps.t_value == expected

    def test_u_value(self):
        steps = fam.gensol1_steps()
        expected = RatFunc(
            2 * s**3 * (5 * r**6 + 3 * r**4 * s**2 + 3 * r**2 * s**4 + s**6),
            r**8 + 2 * r**6 * s**2 - 12 * r**4 * s**4 - 6 * r**2 * s**6 - s**8,
        )
        assert steps.u_first == expected

    def test_second_x_root(self):
        steps = fam.gensol1_steps()
        G12 = (
            r**12 + 6 * r**10 * s**2 + 87 * r**8 * s**4 + 108 * r**6 * s**6
            + 55 * r**4 * s**8 + 14 * r**2 * s**10 + s**12
        )
        E8 = r**8 + 2 * r**6 * s**2 - 12 * r**4 * s**4 - 6 * r**2 * s**6 - s**8
        assert steps.x_second == RatFunc(4 * r**2 * s**4 * G12, E8**2)

    def test_family_matches_registry(self):
        steps = fam.gensol1_steps()
        assert set(steps.family.members()) == set(fam.get_family("gensol1").members())

    def test_numeric_pipeline(self):
        triad, cert = fam.gensol1_pipeline(1, 1)
        assert triad.members() == (72, 136, 153)
        assert (cert.f, cert.g, cert.h) == (19, 204, 1224)

    def test_numeric_matches_symbolic_at_more_points(self):
        """Every nonzero |r|, |s| <= 8, with mixed signs."""
        for rv in range(-8, 9):
            for sv in range(-8, 9):
                if rv and sv:
                    assert fam.gensol1_pipeline(rv, sv) == fam.evaluate_family("gensol1", (rv, sv))

    @pytest.mark.parametrize("point", [(0, 1), (1, 0), (0, -3), (0, 0)])
    def test_numeric_zero_parameter_excluded(self, point):
        with pytest.raises(ExcludedLocusError):
            fam.gensol1_pipeline(*point)

    def test_numeric_run_builds_no_symbolic_chain(self):
        fam._two_squares_chain.cache_clear()
        fam.gensol1_pipeline(2, 3)
        assert fam._two_squares_chain.cache_info().currsize == 0

    def test_second_root_chain_matches_second_family(self):
        second = fam.second_u_family()
        for rv, sv in ((1, 1), (1, 2), (2, 1), (-2, 3), (3, -1), (-1, -4)):
            S = Fraction(abs(sv))
            x0, t_val, _, _, x2 = fam._two_squares_roots(Fraction(abs(rv)), S, True)
            vals = [evaluate(mp, {"r": rv, "s": sv}) for mp in second.members()]
            family_triad = canonicalize(Triad(*[int(v) for v in vals]))
            assert rational_to_integer_triad(S * S + t_val * t_val, x0, x2) == family_triad

    def test_second_u_family_degree_52_and_selfcertifies(self):
        second = fam.second_u_family()
        assert {mp.total_degree() for mp in second.members()} == {52}
        report = fam.verify_family_symbolic(second)
        assert report.ok
        assert second.classification == fam.NO_SQUARES

    def test_second_u_family_evaluates(self):
        second = fam.second_u_family()
        vals = [evaluate(mp, {"r": 1, "s": 2}) for mp in second.members()]
        from squaretriads.triads import canonicalize

        triad = canonicalize(Triad(*[int(v) for v in vals]))
        assert verify_triad(triad) is not None

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: fam.gensol1_steps().family, "349230c4bb162d3f40e3ed82fa33e20248fb4d40e98dd3504f3e9b9b29bad7f9"),
            (fam.second_u_family, "474d95b8c744cbc422c077a85624fdbee2fc51e49622297205b2f4526f105bcb"),
        ],
        ids=["gensol1", "gensol2"],
    )
    def test_family_json_is_pinned(self, build, digest):
        payload = json.dumps(fam.family_to_json(build()), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


class TestCanonicalForm:
    @pytest.mark.parametrize("name", [f.name for f in fam.registry()] + ["gensol1 pipeline"])
    def test_unchanged_by_square_scaling(self, name):
        # the stripped triple is the one representative of its class under
        # scaling by squares: q^2 n^2 with q a polynomial, n an integer
        from squaretriads.pipeline import canonical_triple

        family = fam.gensol1_steps().family if name == "gensol1 pipeline" else fam.get_family(name)
        rng = random.Random(name)
        vs = [var(name) for name in family.params]
        monomials = [e for e in itertools.product(range(3), repeat=len(vs)) if sum(e) <= 2]
        base = canonical_triple(family.members())
        for _ in range(3):
            q = Poly.zero()
            while q.is_zero:
                q = sum((rng.randint(-3, 3) * math.prod(v**e for v, e in zip(vs, es)) for es in monomials), Poly.zero())
            scale = (q * rng.randint(1, 30)) ** 2
            assert canonical_triple(tuple(mp * scale for mp in family.members())) == base


class TestJson:
    def test_export_shape(self):
        payload = fam.family_to_json(fam.get_family("parmsol1"))
        assert set(payload) == {"name", "params", "a", "b", "c", "f", "g", "h", "classification", "paper_eq"}
        assert payload["f"] == "s^4 + t^4"
        assert payload["c"] == "4*s^4*t^4"
