"""Tests of the benchmark's own arithmetic, wrappers and oracles.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
import spans
import workloads
from squaretriads import ecurve, exactnum, multipoly, pipeline
from squaretriads.exactnum import TwoSquares
from squaretriads.triads import SquareCertificate

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture
def fake_clock(monkeypatch):
    """perf_counter() returns the queued readings, in order."""
    readings = []
    monkeypatch.setattr(spans, "perf_counter", lambda: readings.pop(0))
    return readings


def test_self_time_of_nested_spans(fake_clock):
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "m.inner")
    leaf = tracer.wrap(lambda: None, "m.leaf")

    def middle_body():
        leaf()
        return None

    middle = tracer.wrap(middle_body, "m.middle")

    def outer_body():
        inner()
        middle()

    outer = tracer.wrap(outer_body, "m.outer")
    # outer [0, 20]; inner [1, 3]; middle [4, 14] holding leaf [5, 11]
    fake_clock.extend([0, 1, 3, 4, 5, 11, 14, 20])
    tracer.active = True
    outer()
    agg = tracer.aggregate()
    assert agg[("m.outer", "")]["self_s"] == 20 - 2 - 10
    assert agg[("m.inner", "")]["self_s"] == 2
    assert agg[("m.middle", "")]["self_s"] == 10 - 6
    assert agg[("m.leaf", "")]["self_s"] == 6
    assert agg[("m.outer", "")]["total_s"] == 20
    assert sum(v["self_s"] for v in agg.values()) == 20


def test_repeated_spans_sum_and_keep_the_longest(fake_clock):
    tracer = spans.Tracer()
    f = tracer.wrap(lambda x: x, "m.f")
    fake_clock.extend([0, 2, 10, 17])
    tracer.active = True
    f(1)
    f(2)
    stats = spans.totals(tracer.aggregate(), "m.f")
    assert stats == {"calls": 2, "self_s": 9, "total_s": 9, "max_s": 7}


def test_inactive_tracer_records_nothing():
    tracer = spans.Tracer()
    f = tracer.wrap(lambda x: x + 1, "m.f")
    assert f(1) == 2
    assert tracer.span_count() == 0


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError

    f = tracer.wrap(boom, "m.boom")
    tracer.active = True
    with pytest.raises(ValueError):
        f()
    assert spans.totals(tracer.aggregate(), "m.boom")["calls"] == 1


def test_tail_is_the_eleventh_largest():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([float(i) for i in range(21, 0, -1)]) == (11.0, 100.0 * 11 / 21, 21)


def test_tail_with_twenty_samples_or_fewer_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 20)
    with pytest.raises(ValueError):
        run.tail([])


@pytest.fixture
def installed():
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_wrappers_replace_names_imported_into_other_modules(installed):
    original = pipeline.poly_sqrt.__wrapped__
    assert multipoly.poly_sqrt is pipeline.poly_sqrt
    assert ecurve.poly_sqrt is pipeline.poly_sqrt
    assert multipoly.is_prime is exactnum.is_prime
    installed.uninstall()
    assert pipeline.poly_sqrt is original
    assert multipoly.poly_sqrt is original


def test_poly_sqrt_is_counted_through_square_witnesses(installed):
    installed.active = True
    ecurve.generate_family(2)
    installed.active = False
    agg = installed.aggregate()
    assert spans.totals(agg, "multipoly.poly_sqrt")["calls"] > 0
    # some poly_sqrt span has square_witnesses as its parent
    ids = {key: i for i, key in enumerate(installed.names)}
    witness = ids[("pipeline.square_witnesses", "")]
    sqrt_ids = {i for key, i in ids.items() if key[0] == "multipoly.poly_sqrt"}
    parents = [installed.parent[i] for i in range(installed.span_count()) if installed.name[i] in sqrt_ids]
    assert any(p >= 0 and installed.name[p] == witness for p in parents)
    # the gcd prime stream reaches is_prime through multipoly's own import
    assert spans.totals(agg, "exactnum.is_prime")["calls"] > 0


def test_gcd_calls_are_split_by_input_shape(installed):
    s, t, m = multipoly.var("s"), multipoly.var("t"), multipoly.var("m")
    installed.active = True
    multipoly.poly_gcd((m + 1) * (m - 2), (m + 1) * (m + 3))
    multipoly.poly_gcd((s + t) * s, (s + t) * t)
    multipoly.poly_gcd((s + 1) * t, (s + 1) * (t + 1))
    installed.active = False
    agg = installed.aggregate()
    for kind in ("univar", "bivar_hom", "general"):
        assert spans.totals(agg, "multipoly.poly_gcd", kind)["calls"] == 1


def test_ratfunc_operators_share_one_span(installed):
    x = multipoly.RatFunc(multipoly.var("m"), multipoly.var("m") + 1)
    installed.active = True
    _ = 1 + x  # __radd__
    _ = x * x
    _ = x / 2
    installed.active = False
    assert spans.totals(installed.aggregate(), "multipoly.RatFunc.arith")["calls"] >= 3


_forked = {}


def _active_in_child():
    return _forked["tracer"].active


def test_forked_workers_do_not_record():
    tracer = _forked["tracer"] = spans.Tracer()
    tracer.active = True
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork")) as pool:
        assert pool.submit(_active_in_child).result(timeout=60) is False
    assert tracer.active


def test_oracles_reject_wrong_outputs():
    workloads.check_certificate((80, 225, 320), SquareCertificate(25, 340, 2400))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_certificate((80, 225, 320), SquareCertificate(25, 340, 2401))
    workloads.check_two_squares(25, TwoSquares(Fraction(3), Fraction(4), Fraction(25)))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_two_squares(26, TwoSquares(Fraction(3), Fraction(4), Fraction(25)))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_two_squares(21, None)


def test_certify_stream_is_a_function_of_the_seed():
    def first(seed, n=30):
        w = workloads.Certify(seed)
        w.setup()
        return [w.next_op() for _ in range(n)]

    assert first(7) == first(7)
    assert first(7) != first(8)
    kinds = [kind for kind, _ in first(7)]
    assert all(sorted(kinds[i : i + 3]) == sorted(workloads.Certify.KINDS) for i in range(0, 30, 3))


def test_setup_is_timed_inside_fresh_interpreters():
    times = run.measure_setup()
    assert len(times) == run.SETUP_REPEATS
    assert all(corrected > 0 and raw > 0 for corrected, raw in times)


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in layers.PER_LAYER]
