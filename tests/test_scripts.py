"""The measuring scripts in scripts/ run against the package in src/."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generate_wall_reports_one_fresh_process_per_k(capsys):
    script = _load("generate_wall")
    # one child process, for k = 2
    assert script.main(["2"]) == 0
    line = json.loads(capsys.readouterr().out)
    (run,) = line["generate_family"]
    assert run["k"] == 2
    assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    # the pinned family_to_json digest of generate_family(2)
    assert run["sha256"] == "b0787a908120d302d118587fa371fae01399fdbbce99963cb620168e5f8bade8"
    assert {"python", "numpy", "cpus", "machine"} <= set(line)


def test_generate_wall_rejects_a_bad_k(capsys):
    script = _load("generate_wall")
    assert script.main([]) == 2
    assert script.main(["0"]) == 2
    assert script.main(["two"]) == 2


def test_search_wall_reports_one_fresh_process_per_bound(capsys):
    script = _load("search_wall")
    # two child processes; bound 300 holds the two triads (45, 64, 180) and (72, 136, 153)
    assert script.main(["64", "300"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert [(run["bound"], run["triads"]) for run in line["search"]] == [(64, 0), (300, 2)]
    for run in line["search"]:
        assert 0 < run["search_s"] + run["pooled_s"] < run["wall_s"] and run["peak_rss_mb"] > 0
        assert run["pooled_s"] > 0
    assert {"python", "numpy", "cpus", "machine"} <= set(line)


def test_search_wall_fails_when_the_pooled_triads_differ(capsys, monkeypatch):
    script = _load("search_wall")
    # 800 holds (180, 256, 720) = 4 * (45, 64, 180), which primitive_only drops
    monkeypatch.setattr(script, "CHILD", script.CHILD.replace("workers=2", "workers=2, primitive_only=True"))
    assert script.main(["800"]) == 1
    assert "other triads" in capsys.readouterr().err


def test_search_wall_fails_when_a_worker_outlives_the_search(capsys, monkeypatch):
    script = _load("search_wall")
    # a daemonic process started after the pooled search stands in for a
    # worker it left running; the child's exit ends it
    leftover = "import multiprocessing; multiprocessing.Process(target=time.sleep, args=(30,), daemon=True).start()\n"
    monkeypatch.setattr(script, "CHILD", script.CHILD.replace("if pooled != triads:", leftover + "if pooled != triads:"))
    assert script.main(["300"]) == 1
    assert "outlived the pooled search" in capsys.readouterr().err


def test_search_wall_rejects_a_bad_bound(capsys):
    script = _load("search_wall")
    assert script.main([]) == 2
    assert script.main(["0"]) == 2
    assert script.main(["5e3"]) == 2
    # a bound SearchConfig refuses fails in the child, with exit code 1
    assert script.main([str(10**9)]) == 1
    assert "too large" in capsys.readouterr().err


def test_certify_kinds_splits_the_first_requests_by_kind(capsys):
    script = _load("certify_kinds")
    assert script.main(["1", "30"]) == 0
    line = json.loads(capsys.readouterr().out)["certify"]
    assert line["seed"] == 1 and line["requests"] == 30
    kinds = [line[kind] for kind in ("family", "quartic", "witness")]
    # one request of each kind per block of three
    assert [k["count"] for k in kinds] == [10, 10, 10]
    for k in kinds:
        assert 0 < k["p50_ms"] <= k["p90_ms"] <= k["max_ms"]
    # 30 requests are a partial first round
    (first,) = line["rounds"]
    assert first["requests"] == 30
    for name, k in zip(("family", "quartic", "witness"), kinds):
        assert k["max_ms"] - 1e-3 <= first[name + "_ms"] <= k["count"] * k["max_ms"] + 1e-3


def test_certify_kinds_totals_each_round_and_a_partial_last_one():
    script = _load("certify_kinds")
    timed = [("family", 0.001), ("witness", 0.002), ("family", 0.004)] * 3 + [("quartic", 0.008)]
    rounds = script.round_totals(timed, 4, ("family", "quartic", "witness"))
    assert [{k: v for k, v in r.items() if not k.endswith("_share")} for r in rounds] == [
        {"requests": 4, "family_ms": 6.0, "quartic_ms": 0.0, "witness_ms": 2.0},
        {"requests": 4, "family_ms": 5.0, "quartic_ms": 0.0, "witness_ms": 4.0},
        {"requests": 2, "family_ms": 4.0, "quartic_ms": 8.0, "witness_ms": 0.0},
    ]
    # each kind's share of the round's request time
    assert [[r[k + "_share"] for k in ("family", "quartic", "witness")] for r in rounds] == [
        [0.75, 0.0, 0.25],
        [0.5556, 0.0, 0.4444],
        [0.3333, 0.6667, 0.0],
    ]


def test_certify_kinds_rejects_bad_arguments(capsys):
    script = _load("certify_kinds")
    assert script.main([]) == 2
    assert script.main(["1"]) == 2
    assert script.main(["1", "0"]) == 2
    assert script.main(["one", "30"]) == 2
