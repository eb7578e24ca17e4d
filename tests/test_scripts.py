"""The measuring scripts in scripts/ run against the package in src/."""

import importlib.util
import json
from pathlib import Path

import pytest

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
    assert 0 < run["generate_s"] < run["wall_s"] and run["peak_rss_mb"] > 0
    # the pinned family_to_json digest of generate_family(2)
    assert run["sha256"] == "b0787a908120d302d118587fa371fae01399fdbbce99963cb620168e5f8bade8"
    assert {"python", "numpy", "cpus", "machine", "l2_cache"} <= set(line)


def test_machine_info_reads_the_l2_cache_size(tmp_path, monkeypatch):
    script = _load("generate_wall")
    size = tmp_path / "size"
    size.write_text("2048K\n")
    monkeypatch.setattr(script, "L2_CACHE", size)
    assert script.machine_info()["l2_cache"] == "2048K"
    monkeypatch.setattr(script, "L2_CACHE", tmp_path / "missing")
    assert script.machine_info()["l2_cache"] is None


def test_generate_wall_fails_when_a_known_digest_differs(capsys, monkeypatch):
    script = _load("generate_wall")
    digest = "b0787a908120d302d118587fa371fae01399fdbbce99963cb620168e5f8bade8"
    # k = 2 builds the digest above: listed, it passes; another listed digest fails
    monkeypatch.setattr(script, "KNOWN_SHA256", {2: digest})
    assert script.main(["2"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(script, "KNOWN_SHA256", {2: "0" * 64})
    assert script.main(["2"]) == 1
    assert "built digest %s, not the %s known" % (digest, "0" * 64) in capsys.readouterr().err


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
    assert {"python", "numpy", "cpus", "machine", "l2_cache"} <= set(line)


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


def test_search_wall_fails_when_a_known_count_differs(capsys, monkeypatch):
    script = _load("search_wall")
    # bound 300 holds 2 triads: a listed count of 2 passes, a listed 3 fails
    monkeypatch.setattr(script, "KNOWN_TRIADS", {300: 2})
    assert script.main(["300"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(script, "KNOWN_TRIADS", {300: 3})
    assert script.main(["300"]) == 1
    assert "found 2 triads, not the 3 known" in capsys.readouterr().err


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


def test_bench_pairs_count_wins_against_the_parent_and_itself(tmp_path, monkeypatch):
    script = _load("bench")
    parent = tmp_path / "parent"
    workloads, end_to_end = script.declared()
    assert workloads == ["search", "search-par", "generate", "certify"]
    assert end_to_end == {"op_p50_ms": True, "op_tail_ms": True, "ops_per_s": False, "peak_rss_mb": True, "setup_s": True}
    # generate's setup_s in run order: this checkout reads 0.070, the parent
    # 0.080 and 0.084, its second run 0.082; every other value is constant
    setups = iter([0.080, 0.070, 0.082, 0.070, 0.084, 0.082])
    calls = []

    def fake(checkout, workload, trace=0):
        calls.append(("change" if checkout == script.ROOT else "parent", workload))
        assert trace == 0
        values = {"op_p50_ms": 66.0, "op_tail_ms": 70.0, "ops_per_s": 15.0, "peak_rss_mb": 22.5, "setup_s": 0.07}
        if workload == "generate":
            values["setup_s"] = next(setups)
        return {"correct": True, "metrics": {name: {"value": v} for name, v in values.items()}}

    monkeypatch.setattr(script, "perfbench", fake)
    monkeypatch.setattr(script, "PAIRS", 2)
    result = script.pairs(parent)
    # the pairs alternate which side runs first, the parent runs again after
    # each, and every side runs every workload
    assert [run["order"] for run in result["runs"]] == [
        ["parent", "change", "parent_again"],
        ["change", "parent", "parent_again"],
    ]
    sides = ["parent", "change", "parent", "change", "parent", "parent"]
    assert calls == [(side, w) for side in sides for w in workloads]
    setup = result["summary"]["generate"]["setup_s"]
    assert setup["change_wins"] == 2 and setup["change"]["median"] == 0.070
    assert setup["parent"]["median"] == pytest.approx(0.082) and setup["parent_again_wins"] == 1
    # ties count for neither side
    assert result["summary"]["search"]["setup_s"]["change_wins"] == 0
    assert result["summary"]["generate"]["op_p50_ms"]["change_wins"] == 0


def test_bench_writes_nothing_when_a_run_fails(tmp_path, monkeypatch, capsys):
    script = _load("bench")

    def failing(checkout, workload, trace=0):
        raise RuntimeError("perfbench/run.py failed")

    monkeypatch.setattr(script, "perfbench", failing)
    out = tmp_path / "BENCH_0.json"
    assert script.main([str(out)]) == 1
    assert not out.exists()
    assert "failed" in capsys.readouterr().err


def test_bench_children_write_no_bytecode_and_cached_checkouts_are_refused(tmp_path, monkeypatch):
    script = _load("bench")
    code = "import json, os; print(json.dumps(os.environ.get('PYTHONDONTWRITEBYTECODE')))"
    assert script.last_json(["-c", code], tmp_path) == "1"
    # perfbench/run.py keeps its own run length and seed
    cmds = []
    monkeypatch.setattr(script, "last_json", lambda cmd, cwd: cmds.append(cmd) or {"correct": True})
    script.perfbench(tmp_path, "generate")
    assert cmds == [["perfbench/run.py", "--workload", "generate", "--trace", "0"]]
    # a cache beside the sources would make setup_s time a cached import
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    with pytest.raises(RuntimeError, match="bytecode caches"):
        script.perfbench(tmp_path, "generate")
