"""Write a BENCH_<n>.json: the benchmark, the large generator and search runs, and the machine.

    python3 scripts/bench.py BENCH_1.json
    python3 scripts/bench.py BENCH_1.json --parent ../parent

It records, for this checkout:
- "perfbench": the last JSON line of perfbench/run.py --workload all, untraced
  ("untraced", the end-to-end metrics) and with --trace 1 ("traced", the
  per-layer metrics of every workload);
- "generate_wall" and "search_wall": the JSON lines of
  scripts/generate_wall.py 16 24 32 and scripts/search_wall.py 100000 300000
  1000000, which it runs as they are.  The benchmark's workloads stop at
  k = 8 and bound 5000; these show the sizes above them;
- "machine": the Python and numpy versions, CPUs, machine and L2 cache
  (generate_wall.machine_info), and "commit", this checkout's HEAD.

Every perfbench run keeps run.py's own run length and seed.

With --parent DIR, a checkout of the parent commit, it also runs PAIRS
alternating pairs on the parent and on this checkout, each followed by a
second parent run, so that the parent against itself (an A/A run) shows how
far runs of one commit spread on this machine.  Each run of a pair is one
perfbench/run.py --workload W for every workload W that BENCHMARK.json
declares.  "pairs" holds every run's end-to-end metrics (those BENCHMARK.json
declares) and, per workload and metric, each side's median and quartiles and
the number of pairs in which this checkout (and, for A/A, the second parent
run) read better.  A gain may be claimed only where this checkout wins at
least nine pairs in ten and the medians differ by more than the parent's
quartile spread.

perfbench's setup_s times a fresh interpreter's import of the package, so
it depends on whether a bytecode cache sits beside the sources.  Every child
runs with PYTHONDONTWRITEBYTECODE=1, and a checkout whose src/ already holds
a __pycache__ is refused, so both sides of a pair compile from source.

A run that fails makes the exit code 1, and nothing is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATE_KS = ("16", "24", "32")
SEARCH_BOUNDS = ("100000", "300000", "1000000")
# the fewest pairs on which a gain may be claimed
PAIRS = 10


def declared() -> tuple[list[str], dict[str, bool]]:
    """BENCHMARK.json's workloads, and its end-to-end metrics with whether a lower value is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def last_json(cmd: list[str], cwd: Path) -> dict:
    """The JSON object on the last output line of cmd, run in cwd; RuntimeError if it fails."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *cmd], cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError("%s in %s exited with %d:\n%s" % (" ".join(cmd), cwd, done.returncode, done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def perfbench(checkout: Path, workload: str, trace: int = 0) -> dict:
    """The result line of perfbench/run.py in checkout; RuntimeError unless it is correct."""
    cached = sorted(str(p) for p in (checkout / "src").rglob("__pycache__"))
    if cached:
        raise RuntimeError("remove the bytecode caches first, or setup_s reads them: %s" % ", ".join(cached))
    result = last_json(["perfbench/run.py", "--workload", workload, "--trace", str(trace)], checkout)
    if not result["correct"]:
        raise RuntimeError("perfbench %s in %s was not correct: %s" % (workload, checkout, result))
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def pairs(parent: Path) -> dict:
    """PAIRS alternating pairs of parent and this checkout, each with an A/A parent run after it."""
    workloads, end_to_end = declared()
    runs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"order": list(order) + ["parent_again"]}
        for side in run["order"]:
            run[side] = {}
            for workload in workloads:
                metrics = perfbench(ROOT if side == "change" else parent, workload)["metrics"]
                run[side][workload] = {name: metrics[name]["value"] for name in end_to_end}
        runs.append(run)
    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for name, lower in end_to_end.items():
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            values = {side: [run[side][workload][name] for run in runs] for side in ("parent", "change", "parent_again")}
            entry = {side: quartiles(v) for side, v in values.items()}
            entry["change_wins"] = sum(map(better, values["change"], values["parent"]))
            entry["parent_again_wins"] = sum(map(better, values["parent_again"], values["parent"]))
            summary[workload][name] = entry
    return {"parent_commit": git_head(parent), "runs": runs, "summary": summary}


def git_head(checkout: Path) -> str:
    """HEAD of checkout, or "unknown" where it is not a git checkout."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_info() -> dict:
    spec = importlib.util.spec_from_file_location("generate_wall", ROOT / "scripts" / "generate_wall.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine_info()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--parent", type=Path, help="a checkout of the parent commit, to run pairs against")
    args = parser.parse_args(argv)
    try:
        bench = {
            "commit": git_head(ROOT),
            "machine": machine_info(),
            "perfbench": {"untraced": perfbench(ROOT, "all"), "traced": perfbench(ROOT, "all", trace=1)},
            "generate_wall": last_json(["scripts/generate_wall.py", *GENERATE_KS], ROOT),
            "search_wall": last_json(["scripts/search_wall.py", *SEARCH_BOUNDS], ROOT),
        }
        if args.parent is not None:
            bench["pairs"] = pairs(args.parent.resolve())
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
