"""squaretriads benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with no tracing; --trace 1 runs
the workload's fixed trace input untraced, then with spans around every
public function of each layer, then untraced again, and reports the
per-layer metrics and the tracing overhead.  --workload all runs every workload in turn, as
separate processes, and prints the end-to-end metrics under their
per-workload names.

Every output is checked; a failed check or a raised exception is a failed
operation, and any failed operation makes the exit code 1.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# A fresh interpreter imports the package (through its command-line front
# end, which imports every layer) and builds the lazily cached registry,
# curve and point.  It times that itself, and runs the reference loop before
# and after, so that its time can be corrected for the machine's speed the
# way operation times are.  Interpreter start-up is not part of it, and
# nothing the package imports is imported before the clock starts.
SETUP_BODY = """
before = loop_times(5)
t0 = perf_counter()
import squaretriads.cli
from squaretriads import ecurve, families
families.registry(); ecurve.ecweier(); ecurve.point_P()
t1 = perf_counter()
after = loop_times(5)
import json
print(json.dumps({"seconds": t1 - t0, "loops": before + after}))
"""


def setup_code() -> str:
    """SETUP_BODY preceded by the reference loop, as speed.py defines it."""
    import speed

    return "".join(
        [
            "from time import perf_counter\n",
            "LOOP_N = %d\n" % speed.LOOP_N,
            inspect.getsource(speed.reference_loop),
            inspect.getsource(speed.loop_times),
            SETUP_BODY,
        ]
    )


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with 10 samples beyond it.

    That is the 11th largest sample, at percentile 100 (n - 10) / n.  With
    20 samples or fewer that percentile would not lie above the median, so
    the maximum is returned instead, at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload, args) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.inputs,
    }


def measure_setup() -> list[tuple[float, float]]:
    """(corrected, raw) set-up times of SETUP_REPEATS fresh interpreters."""
    from speed import corrected

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = setup_code()
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE, text=True
        )
        report = json.loads(proc.stdout)
        times.append((corrected(report["seconds"], report["loops"]), report["seconds"]))
    return times


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Run:
    """Counts of attempted and failed operations; failures are described on stderr."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str):
        self.failed += 1
        print("FAILED %s" % what, file=sys.stderr)

    def setup(self) -> bool:
        from workloads import CheckFailed

        self.attempted += 1
        try:
            self.workload.setup()
        except CheckFailed as exc:
            self.fail("set-up oracle: %s" % exc)
            return False
        except Exception:
            self.fail("set-up raised:\n" + traceback.format_exc())
            return False
        return True

    def op(self, op, tracer=None):
        """Run one operation (timed) and check it (untimed).

        Returns (start, end, result); result is None when the operation
        failed.
        """
        from workloads import CheckFailed

        self.attempted += 1
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = self.workload.run(op)
        except Exception:
            t1 = time.perf_counter()
            self.fail("operation raised:\n" + traceback.format_exc())
            return t0, t1, None
        finally:
            if tracer is not None:
                tracer.active = False
        t1 = time.perf_counter()
        try:
            self.workload.check(op, result)
        except CheckFailed as exc:
            self.fail("output check: %s" % exc)
            return t0, t1, None
        return t0, t1, result


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    from speed import PERIOD_S, MIN_SAMPLES, SpeedSampler

    w = run.workload
    # corrected and raw operation times, grouped by round where the
    # workload has rounds and all in one group otherwise
    groups: list[list[float]] = [[]]
    raw: list[float] = []
    ops = 0
    with SpeedSampler() as sampler:
        time.sleep(PERIOD_S * (MIN_SAMPLES + 1))  # first speed samples
        cpu0, wall0 = children_cpu(), time.perf_counter()
        unit_start = wall0
        while True:
            t0, t1, result = run.op(w.next_op())
            ops += 1
            if result is not None:
                corrected, elapsed = sampler.corrected(t0, t1)
                groups[-1].append(corrected)
                raw.append(elapsed)
            if not w.at_boundary():
                continue
            # stop before a unit (an operation, or a round of requests)
            # that would overrun the measured window
            now = time.perf_counter()
            unit, unit_start = now - unit_start, now
            if ops >= w.min_ops and now - wall0 + unit > seconds:
                break
            if w.has_rounds:
                groups.append([])
        window = time.perf_counter() - wall0
        pool_cpu = children_cpu() - cpu0
        pool_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        speed = statistics.median(sampler.durations)
    setup = measure_setup()
    durations = [d for g in groups for d in g]
    if not durations:
        return {}, {}
    # Every round holds the same requests, so each round's tail is taken
    # alone; how many rounds fit in the window does not move the percentile.
    tails = [tail(g) for g in groups if g]
    value = statistics.median(t[0] for t in tails)
    _, pct, n = tails[0]
    metrics = {
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(c for c, _ in setup), "s"),
    }
    notes = {
        "ops": len(durations),
        "tail_percentile": round(pct, 3),
        "tail_samples": n,
        "tail_groups": len(tails),
        "window_s": window,
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": tail(raw)[0] * 1e3,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_setup_s": statistics.median(r for _, r in setup),
        "setup_samples_s": [c for c, _ in setup],
        "reference_loop_median_ms": speed * 1e3,
        "speed_samples": len(sampler.durations),
    }
    if getattr(w, "WORKERS", 1) > 1:
        notes["pool_cpu_s"] = pool_cpu
        notes["largest_pool_worker_rss_mb"] = pool_rss
    return metrics, notes


def run_traced(run: Run) -> tuple[dict, dict]:
    from layers import PER_LAYER, absent_metrics
    from spans import Tracer

    w = run.workload
    ops = w.trace_ops()

    def timed_pass(tracer=None):
        total, results = 0.0, []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0, t1, result = run.op(op, tracer)
            total += t1 - t0
            results.append(result)
        return total, results

    cpu0 = children_cpu()
    before, _ = timed_pass()
    child_cpu = children_cpu() - cpu0
    tracer = Tracer()
    tracer.install()
    try:
        traced, results = timed_pass(tracer)
    finally:
        tracer.uninstall()
    # untraced passes on both sides, so warm-up and drift cancel out
    after, _ = timed_pass()
    untraced = (before + after) / 2
    agg = tracer.aggregate()
    extra = w.layer_metrics(results) if all(r is not None for r in results) else {}
    workers = getattr(w, "WORKERS", 1)
    extra["search.pool.child_cpu_s"] = child_cpu
    extra["search.pool.utilization"] = child_cpu / (before * workers) if child_cpu > 0 else 0.0
    extra["trace.overhead_s"] = traced - untraced
    metrics = {name: (compute(agg, extra), unit) for name, unit, compute in PER_LAYER}
    notes = {
        "trace_ops": len(ops),
        "untraced_s": [before, after],
        "traced_s": traced,
        "spans": tracer.span_count(),
        "absent": absent_metrics(w.name, metrics),
    }
    return metrics, notes


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


# The end-to-end metrics of --workload all, named per workload:
# name -> (workload, metric of that workload, scale, unit).
ALL_NAMES = {
    "search_s": ("search", "op_p50_ms", 1e-3, "s"),
    "search_par_s": ("search-par", "op_p50_ms", 1e-3, "s"),
    "generate_s": ("generate", "op_p50_ms", 1e-3, "s"),
    "certify_rps": ("certify", "ops_per_s", 1.0, "req/s"),
    "certify_p50_ms": ("certify", "op_p50_ms", 1.0, "ms"),
    "certify_tail_ms": ("certify", "op_tail_ms", 1.0, "ms"),
}


def run_all(args) -> int:
    """Every workload in its own process; the end-to-end metrics under per-workload names."""
    from workloads import WORKLOADS

    per = {}
    attempted = failed = 0
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print("[%s] %s" % (name, line))
        if proc.returncode != 0 or not lines:
            ok = False
            print("[%s] exited with %d" % (name, proc.returncode))
            continue
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        ok = ok and res["correct"]
        per[name] = res["metrics"]
    metrics = {}
    if args.trace == 0:
        for label, (workload, metric, scale, unit) in ALL_NAMES.items():
            if workload in per:
                metrics[label] = (per[workload][metric]["value"] * scale, unit)
        setups = [m["setup_s"]["value"] for m in per.values()]
        rss = [m["peak_rss_mb"]["value"] for m in per.values()]
        if setups:
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (max(rss), "MB")
        metrics["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
    else:
        for workload, m in per.items():
            for name, entry in m.items():
                metrics["%s/%s" % (workload, name)] = (entry["value"], entry["unit"])
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print(result_line(ok and failed == 0, max(attempted, 1), failed, metrics))
    return 0 if ok and failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="search, search-par, generate, certify or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "squaretriads" / "__init__.py").is_file():
        print("error: the squaretriads package is not at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s or all" % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload)
    metrics, notes = {}, {}
    if run.setup():
        metrics, notes = run_traced(run) if args.trace else run_untraced(run, args.seconds)
    correct = run.failed == 0 and bool(metrics)
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %s" % (name, value, unit))
    record = {
        "environment": environment(workload, args),
        "notes": notes,
        "fail_ratio": run.failed / run.attempted,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(result_line(correct, run.attempted, run.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
