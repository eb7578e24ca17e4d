"""Latency of the benchmark's certify requests, split by request kind.

    python3 scripts/certify_kinds.py SEED N

Builds perfbench/workloads.py's Certify(SEED) against the package in this
checkout's src/, runs its first N requests one at a time and checks each
result with the workload's own oracle.  Only the request itself is timed,
as perfbench times it; the witness requests' triads are made while the
request is drawn, so they are not in the time.  One JSON line goes to
standard output, with count, p50, p90 and max in ms for each kind
(family, quartic, witness), and under "rounds" the total ms of each kind
in each round of Certify.round_length requests and its share of the
round's request time; a partial last round gives its own request count.  Every round draws the same requests in a new
order, so a later round that runs faster than the first shows work carried
over between rounds.  These are raw wall times, without perfbench's
machine-speed correction.  A failed check makes the exit code 1.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """perfbench/workloads.py as a module, importing squaretriads from src/."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(samples: list[float]) -> dict:
    ms = sorted(s * 1e3 for s in samples)
    if not ms:
        return {"count": 0}
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "count": len(ms),
        "p50_ms": round(statistics.median(ms), 4),
        "p90_ms": round(p90, 4),
        "max_ms": round(ms[-1], 4),
    }


def round_totals(timed: list[tuple[str, float]], round_length: int, kinds) -> list[dict]:
    """{"requests", kind + "_ms": total, kind + "_share": share, ...} for each
    round of round_length timed requests; a share is the kind's part of the
    round's request time."""
    rounds = []
    for start in range(0, len(timed), round_length):
        chunk = timed[start : start + round_length]
        totals = dict.fromkeys(kinds, 0.0)
        for kind, seconds in chunk:
            totals[kind] += seconds
        whole = sum(totals.values()) or 1.0
        rounds.append(
            {
                "requests": len(chunk),
                **{k + "_ms": round(t * 1e3, 3) for k, t in totals.items()},
                **{k + "_share": round(t / whole, 4) for k, t in totals.items()},
            }
        )
    return rounds


def measure(workloads, seed: int, n: int) -> dict:
    """{"seed", "requests", "setup_s", kind: summary, ..., "rounds"} of the first n certify requests."""
    certify = workloads.Certify(seed)
    t0 = time.perf_counter()
    certify.setup()
    setup_s = time.perf_counter() - t0
    timed: list[tuple[str, float]] = []
    for _ in range(n):
        op = certify.next_op()
        t0 = time.perf_counter()
        result = certify.run(op)
        timed.append((op[0], time.perf_counter() - t0))
        certify.check(op, result)
    out = {"seed": seed, "requests": n, "setup_s": round(setup_s, 3)}
    out.update((kind, _summary([s for k, s in timed if k == kind])) for kind in certify.KINDS)
    out["rounds"] = round_totals(timed, certify.round_length, certify.KINDS)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(a.isdigit() for a in argv) or int(argv[1]) < 1:
        print("usage: certify_kinds.py SEED N  (SEED >= 0, N >= 1)", file=sys.stderr)
        return 2
    seed, n = map(int, argv)
    workloads = _workloads()
    try:
        result = measure(workloads, seed, n)
    except workloads.CheckFailed as exc:
        print("certify check failed: %s" % exc, file=sys.stderr)
        return 1
    info = {"python": platform.python_version(), "cpus": os.cpu_count(), "machine": platform.machine()}
    print(json.dumps({**info, "certify": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
