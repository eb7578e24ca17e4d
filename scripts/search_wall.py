"""Wall time, peak RSS and triad count of a search, each bound in a fresh process.

    python3 scripts/search_wall.py 30000 100000

For each bound, a new interpreter imports squaretriads from this checkout's
src/ and runs search_triads(SearchConfig(bound)) on one worker, then
search_triads(SearchConfig(bound, workers=2)), which runs part 1 in a worker
process where there are two CPUs.  It fails unless both find the same triads
and no worker process is left running after the second search.  wall_s is
the child's whole life as the parent sees it, interpreter start-up and
imports included; search_s and pooled_s are the two search_triads calls
alone, timed in the child; peak_rss_mb is the child's own maximum resident
set size, read after the serial search.  One JSON line goes to standard
output.  A child that fails makes the exit code 1.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

CHILD = """
import json, multiprocessing, resource, sys, time
from squaretriads.search import SearchConfig, search_triads
t0 = time.perf_counter()
triads = search_triads(SearchConfig(int(sys.argv[1])))
search_s = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
t0 = time.perf_counter()
pooled = search_triads(SearchConfig(int(sys.argv[1]), workers=2))
pooled_s = time.perf_counter() - t0
if pooled != triads:
    sys.exit("the pooled search found other triads than the serial one")
if multiprocessing.active_children():
    sys.exit("a worker process outlived the pooled search")
print(json.dumps({"search_s": search_s, "pooled_s": pooled_s, "triads": len(triads), "peak_rss_mb": peak}))
"""


def _generate_wall():
    """scripts/generate_wall.py as a module, for its fresh-process runner and machine info."""
    spec = importlib.util.spec_from_file_location("generate_wall", Path(__file__).resolve().parent / "generate_wall.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(bound: int) -> dict:
    """{"bound", "wall_s", "search_s", "pooled_s", "peak_rss_mb", "triads"} of one fresh process that searches to bound."""
    wall, child = _generate_wall().fresh_process(CHILD, bound, "search to %d" % bound)
    return {
        "bound": bound,
        "wall_s": round(wall, 3),
        "search_s": round(child["search_s"], 3),
        "pooled_s": round(child["pooled_s"], 3),
        "peak_rss_mb": round(child["peak_rss_mb"], 1),
        "triads": child["triads"],
    }


def main(argv: list[str]) -> int:
    bounds = [int(a) for a in argv if a.isdigit()]
    if not bounds or len(bounds) != len(argv) or min(bounds) < 1:
        print("usage: search_wall.py BOUND [BOUND ...]  (each BOUND >= 1)", file=sys.stderr)
        return 2
    try:
        runs = [measure(bound) for bound in bounds]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({**_generate_wall().machine_info(), "search": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
