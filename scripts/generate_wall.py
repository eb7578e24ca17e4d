"""Wall time, peak RSS and digest of generate_family(k), each k in a fresh process.

    python3 scripts/generate_wall.py 16 24

For each k, a new interpreter imports squaretriads from this checkout's
src/ and builds generate_family(k).  wall_s is the child's whole life as
the parent sees it, interpreter start-up and imports included;
generate_s is the generate_family(k) call alone, timed in the child after
its imports, so that a change to the generator is not lost in start-up,
imports and digest (at k = 16 on a shared 2-CPU x86-64 VM, about 0.1 s of
a 0.5 s wall_s); peak_rss_mb
is the child's own maximum resident set size, read before the digest;
sha256 is the digest of the family's family_to_json, with sorted keys, so
two checkouts can be compared on what they built as well as how fast.  A
k listed in KNOWN_SHA256 must build the digest listed there.  One JSON
line goes to standard output.  A child that fails, or a digest that
differs from the known one, makes the exit code 1.
scripts/bench.py runs this script as it is and keeps its line in BENCH_<n>.json.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy

SRC = Path(__file__).resolve().parent.parent / "src"
# Linux's size of the first CPU's level-2 cache
L2_CACHE = Path("/sys/devices/system/cpu/cpu0/cache/index2/size")

# The family_to_json digest of generate_family(k), for the k measured so far.
KNOWN_SHA256 = {
    16: "2d4c01b912c91651f1256f9e7a5b9225f2501332a1720e14d5b4bb7f488741bc",
    24: "487b751282fb7752b5c1b3eae37666074f6e5cb18de76abbb5747982afe5ac06",
}

CHILD = """
import hashlib, json, resource, sys, time
from squaretriads.ecurve import generate_family
from squaretriads.families import family_to_json
t0 = time.perf_counter()
family = generate_family(int(sys.argv[1]))
generate_s = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
digest = hashlib.sha256(json.dumps(family_to_json(family), sort_keys=True).encode()).hexdigest()
print(json.dumps({"generate_s": generate_s, "peak_rss_mb": peak, "sha256": digest}))
"""


def machine_info() -> dict:
    """The Python and numpy versions, CPU count, machine and L2 cache size (as the
    kernel gives it, such as "2048K"; None where it does not) a measurement ran on.
    The search's candidate batch was sized to the L2 cache."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "l2_cache": L2_CACHE.read_text().strip() if L2_CACHE.exists() else None,
    }


def fresh_process(child: str, arg: int, what: str) -> tuple[float, dict]:
    """Run the code child with argument arg in a new interpreter that imports
    squaretriads from src/; returns its wall time as seen from here and the
    JSON object on its last output line.  A failed child raises RuntimeError
    naming what."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", child, str(arg)], env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (what, done.stderr))
    return wall, json.loads(done.stdout.splitlines()[-1])


def measure(k: int) -> dict:
    """{"k", "wall_s", "generate_s", "peak_rss_mb", "sha256"} of one fresh process that builds generate_family(k)."""
    wall, child = fresh_process(CHILD, k, "generate_family(%d)" % k)
    if child["sha256"] != KNOWN_SHA256.get(k, child["sha256"]):
        raise RuntimeError("generate_family(%d) built digest %s, not the %s known" % (k, child["sha256"], KNOWN_SHA256[k]))
    return {
        "k": k,
        "wall_s": round(wall, 3),
        "generate_s": round(child["generate_s"], 3),
        "peak_rss_mb": round(child["peak_rss_mb"], 1),
        "sha256": child["sha256"],
    }


def main(argv: list[str]) -> int:
    ks = [int(a) for a in argv if a.isdigit()]
    if not ks or len(ks) != len(argv) or min(ks) < 1:
        print("usage: generate_wall.py K [K ...]  (each K >= 1)", file=sys.stderr)
        return 2
    try:
        runs = [measure(k) for k in ks]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({**machine_info(), "generate_family": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
