"""A fresh process loads numpy only when it searches.

Each test runs the command-line front end in a new interpreter, so that
what the test process itself imported does not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squaretriads

# Imports the front end, runs one command and reports on stderr's last line
# whether numpy was loaded after the import and after the command, and
# whether any worker process was left running.
CHILD = """
import multiprocessing, json, sys
import squaretriads.cli
after_import = "numpy" in sys.modules
code = squaretriads.cli.main(sys.argv[1:])
sys.stderr.write("\\n" + json.dumps({"after_import": after_import, "after_command": "numpy" in sys.modules,
                                       "children": len(multiprocessing.active_children())}))
sys.exit(code)
"""

# Every command but search, with arguments it succeeds on.
NO_SEARCH = [
    ["verify", "45", "64", "180"],
    ["family", "parmsol1", "1", "2"],
    ["family-list"],
    ["family-check"],
    ["two-squares", "45"],
    ["table1"],
    ["corpus"],
    ["generate", "2"],
    ["fermat", "--side", "both"],
    ["compose", "--with", "leading"],
]


def run_cold(*argv):
    """(stdout, report) of the command argv in a fresh interpreter; it must exit 0."""
    env = dict(os.environ)
    package_root = str(Path(squaretriads.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv", NO_SEARCH, ids=lambda argv: argv[0])
def test_commands_that_do_not_search_never_load_numpy(argv):
    _, report = run_cold(*argv)
    assert report["after_import"] is False
    assert report["after_command"] is False


def test_search_loads_numpy():
    out, report = run_cold("search", "300")
    assert report == {"after_import": False, "after_command": True, "children": 0}
    assert len(out.splitlines()) == 2


def test_cold_pooled_search_finds_the_serial_triads_and_leaves_no_worker():
    serial, _ = run_cold("search", "2000")
    pooled, report = run_cold("search", "2000", "--workers", "2")
    assert pooled == serial
    assert len(serial.splitlines()) == 20
    assert report == {"after_import": False, "after_command": True, "children": 0}
