"""A fresh process loads search only for the commands that use it, numpy
only when it searches and multiprocessing only when it starts a worker.
Only a search may load dataclasses or inspect, since numpy imports inspect.

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

# The modules that only some commands need.
LAZY = ("squaretriads.search", "multiprocessing", "numpy")
# Standard modules that cost a cold start milliseconds and that no command
# but a search needs: the value classes are records, not dataclasses.
UNNEEDED = ("dataclasses", "inspect")

# Imports the front end, runs one command and reports on stderr's last line
# which of LAZY were loaded after the import and after the command, which of
# UNNEEDED were loaded after the command, and how many worker processes were
# left running.  multiprocessing is imported only after the reports, to count
# the workers.
CHILD = """
import json, sys
LAZY = %r
UNNEEDED = %r
import squaretriads.cli
after_import = [name for name in LAZY if name in sys.modules]
code = squaretriads.cli.main(sys.argv[1:])
after_command = [name for name in LAZY if name in sys.modules]
unneeded = [name for name in UNNEEDED if name in sys.modules]
import multiprocessing
sys.stderr.write("\\n" + json.dumps({"after_import": after_import, "after_command": after_command,
                                       "unneeded": unneeded, "children": len(multiprocessing.active_children())}))
sys.exit(code)
""" % (LAZY, UNNEEDED)

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


def child_env():
    """The environment of a fresh interpreter that imports this squaretriads."""
    env = dict(os.environ)
    package_root = str(Path(squaretriads.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_cold(*argv):
    """(stdout, report) of the command argv in a fresh interpreter; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_importing_the_front_end_loads_no_module_that_only_some_commands_need():
    code = "import json, sys; import squaretriads.cli; print(json.dumps([m for m in %r if m in sys.modules]))" % (
        LAZY + UNNEEDED,
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("argv", NO_SEARCH, ids=lambda argv: argv[0])
def test_commands_that_do_not_search_never_load_numpy(argv):
    _, report = run_cold(*argv)
    assert report["after_import"] == []
    # only the table and the corpus, which search keeps, load it; none starts a worker
    assert report["after_command"] == (["squaretriads.search"] if argv[0] in ("table1", "corpus") else [])
    assert report["unneeded"] == []
    assert report["children"] == 0


def test_search_loads_numpy():
    out, report = run_cold("search", "300")
    del report["unneeded"]  # numpy imports inspect itself
    # a serial search starts no worker, so it leaves multiprocessing unloaded
    assert report == {"after_import": [], "after_command": ["squaretriads.search", "numpy"], "children": 0}
    assert len(out.splitlines()) == 2


def test_cold_pooled_search_finds_the_serial_triads_and_leaves_no_worker():
    serial, _ = run_cold("search", "2000")
    pooled, report = run_cold("search", "2000", "--workers", "2")
    del report["unneeded"]
    assert pooled == serial
    assert len(serial.splitlines()) == 20
    assert report == {"after_import": [], "after_command": list(LAZY), "children": 0}
