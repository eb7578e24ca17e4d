"""The test settings report a failing hypothesis test as an ordinary failure.

pyproject.toml turns every warning into an error.  hypothesis imports libcst
while it reports a failure, and that import warns (mypy_extensions.TypedDict
is deprecated); as an error, the warning once turned the failure into an
INTERNALERROR that ended the session before the remaining tests ran.  This
runs pytest with the repository's settings on a planted failing test, in a
fresh process.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=10))
def test_planted_failure(n):
    assert n < 0


def test_after_it():
    pass
"""


def test_planted_hypothesis_failure_is_an_ordinary_failure(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
        + ["test_planted.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
