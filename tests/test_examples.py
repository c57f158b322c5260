"""The shipped examples run, and full_framework's numbers stay pinned.

Each ``examples/*.py`` runs in a subprocess and must exit 0.
``examples/full_framework.py`` prints cycles and misses after each step
of the paper's three-step framework on matrix multiply; its stdout is
the snapshot ``tests/golden/full_framework.txt`` (refresh with
``--update-golden`` after a deliberate change).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def run_example(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, cwd=ROOT
    )


def test_full_framework_is_shipped():
    assert "full_framework.py" in {path.name for path in EXAMPLES}


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_runs(path, golden):
    proc = run_example(path)
    assert proc.returncode == 0, proc.stderr
    if path.name == "full_framework.py":
        golden("full_framework.txt", proc.stdout)
