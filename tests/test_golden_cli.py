"""Golden snapshots of whole-CLI stdout.

Two outputs that cover a lot of code at once are pinned byte for byte:

* ``python -m repro verify --fuzz 50 --seed 0`` — the fuzz summary
  (generated nests, transform trials, oracle counts). Tier-1 runs it on
  every supported Python, so generator determinism is checked on each.
* ``python -m repro.experiments --no-ledger`` — every paper table and
  figure at default sizes, including Figure 3's printed LoopCost
  polynomials. Timings go to stderr and are not compared.

After a *deliberate* output change, refresh with::

    PYTHONPATH=src python -m pytest tests/test_golden_cli.py -m '' --update-golden
"""

import subprocess
import sys

import pytest


def stdout_of(module: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_verify_fuzz50_stdout(golden):
    golden("verify_fuzz50.txt", stdout_of("repro", "verify", "--fuzz", "50", "--seed", "0"))


@pytest.mark.slow
def test_experiments_stdout(golden):
    golden("experiments.txt", stdout_of("repro.experiments", "--no-ledger"))
