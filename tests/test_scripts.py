"""The example scripts run to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["random_scorer_demo.py", "--total", "2000", "--frequent", "900", "--rare", "10",
         "--trials", "3"],
        ["run_benchmark.py", "--seeds", "0", "--variants", "two_stage,baseline_plain"],
    ],
    ids=["random_scorer_demo", "run_benchmark"],
)
def test_script_exits_zero(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
