"""The experiment scripts print exactly their recorded output.

``tests/data/<script>.stdout`` holds each script's stdout with default
arguments; a change that moves any number there must re-record the file
and say which numbers moved and why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_rate_table", "run_failure_demos"])
def test_stdout_matches_recorded(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")], env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / f"{script}.stdout").read_bytes()
