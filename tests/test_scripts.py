"""The experiment scripts and the DRO scan print exactly their recorded output.

``tests/data/<script>.stdout`` holds each script's stdout with default
arguments, and ``tests/data/dro_scan.stdout`` the scan commands below; a
change that moves any number there must re-record the file and say which
numbers moved and why.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heterodro.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_rate_table", "run_failure_demos"])
def test_stdout_matches_recorded(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")], env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / f"{script}.stdout").read_bytes()


# rates --mode dro-scan on the default grids of each (problem, distance)
# cell, and dro-scan on explicit grids of 1 055 and 1 905 measures.
SCAN_COMMANDS = [
    ["rates", "--problem", problem, "--kind", kind, "--policy", "recommended",
     "--eps-grid", "0.01,0.03,0.1", "--mode", "dro-scan"]
    for problem in ("newsvendor:1,1,1", "pricing:1", "ski:1,10")
    for kind in ("kolmogorov", "tv", "wasserstein")
] + [
    ["dro-scan", "--problem", problem, "--policy", "saa", "--kind", kind, "--eps", "0.1",
     "--locations", "0.1,0.3,0.5,0.7,0.9", "--weight-res", res, "--max-atoms", "3",
     "--max-pairs", "100000000"]
    for problem, res in (("newsvendor:1,1,1", "15"), ("pricing:1", "20"))
    for kind in ("kolmogorov", "tv", "wasserstein")
]


def test_dro_scan_stdout_matches_recorded():
    out = io.StringIO()
    for argv in SCAN_COMMANDS:
        out.write("$ hetero-dro " + " ".join(argv) + "\n")
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    assert out.getvalue().encode() == (ROOT / "tests" / "data" / "dro_scan.stdout").read_bytes()
