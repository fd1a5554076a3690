"""The experiment scripts and the CLI print exactly their recorded output.

``tests/data/<script>.stdout`` holds each script's stdout with default
arguments, ``tests/data/dro_scan.stdout`` the scan commands below and
``tests/data/cli_rows.stdout`` the row commands below and
``tests/data/distance.stdout`` the distance commands below; a change that moves
any number there must re-record the file and say which numbers moved and
why."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
# cell, and dro-scan on explicit grids of 1 055, 1 905 and 875 measures.
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
] + [
    # 875 measures whose windows are scanned one group per location
    ["dro-scan", "--problem", "newsvendor:1,1,1", "--policy", "saa", "--kind", "tv",
     "--eps", "0.1", "--locations", "0,0.25,0.5,0.75,1", "--weight-res", "10",
     "--max-atoms", "4"],
]


def test_dro_scan_stdout_matches_recorded():
    out = io.StringIO()
    for argv in SCAN_COMMANDS:
        out.write("$ hetero-dro " + " ".join(argv) + "\n")
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    assert out.getvalue().encode() == (ROOT / "tests" / "data" / "dro_scan.stdout").read_bytes()


# The row commands: regret with and without --kind/--eps, adversarial for
# every family, rates in each mode, a sweep with an eps outside the
# construction's validity range (a skipped row) and a --strict run that
# exits 3.  Each block is headed by its command line and its exit code.
ROW_COMMANDS = [
    ["regret", "--problem", "pricing:1", "--policy", "saa", "--mu", "0.9:1.0@1.0",
     "--nu", "0.95:1.0@1.0"],
    ["regret", "--problem", "ski:3,10", "--policy", "cap:4", "--mu", "1:0.5,10:0.5@10",
     "--nu", "1:0.6,10:0.4@10", "--kind", "tv", "--eps", "0.1"],
    ["adversarial", "--name", "nv_tv_pair", "--params", "eps=0.1,c_u=1,c_o=2,M=1"],
    ["adversarial", "--name", "pr_k_pair", "--params", "eps=0.05"],
    ["adversarial", "--name", "pr_w_saa_fail", "--params", "eps=0.02,eta=0.01"],
    ["adversarial", "--name", "pr_w_lower", "--params", "eps=0.04"],
    ["adversarial", "--name", "ski_k_saa_fail", "--kind", "k", "--params", "M=10,b=3,eps=0.01"],
    ["adversarial", "--name", "ski_k_lower", "--params", "b=2,M=10,eps=0.1"],
    ["adversarial", "--name", "ski_w_saa_fail", "--params", "b=2,M=10,eps=0.1"],
    ["adversarial", "--name", "ski_w_lower", "--policy", "dsaa:0.5",
     "--params", "b=2,M=10,eps=0.1"],
    ["adversarial", "--name", "hetero_helps", "--params", "k=2"],
    ["rates", "--problem", "ski:3,10", "--kind", "k", "--eps-grid", "0.01,0.02,0.05"],
    ["rates", "--problem", "newsvendor:1,1,1", "--kind", "tv", "--policy", "saa",
     "--eps-grid", "0.1,0.2,0.7"],
    ["rates", "--problem", "pricing:1", "--kind", "w", "--eps-grid", "0.01,0.02,0.04",
     "--mode", "monte-carlo", "--trials", "5", "--n", "200"],
    ["rates", "--problem", "ski:2,10", "--kind", "w", "--policy", "saa",
     "--eps-grid", "0.01,0.02,0.04", "--mode", "monte-carlo", "--trials", "5", "--n", "200",
     "--strict"],
    ["rates", "--problem", "newsvendor:1,2,1", "--kind", "w", "--eps-grid", "0.01,0.02,0.05",
     "--mode", "dro-scan", "--strict"],
    ["regret", "--problem", "pricing:1", "--policy", "saa", "--mu", "0.5:1.0@1.0",
     "--nu", "0.5:1.0@1.0", "--kind", "wasserstein", "--eps", "0.01", "--strict"],
]


def test_row_commands_stdout_matches_recorded():
    out = io.StringIO()
    for argv in ROW_COMMANDS:
        block = io.StringIO()
        with contextlib.redirect_stdout(block):
            code = main(argv)
        out.write("$ hetero-dro " + " ".join(argv) + f"\n# exit {code}\n" + block.getvalue())
    assert out.getvalue().encode() == (ROOT / "tests" / "data" / "cli_rows.stdout").read_bytes()


def _measure_text(text: str) -> str:
    """``text``, or for ``seed=<n>`` 1 000 atoms on [0, 1] with random
    weights, written with 17 significant digits."""
    if not text.startswith("seed="):
        return text
    rng = np.random.default_rng(int(text[5:]))
    pts, wts = np.sort(rng.uniform(0.0, 1.0, 1000)), rng.random(1000)
    wts /= wts.sum()
    return ",".join(f"{p:.17g}:{w:.17g}" for p, w in zip(pts, wts)) + "@1.0"


# (a, b) pairs for `distance`: equal single atoms, a -0.0 atom against a 0.0
# atom, atoms at upper, disjoint supports, rounded atoms (0.1 + 0.2 against
# 0.3) with equal weights, and a seeded 1 000-atom pair.  ``--a=`` keeps a
# leading ``-`` from reading as an option.
DISTANCE_PAIRS = [
    ("0.5:1.0@1.0", "0.5:1.0@1.0"),
    ("-0.0:0.5,1.0:0.5@1.0", "0.0:0.25,0.5:0.75@1.0"),
    ("3.0:0.4,10.0:0.6@10.0", "10.0:1.0@10.0"),
    ("0.1:0.2,0.3:0.8@1.0", "0.6:0.5,0.9:0.5@1.0"),
    ("0.1:0.25,0.30000000000000004:0.25,0.7:0.25,1.0:0.25@1.0",
     "0.3:0.25,0.4:0.25,0.7:0.25,1.0:0.25@1.0"),
    ("seed=1", "seed=2"),
]


def test_distance_stdout_matches_recorded():
    out = io.StringIO()
    for a, b in DISTANCE_PAIRS:
        for kind in ("k", "tv", "w"):
            out.write(f"$ hetero-dro distance --kind {kind} --a={a} --b={b}\n")
            argv = ["distance", "--kind", kind, f"--a={_measure_text(a)}", f"--b={_measure_text(b)}"]
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
    assert out.getvalue().encode() == (ROOT / "tests" / "data" / "distance.stdout").read_bytes()
