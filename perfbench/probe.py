"""Set-up probe: a fresh interpreter imports heterodro.cli and runs the warm-up.

Usage: python3 probe.py SRC_DIR WARMUP_ARG...
The caller times the whole process, from spawn to exit.
"""

import contextlib
import io
import sys

sys.path.insert(0, sys.argv[1])

import heterodro.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    heterodro.cli.main(sys.argv[2:])
