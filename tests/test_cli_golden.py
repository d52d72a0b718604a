"""Replay the recorded CLI requests and compare stdout digests.

``cli_golden.json`` holds, for each request, the argv passed to
``qcanon.cli.main`` and the sha256 of what it wrote to stdout.  Any change to
the bytes of a listed output fails here, except `verify`'s timings, which are
stripped before hashing (the same normalization as ``perfbench/workloads.py``).
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qcanon.cli import main

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
VERIFY_TIME = re.compile(r" \(\d+\.\d+s\)| in \d+\.\d+s$", re.M)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_stdout_matches_recorded_digest(capsys, case):
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == 0
    if case["argv"][0] == "verify":
        out = VERIFY_TIME.sub("", out)
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


# The first recorded request of each subcommand, run as `python -m
# qcanon.cli` in a fresh interpreter: in this process earlier tests have
# already loaded every module, which would hide a command that works only
# because something else imported what it needs.
FIRST: dict[str, dict] = {}
for _case in CASES:
    FIRST.setdefault(_case["argv"][0], _case)
COLD = list(FIRST.values())


def test_cold_cases_cover_every_subcommand():
    assert sorted(c["argv"][0] for c in COLD) == [
        "basis", "cable", "canonical2", "diagrams", "rmatrix", "verify"]


@pytest.mark.parametrize("case", COLD, ids=[" ".join(c["argv"]) for c in COLD])
def test_cold_request_matches_recorded_digest(case):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    env.pop("QCANON_MAX_DIM", None)
    done = subprocess.run([sys.executable, "-m", "qcanon.cli", *case["argv"]],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    if case["argv"][0] == "verify":
        out = VERIFY_TIME.sub("", out)
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
