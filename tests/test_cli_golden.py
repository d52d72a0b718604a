"""Replay the recorded CLI requests and compare stdout digests.

``cli_golden.json`` holds, for each request, the argv passed to
``qcanon.cli.main`` and the sha256 of what it wrote to stdout.  Any change to
the bytes of a listed output fails here, except `verify`'s timings, which are
stripped before hashing (the same normalization as ``perfbench/workloads.py``).
"""

import hashlib
import json
import re
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
