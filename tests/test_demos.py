"""Every walkthrough in demos/ runs to completion and prints what it always
printed: a change that moves a demo's stdout updates its digest here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_laurent_scalars.py":
        "61d7c0eb724c1fa175e7d385d54b8b4c9fda9e0190cba6289c9485afb55230bc",
    "02_modules_and_weight_spaces.py":
        "8816fd5caa8eb919c106431e6f97ce18740f33ec6288faebbf2efb12685c9dce",
    "03_braiding.py":
        "f3e60ef3366663d647b9cb8d543b6cbbb630172ebc38ae0c3c3ba1d9c90ae3a7",
    "04_dual_canonical_basis.py":
        "115fab7f57fb8da60696b17c7dc19218453cad92f59a6019b892953813f17892",
    "05_arc_diagrams.py":
        "dcc0ca3b187028161652c1af95150f4dbb50009031e375f2358a1e798dd501b7",
    "06_cabling.py":
        "c3aa61aae47f59c0a24b9afbefd5acae04fc0dbb6828cb9b060a943dc6c2641d",
}


def test_all_six_demos_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    """Exits 0 and prints the bytes recorded in STDOUT_SHA256."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout and b"Traceback" not in done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == \
        STDOUT_SHA256[demo.name], done.stdout.decode()
