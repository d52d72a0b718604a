"""Replay the recorded CLI requests and compare stdout digests.

``cli_golden.json`` holds, for each request, the argv passed to
``qcanon.cli.main`` and the sha256 of what it wrote to stdout.  Any change to
the bytes of a listed output fails here, except `verify`'s timings, which are
stripped before hashing (the same normalization as ``perfbench/workloads.py``).
"""

import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import types
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


#: The functions of the production modules (all of src/qcanon but
#: `verify.py` and `reference.py`) that no recorded request other than
#: `verify` enters (dunders aside), each with the reason it stays.  Anything
#: else unreached by those requests is either dead or a reference, which
#: belongs in `reference.py`.
UNREACHED = {
    "qring.QScalar.from_int": "the int operand of + and -, which tests use",
    "qring.QScalar._render_power": "a power of q in str(QScalar), which "
                                   "only failure messages, `verify` details "
                                   "and the demos print",
    "linalg.Vector.dim": "the length of a Vector, read by the tests",
    "linalg.Vector.support": "the sorted rows of a vector, for "
                             "BasisVector.support and its repr",
    "canonical.BasisVector.coeff": "one coefficient of a basis element, "
                                   "read by `verify` and the tests",
    "canonical.BasisVector.support": "the indices of a basis element's "
                                     "support, read by `verify` and the "
                                     "tests",
    "cli.cmd_verify": "the `verify` subcommand, which the replay leaves "
                      "out",
    "cli.run": "the process entry; it ends the process with os._exit, so "
               "the replay calls main() instead",
}


def reach() -> dict[str, list[str]]:
    """Replay every recorded request but `verify` in this process under
    sys.setprofile.  Returns, dunders aside, the functions of reference.py
    (`reference`), those of them entered (`reference_entered`), and those
    of the production modules never entered (`unreached`)."""
    import qcanon
    from qcanon.cli import main

    defined = {}  # (file, first line, name) -> module.qualified.name

    def walk(code, module, prefix):
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                name = f"{prefix}{c.co_name}"
                # class bodies run at import; lambdas and comprehensions
                # are parts of the function that holds them
                if c.co_flags & inspect.CO_OPTIMIZED \
                        and not c.co_name.startswith(("<", "__")):
                    defined[c.co_filename, c.co_firstlineno,
                            c.co_name] = f"{module}.{name}"
                walk(c, module, f"{name}.")

    for path in Path(qcanon.__file__).parent.glob("*.py"):
        walk(compile(path.read_text(), str(path), "exec"), path.stem, "")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for case in CASES:
            if case["argv"][0] == "verify":
                continue
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(case["argv"]) == 0, case["argv"]
    finally:
        sys.setprofile(None)
    reached = {defined[code.co_filename, code.co_firstlineno, code.co_name]
               for code in entered
               if (code.co_filename, code.co_firstlineno,
                   code.co_name) in defined}
    every = set(defined.values())
    reference = {f for f in every if f.startswith("reference.")}
    return {"reference": sorted(reference),
            "reference_entered": sorted(reference & reached),
            "unreached": sorted(f for f in every - reached - reference
                                if not f.startswith("verify."))}


def test_every_src_function_is_reached():
    # a fresh interpreter: here earlier tests have warmed the caches, so a
    # function reached only through a cache miss might never be entered
    here = Path(__file__).parent
    env = {**os.environ, "QCANON_MAX_DIM": str(10 ** 9),  # runs slice_dim
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"),
                                          str(here)])}
    done = subprocess.run(
        [sys.executable, "-c", "import json, test_cli_golden as t; "
         "print(json.dumps(t.reach()))"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    # both ways: no request but `verify` runs a reference, and each of them
    # runs every production function it can
    assert "reference._solve_triangular" in got["reference"]
    assert got["reference_entered"] == []
    assert got["unreached"] == sorted(UNREACHED)
