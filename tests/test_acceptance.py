"""Acceptance gate: every stated criterion, at its stated (exact) tolerance.

Each test prints one PASS line (visible under ``pytest -s`` or in the summary
of the ``qcanon verify`` command, which runs the same checks).  All equality
assertions are exact symbolic identities; the only tolerances anywhere are
the wall-clock budgets.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from qcanon.verify import run_suite

MAX_WEIGHT_SUM = 6


def _gate(number, name, bound=MAX_WEIGHT_SUM, budget=None):
    [result] = run_suite(name, bound)
    line = f"{'PASS' if result.passed else 'FAIL'} criterion {number:02d} " \
           f"[{result.name}] ({result.elapsed:.2f}s): {result.detail}"
    print(line)
    assert result.passed, line
    if budget is not None:
        assert result.elapsed < budget, \
            f"criterion {number} exceeded its {budget}s budget: " \
            f"{result.elapsed:.2f}s"
    return result


def _total_dimension(max_sum):
    """Sum of dim(V_lam1 x ... x V_lamn) = prod(lam_i + 1) over every
    composition lam with sum <= max_sum: the number of basis vectors a sweep
    over all of their weight slices meets.  g[t] sums over the compositions
    of t, split by the first part k."""
    g = [1]
    for t in range(1, max_sum + 1):
        g.append(sum((k + 1) * g[t - k] for k in range(1, t + 1)))
    return sum(g[1:])


def test_criterion_01_golden_small_case():
    _gate(1, "golden_dual_basis", budget=1.0)


def test_criterion_02_yang_baxter():
    _gate(2, "yang_baxter", budget=5.0)


def test_criterion_03_braiding_identities():
    _gate(3, "braid_factorizations", budget=60.0)


def test_criterion_04_involutivity():
    _gate(4, "involutions")


def test_criterion_05_solver_contract():
    result = _gate(5, "solver_contract")
    # every level of every composition was solved
    assert result.detail.startswith(f"{_total_dimension(MAX_WEIGHT_SUM)} ")


def test_criterion_06_bijection_counts():
    result = _gate(6, "bijection_counts")
    assert result.detail.startswith(f"{_total_dimension(MAX_WEIGHT_SUM)} ")


def test_criterion_07_singular_bases():
    _gate(7, "singular_bases")


def test_criterion_08_catalan():
    _gate(8, "catalan", 8)


def test_criterion_09_cabling():
    result = _gate(9, "cabling", 5)
    # the only observed scalar is exactly 1 (non-unit scalars would be
    # reported in the detail and fail here)
    assert "{'1':" in result.detail


def test_criterion_10_duality():
    _gate(10, "duality", 5)


def test_criterion_11_performance_envelope():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qcanon.cli", "verify", "--suite", "all",
         "--max-weight-sum", str(MAX_WEIGHT_SUM)],
        capture_output=True, text=True, timeout=360)
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 11 [performance] ({elapsed:.2f}s): full verify "
          f"suite, exit code {proc.returncode}")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0
    assert proc.stdout.count("PASS") == 10


def test_checks_still_run_under_python_O():
    # `python -O` strips assert statements; the checks must not depend on them
    code = ("import qcanon.canonical as c, qcanon.verify as v\n"
            "v.in_qinv_ideal = lambda x: False\n"
            "[r] = v.run_suite('solver_contract', 4)\n"
            "print('PASS' if r.passed else 'FAIL', r.detail)\n"
            "c.in_qinv_ideal = lambda x: False\n"
            "try:\n"
            "    c.dual_canonical_basis((1, 1), 1)\n"
            "    print('PASS')\n"
            "except AssertionError as exc:\n"
            "    print('FAIL', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    verify_line, solver_line = done.stdout.splitlines()
    assert verify_line == "FAIL AssertionError: coefficient outside " \
                          "q^-1 Z[q^-1] on (1, 1) level 1"
    assert solver_line.startswith("FAIL coefficient")
