#!/usr/bin/env python3
"""Quick self-test of the benchmark (about 15 seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and run.py name the same workloads and metrics
with the same units, that one short run per trace mode emits exactly those
metrics, each with its unit and a numeric value, that the output gate
rejects a corrupted output, and that the benchmark refuses to run without
the qcanon sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS, Request, check_output, digest

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest: FAILED: {what}")
    print(f"ok  {what}")


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    expect({w["name"] for w in SPEC["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json names the workloads run.py defines")
    expect(declared("end_to_end") == run.END_TO_END,
           "end-to-end metrics and units match BENCHMARK.json")
    expect(declared("per_layer") == run.PER_LAYER,
           "per-layer metrics and units match BENCHMARK.json")

    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench("--workload", "verify_sweep", "--seed", "1",
                     "--seconds", "1", "--trace", trace)
        expect(proc.returncode == 0, f"trace {trace} run exits 0")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"trace {trace} result has exactly the four keys")
        expect(result["correct"] and result["failed"] == 0,
               f"trace {trace} outputs pass every check")
        metrics = result["metrics"]
        expect(set(metrics) == set(declared(section)),
               f"trace {trace} emits every {section} metric and no other")
        expect(all(isinstance(m["value"], (int, float))
                   and m["unit"] == declared(section)[name]
                   for name, m in metrics.items()),
               f"trace {trace} metrics each carry a number and their unit")

    req = Request("basis", (1, 1), 1)
    good = (b'{"basis": [{"coeffs": [{"index": [0, 1], "value": [[0, "1"]]}, '
            b'{"index": [1, 0], "value": [[-2, "-1"]]}], "index": [0, 1]}, '
            b'{"coeffs": [{"index": [1, 0], "value": [[0, "1"]]}], '
            b'"index": [1, 0]}]}')
    golden = {req.key: digest(req, good)}
    expect(check_output(req, 0, good, b"", golden) == (2, []),
           "the gate passes a well-formed basis")
    bad = good.replace(b'[[-2, "-1"]]', b'[[2, "-1"]]')
    _, problems = check_output(req, 0, bad, b"", golden)
    expect(len(problems) == 2 and "v^2" in problems[1],
           "the gate rejects a changed digest and a positive exponent")

    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "basis_large", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(run.ROOT / ".perfbench_work", ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout,
           "without src/qcanon the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
