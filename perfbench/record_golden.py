#!/usr/bin/env python3
"""Record the sha256 of every benchmark request's output in golden.json.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are the reference: the benchmark
counts every later request whose output hashes differently as failed.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import CLI_CMD, WORK, Bench
from workloads import GOLDEN_PATH, WORKLOADS, digest


def main() -> int:
    WORK.mkdir(exist_ok=True)
    bench = Bench(seconds=0)
    golden = {}
    for workload in WORKLOADS.values():
        for req in workload.pool:
            code, _, _, _, out, err = bench.spawn([*CLI_CMD, *req.argv])
            if code != 0:
                sys.stderr.write(err.decode(errors="replace"))
                raise SystemExit(f"{req.key}: exit code {code}")
            golden[req.key] = digest(req, out)
    shutil.rmtree(WORK, ignore_errors=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
