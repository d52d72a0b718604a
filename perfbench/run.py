#!/usr/bin/env python3
"""Layered benchmark of the qcanon command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it drives the qcanon sources in ``src/`` next to this
directory.  A closed loop with one client sends one request at a time, each
in a fresh interpreter, and uses one core.  Rounds of the workload's request
pool run until the next round would end after S seconds (always at least
one).  Every output is checked, and the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: one round of counters, then pairs of untraced and traced
rounds.  See README.md for the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import layers
from workloads import (WORKLOADS, Request, check_output, load_golden,
                       verify_check_times)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REPORT = WORK / "report.json"
CLI_CMD = [sys.executable, "-m", "qcanon.cli"]
SETUP_CMD = [sys.executable, "-c", "import qcanon.cli"]
# The machine is shared, and other tenants slow it down for seconds to
# minutes at a time.  A fixed pure-Python program that does not touch
# qcanon runs before and after each timed request; wall_s and cpu_s scale
# each request by REFERENCE_NOMINAL_S over the mean of those two times,
# i.e. report it at the speed at which the reference takes that long.
REFERENCE_CMD = [sys.executable, "-c", """
d = {}
for i in range(150000):
    k = i * 7919 % 1009
    d[k] = d.get(k, 0) + i
    t = {k: i, -k: 1}
"""]
REFERENCE_NOMINAL_S = 0.125
# A request still running this long after the benchmark started is killed
# (and counted as failed), so a run ends inside its 180 s limit.
HARD_LIMIT_S = 165

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "items_per_s": "1/s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
VERIFY_CHECKS = ("golden_dual_basis", "yang_baxter", "braid_factorizations",
                 "involutions", "solver_contract", "bijection_counts",
                 "singular_bases", "catalan", "cabling", "duality")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


PER_LAYER = {name: _unit(name) for name in (
    layers.SPAN_METRICS + layers.COUNT_METRICS
    + tuple(f"verify.{c}_s" for c in VERIFY_CHECKS)
    + ("cli.output_bytes", "trace.overhead_ratio"))}


@dataclass
class Sample:
    key: str
    wall: float
    cpu: float
    items: int
    out_bytes: int
    extra: dict = field(default_factory=dict)
    scale: float = 1.0   # nominal over measured machine speed


class Bench:
    """Runs requests in fresh processes and keeps the failure tally."""

    def __init__(self, seconds: int):
        self.seconds = seconds
        self.started = time.perf_counter()
        self.golden = load_golden()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        self.env.pop("QCANON_MAX_DIM", None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rss_kb = 0
        self.missing: set[str] = set()   # tracer targets qcanon lacks

    def spawn(self, cmd: list[str]):
        """(exit code, wall s, cpu s, max rss KB, stdout, stderr) of cmd."""
        limit = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())

    def _must_run(self, cmd: list[str], what: str) -> float:
        code, wall, _, _, _, err = self.spawn(cmd)
        if code != 0:
            sys.stderr.write(err.decode(errors="replace"))
            raise SystemExit(f"perfbench: {what} failed with exit code {code}")
        return wall

    def setup(self) -> float:
        return self._must_run(SETUP_CMD, "importing qcanon.cli")

    def reference(self) -> float:
        return self._must_run(REFERENCE_CMD, "the reference program")

    def request(self, req: Request, mode: str | None = None,
                request_id: str = "") -> Sample:
        if mode is None:
            cmd = [*CLI_CMD, *req.argv]
        else:
            REPORT.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "tracer.py"), mode, str(REPORT),
                   request_id, "--", *req.argv]
        code, wall, cpu, rss_kb, out, err = self.spawn(cmd)
        items, problems = check_output(req, code, out, err, self.golden)
        sample = Sample(req.key, wall, cpu, items, len(out))
        if mode is None:
            self.rss_kb = max(self.rss_kb, rss_kb)
            if req.command == "verify":
                sample.extra = verify_check_times(out)
        elif REPORT.is_file():
            with open(REPORT) as fh:
                report = json.load(fh)
            self.missing.update(report["missing"])
            sample.extra = (layers.span_metrics(report) if mode == "spans"
                            else report)
        else:
            problems.append("tracer wrote no report")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{req.key}: {p}" for p in problems[:3]]
        return sample

    def rounds(self, one_round, start: float | None = None) -> list:
        """Call one_round until the next call would end more than --seconds
        after `start` (default: now)."""
        start = time.perf_counter() if start is None else start
        results = []
        while True:
            t0 = time.perf_counter()
            results.append(one_round())
            now = time.perf_counter()
            if now - start + (now - t0) > self.seconds:
                return results


def pool_sum(samples: list[Sample], value) -> float:
    """Median of value(sample) per request, summed over the request pool:
    one round's worth."""
    by_key = defaultdict(list)
    for s in samples:
        by_key[s.key].append(value(s))
    return sum(statistics.median(v) for v in by_key.values())


def timed_run(bench: Bench, workload,
              rng: random.Random) -> tuple[dict, dict]:
    setup: list[float] = []
    samples: list[Sample] = []
    refs = [bench.reference()]

    def one_round():
        for req in workload.draw(rng):
            # one set-up sample before each request, so that the samples
            # spread over the whole run
            setup.append(bench.setup())
            sample = bench.request(req)
            refs.append(bench.reference())
            sample.scale = 2 * REFERENCE_NOMINAL_S / (refs[-2] + refs[-1])
            samples.append(sample)

    rounds = len(bench.rounds(one_round))
    wall = pool_sum(samples, lambda s: s.wall * s.scale)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": pool_sum(samples, lambda s: s.cpu * s.scale),
        "items_per_s": pool_sum(samples, lambda s: s.items) / wall,
        "peak_rss_mb": bench.rss_kb / 1024,
        "ok_ratio": (bench.attempted - bench.failed) / bench.attempted,
    }, {
        "rounds": rounds,
        "raw_wall_s": pool_sum(samples, lambda s: s.wall),
        "raw_cpu_s": pool_sum(samples, lambda s: s.cpu),
        "reference_s": statistics.median(refs),
    }


def traced_run(bench: Bench, workload,
               rng: random.Random) -> tuple[dict, dict]:
    start = time.perf_counter()
    counted = [bench.request(r, "counts", f"c{i}")
               for i, r in enumerate(workload.draw(rng))]

    round_ids = itertools.count()

    def pair():
        # each request untraced, then traced right after it, so that both
        # meet the machine at about the same speed
        plain, traced = [], []
        n = next(round_ids)
        for i, req in enumerate(workload.draw(rng)):
            plain.append(bench.request(req))
            traced.append(bench.request(req, "spans", f"t{n}.{i}"))
        return plain, traced

    pairs = bench.rounds(pair, start)
    plain = [s for p, _ in pairs for s in p]
    traced = [s for _, t in pairs for s in t]
    metrics = {name: pool_sum(traced, lambda s: s.extra.get(name, 0.0))
               for name in layers.SPAN_METRICS}
    metrics.update(layers.count_metrics([s.extra for s in counted]))
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}_s"] = pool_sum(
            plain, lambda s: s.extra.get(check, 0.0))
    metrics["cli.output_bytes"] = pool_sum(plain, lambda s: s.out_bytes)
    metrics["trace.overhead_ratio"] = (pool_sum(traced, lambda s: s.wall)
                                       / pool_sum(plain, lambda s: s.wall))
    return metrics, {"rounds": len(pairs)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcanon").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "git_revision": _git_revision(),
            "source_sha256": _source_digest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcanon" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no qcanon sources at {ROOT / 'src'}\n")
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running request is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    load_before, steal_before = os.getloadavg(), _steal_s()
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    try:
        bench = Bench(args.seconds)
        bench.setup()  # compiles bytecode; not measured
        run = traced_run if args.trace else timed_run
        metrics, measured = run(bench, workload, random.Random(args.seed))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    load_after, steal_after = os.getloadavg(), _steal_s()
    steal = (None if steal_before is None or steal_after is None
             else steal_after - steal_before)
    elapsed = time.perf_counter() - started

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seed_used": workload.seeded, "trace": args.trace,
        "requests": [r.key for r in workload.pool], **measured,
        "failed_ratio": bench.failed / bench.attempted,
        "problems": bench.problems[:20],
        "untraced_targets": sorted(bench.missing),
        "environment": environment(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "steal_s": steal, "elapsed_s": elapsed,
        # This run keeps one task busy, so load beyond 1.5 means another
        # process in this machine competed for the CPU; steal time means
        # the host ran other guests on our CPUs.
        "noisy_neighbour": (max(load_before[0], load_after[0]) > 1.5
                            or bool(steal and steal > 0.01 * elapsed)),
    }
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed_ratio = {record['failed_ratio']:.6g} ratio")
    for problem in bench.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"perfbench": record}, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
