"""Workloads of the qcanon benchmark and the checks on their outputs.

A workload is a pool of CLI requests.  One round of a workload is the whole
pool in an order drawn from the run's seed, so every seed does the same work
and only the order of the requests changes.  Each request runs in a fresh
interpreter, so every request starts with cold caches.

The checks here do not use qcanon: slice dimensions come from the
benchmark's own count of index tuples, and every output must also hash to
the digest recorded in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass(frozen=True)
class Request:
    """One qcanon CLI invocation."""
    command: str                 # "basis", "diagrams" or "verify"
    lam: tuple[int, ...] = ()
    level: int = 0
    filter: str | None = None

    @property
    def argv(self) -> list[str]:
        if self.command == "verify":
            return ["verify", "--suite", "all", "--max-weight-sum", "6"]
        argv = [self.command, "--lambda", ",".join(map(str, self.lam)),
                "--level", str(self.level)]
        if self.filter:
            argv += ["--filter", self.filter]
        return argv

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _units(n: int) -> tuple[int, ...]:
    return (1,) * n


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    pool: tuple[Request, ...]

    def draw(self, rng: random.Random) -> list[Request]:
        """One round: the whole pool, in an order drawn from `rng`."""
        return rng.sample(self.pool, len(self.pool))


WORKLOADS = {w.name: w for w in (
    Workload(
        "basis_large",
        "the largest dual canonical bases at desk scale: solver and psi_c "
        "dominate, diagrams and cabling are idle",
        True,
        (Request("basis", _units(8), 4), Request("basis", _units(9), 3),
         Request("basis", _units(9), 4), Request("basis", (2,) * 6, 5))),
    Workload(
        "verify_sweep",
        "about 1500 small slices in one process with warm caches: every "
        "layer runs and per-call overhead dominates; the input is fixed, so "
        "the seed is ignored",
        False,
        (Request("verify"),)),
    Workload(
        "diagrams_large",
        "large diagram enumerations and JSON output with no ring "
        "arithmetic: the bypass workload for every algebra change",
        True,
        (Request("diagrams", _units(12), 6),
         Request("diagrams", _units(11), 5),
         Request("diagrams", _units(10), 5),
         Request("diagrams", (2,) * 6, 6, "singular"))),
)}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def slice_dim(lam: tuple[int, ...], level: int) -> int:
    """Number of tuples a with 0 <= a_i <= lam_i and sum(a) = level, by
    convolving the factors' weight multisets one factor at a time."""
    if level < 0:
        return 0
    ways = [1] + [0] * level
    for cap in lam:
        ways = [sum(ways[s - m] for m in range(min(cap, s) + 1))
                for s in range(level + 1)]
    return ways[level]


_VERIFY_TIME = re.compile(r" \(\d+\.\d+s\)| in \d+\.\d+s$", re.M)
_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\w+) \((\d+\.\d+)s\)", re.M)


def normalized(req: Request, out: bytes) -> bytes:
    """The bytes the digest is taken over: `verify` loses its timings."""
    if req.command == "verify":
        return _VERIFY_TIME.sub("", out.decode()).encode()
    return out


def digest(req: Request, out: bytes) -> str:
    return hashlib.sha256(normalized(req, out)).hexdigest()


def verify_check_times(out: bytes) -> dict[str, float]:
    """Per-check elapsed seconds as `verify` prints them."""
    lines = _VERIFY_LINE.findall(out.decode())
    return {name: float(t) for _, name, t in lines}


def load_golden() -> dict[str, str]:
    """Recorded digests by request key; none before the first recording."""
    if not GOLDEN_PATH.is_file():
        return {}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _check_basis(req: Request, doc: dict) -> tuple[int, list[str]]:
    problems = []
    basis = doc["basis"]
    want = slice_dim(req.lam, req.level)
    if len(basis) != want:
        problems.append(f"{len(basis)} basis vectors, slice dimension {want}")
    seen = set()
    for b in basis:
        idx = tuple(b["index"])
        seen.add(idx)
        if (len(idx) != len(req.lam) or sum(idx) != req.level
                or any(not 0 <= a <= c for a, c in zip(idx, req.lam))):
            problems.append(f"index {idx} outside the slice")
        lead = [c["value"] for c in b["coeffs"] if tuple(c["index"]) == idx]
        if lead != [[[0, "1"]]]:
            problems.append(f"lead coefficient of {idx} is {lead}, not 1")
        for c in b["coeffs"]:
            k = tuple(c["index"])
            if k == idx:
                continue
            if k < idx:
                problems.append(f"support {k} of {idx} below the lead index")
            for e, coeff in c["value"]:
                if e % 2 or e > -2 or int(coeff) == 0:
                    problems.append(
                        f"off-lead term v^{e} * {coeff} at {k} of {idx}")
    if len(seen) != len(basis):
        problems.append("repeated basis index")
    return len(basis), problems


def _check_diagrams(req: Request, doc: dict) -> tuple[int, list[str]]:
    problems = []
    diagrams = doc["diagrams"]
    want = slice_dim(req.lam, req.level)
    if req.filter == "singular":
        # singular vectors of a slice at or above weight 0
        want -= slice_dim(req.lam, req.level - 1)
    if doc["count"] != len(diagrams) or len(diagrams) != want:
        problems.append(f"count {doc['count']} with {len(diagrams)} diagrams, "
                        f"expected {want}")
    n = len(req.lam)
    indices = set()
    for d in diagrams:
        chords = [tuple(c) for c in d["chords"]]
        index = [0] * n
        for i, j in chords:
            if not 0 <= i < j <= n or (req.filter == "singular" and i == 0):
                problems.append(f"chord {(i, j)} not allowed")
                break
            index[j - 1] += 1
        if (d["points"] != n or tuple(d["capacities"]) != req.lam
                or len(chords) != req.level
                or any(a > c for a, c in zip(index, req.lam))):
            problems.append(f"diagram {chords} does not fit the request")
        indices.add(tuple(index))
    if len(indices) != len(diagrams):
        problems.append("two diagrams share an index tuple")
    return len(diagrams), problems


def _check_verify(out: bytes) -> tuple[int, list[str]]:
    lines = _VERIFY_LINE.findall(out.decode())
    passed = sum(status == "PASS" for status, _, _ in lines)
    problems = [] if lines and passed == len(lines) else [
        f"{len(lines) - passed} of {len(lines)} checks failed"]
    return passed, problems


def check_output(req: Request, code: int, out: bytes, err: bytes,
                 golden: dict[str, str]) -> tuple[int, list[str]]:
    """Items of work the output shows, and every problem found in it."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if b"Traceback" in err or b"Traceback" in out:
        problems.append("traceback")
    want = golden.get(req.key)
    if want is None:
        problems.append("no recorded digest")
    elif digest(req, out) != want:
        problems.append("output differs from the recorded digest")
    try:
        if req.command == "verify":
            items, found = _check_verify(out)
        else:
            doc = json.loads(out)
            check = _check_basis if req.command == "basis" else _check_diagrams
            items, found = check(req, doc)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return 0, problems
    return items, problems + found
