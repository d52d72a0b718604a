"""Run one qcanon CLI request with spans or counters installed from outside.

    python3 perfbench/tracer.py spans|counts REPORT.json REQUEST_ID -- ARGV...

The child imports qcanon, replaces the functions named below in every
qcanon module that holds them (many modules use ``from ... import``, and
`verify` keeps its checks in a dict), then calls ``qcanon.cli.main(ARGV)``.
stdout stays the CLI's own output.  The report is written when the request
ends, and the exit code is the CLI's.

``spans`` records one span per call to a wrapped function: name, start and
end (ns), the enclosing span, and the request id shared by all of them.
``counts`` leaves the timed functions alone and counts `QScalar` operations
and a few other events, so that counting cost never reaches a span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

# Module -> functions that get a span.  Dotted names are methods.
SPAN_TARGETS = {
    "cli": ("_dump", "_basis_json", "_operator_json"),
    "verify": ("run_suite", "check_golden_dual_basis", "check_yang_baxter",
               "check_braid_factorizations", "check_involutions",
               "check_solver_contract", "check_bijection_counts",
               "check_singular_bases", "check_catalan", "check_cabling",
               "check_duality"),
    "cabling": ("cabling_report", "dual_cabling_matrix",
                "verma_unit_embedding"),
    "canonical": ("dual_canonical_basis", "canonical_basis_pair", "psi_c",
                  "psi_tensor2", "_solve_triangular", "singular_subset",
                  "is_singular", "AntilinearMap.apply",
                  "AntilinearMap.is_involution"),
    "rmatrix": ("tau_theta_n", "_tau_theta_n_dual", "_theta_n",
                "_theta_piece_first", "_theta_piece_last", "_tau_theta_direct",
                "_r_n", "_rcheck_longest", "_rcheck", "_cartan", "_sigma0",
                "_lift_single", "_lift_rest", "_lift_init",
                "_coproduct_power", "_coproduct_tau_f_power"),
    "tensor": ("coproduct_matrix", "enumerate_P", "WeightSpace.__init__"),
    "linalg": ("matmul", "mat_bar", "mat_scale", "mat_div", "mat_eq",
               "is_zero", "diagonal_inverse", "exact_rank"),
    "diagrams": ("enumerate_B", "index_of_diagram", "diagram_of_index",
                 "filter_singular", "filter_invariant", "cable_diagram"),
}


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None
            and (name == "qcanon" or name.startswith("qcanon."))]


def replace_everywhere(orig, new) -> int:
    """Rebind every module-level reference to `orig` (names and dict values)
    in the qcanon package to `new`; returns how many were replaced."""
    hits = 0
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                hits += 1
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = new
                        hits += 1
    return hits


def patch(module_name: str, target: str, make_wrapper) -> bool:
    """Wrap qcanon.<module_name>.<target>; False if it no longer exists, so
    that a refactor of qcanon loses a metric instead of failing requests."""
    mod = sys.modules.get(f"qcanon.{module_name}")
    owner, attr = mod, target
    if "." in target:
        cls_name, attr = target.split(".")
        owner = getattr(mod, cls_name, None)
    orig = getattr(owner, attr, None)
    if orig is None:
        return False
    if owner is not mod:
        setattr(owner, attr, make_wrapper(orig))
        return True
    return replace_everywhere(orig, make_wrapper(orig)) > 0


class SpanRecorder:
    """Spans in memory as [name, start_ns, end_ns, parent], parent -1 for
    none; the request id is stored once, in the report."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0, 0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    def install(self) -> list[str]:
        missing = []
        for module_name, targets in SPAN_TARGETS.items():
            for target in targets:
                name = f"{module_name}.{target.split('.')[-1]}"
                if not patch(module_name, target,
                             lambda fn, name=name: self.wrap(name, fn)):
                    missing.append(f"{module_name}.{target}")
        return missing

    def report(self) -> dict:
        return {"names": self.names, "spans": self.spans}


class Counters:
    """Event counters; each is an itertools.count read back at the end."""

    QSCALAR_OPS = {"mul": ("__mul__", "__rmul__"),
                   "add": ("__add__", "__radd__"),
                   "sub": ("__sub__", "__rsub__")}

    def __init__(self):
        self.ticks: dict[str, itertools.count] = {}
        self.values = {"support_nonzeros": 0, "support_cells": 0,
                       "diagrams_emitted": 0, "slice_dim_max": 0}
        self.in_enumeration = False

    def _tick(self, name: str):
        return self.ticks.setdefault(name, itertools.count()).__next__

    def counted(self, name: str, fn):
        tick = self._tick(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> list[str]:
        targets = {
            f"QScalar.{meth}": (lambda fn, op=op: self.counted(op, fn))
            for op, methods in self.QSCALAR_OPS.items() for meth in methods}
        targets.update({
            "exact_div": lambda fn: self.counted("exact_div", fn),
            "solve_bar_equation": lambda fn: self.counted("solve_bar", fn)})
        missing = [f"qring.{t}" for t, wrap in targets.items()
                   if not patch("qring", t, wrap)]
        for module_name, target, wrap in (
                ("linalg", "matmul", lambda fn: self.counted("matmul", fn)),
                ("canonical", "_solve_triangular", self._solver),
                ("diagrams", "enumerate_B", self._enumeration),
                ("diagrams", "validate_diagram", self._validation),
                ("tensor", "WeightSpace.__init__", self._slice)):
            if not patch(module_name, target, wrap):
                missing.append(f"{module_name}.{target}")
        return missing

    def _solver(self, fn):
        tick = self._tick("solve")

        def wrapper(*args, **kwargs):
            tick()
            basis = fn(*args, **kwargs)
            for b in basis:
                self.values["support_nonzeros"] += len(b.support())
                self.values["support_cells"] += b.space.dim
            return basis
        return wrapper

    def _enumeration(self, fn):
        def wrapper(*args, **kwargs):
            outer = not self.in_enumeration
            self.in_enumeration = True
            try:
                out = fn(*args, **kwargs)
            finally:
                if outer:
                    self.in_enumeration = False
            self.values["diagrams_emitted"] += len(out)
            return out
        return wrapper

    def _validation(self, fn):
        tick = self._tick("candidates")

        def wrapper(*args, **kwargs):
            if self.in_enumeration:
                tick()
            return fn(*args, **kwargs)
        return wrapper

    def _slice(self, init):
        def wrapper(space, *args, **kwargs):
            init(space, *args, **kwargs)
            self.values["slice_dim_max"] = max(self.values["slice_dim_max"],
                                               space.dim)
        return wrapper

    def report(self) -> dict:
        from qcanon import rmatrix, tensor
        out = {name: next(c) for name, c in self.ticks.items()}
        out.update(self.values)
        for name, key in (("weight_space", "slices"),
                          ("coproduct_matrix", "coproduct")):
            fn = getattr(tensor, name, None)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[f"{key}_built"] = info.currsize
                out[f"{key}_hits"] = info.hits
                out[f"{key}_lookups"] = info.hits + info.misses
        out["rmatrix_cache_entries"] = sum(
            f.cache_info().currsize for f in vars(rmatrix).values()
            if hasattr(f, "cache_info"))
        return out


def main() -> int:
    mode, report_path, request_id, sep, *argv = sys.argv[1:]
    if mode not in ("spans", "counts") or sep != "--":
        sys.stderr.write(__doc__)
        return 2
    import qcanon.cli
    import qcanon.verify  # noqa: F401  (load every module before patching)
    recorder = SpanRecorder() if mode == "spans" else Counters()
    missing = recorder.install()
    run = qcanon.cli.main
    if mode == "spans":
        run = recorder.wrap("cli.main", run)
    try:
        code = run(argv)
    finally:
        sys.stdout.flush()
        with open(report_path, "w") as fh:
            json.dump({"request_id": request_id, "mode": mode,
                       "missing": missing, **recorder.report()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
