"""Per-layer metrics from the reports `tracer.py` writes.

Self time of a span is its duration minus the durations of its direct
children; spans are properly nested because the CLI is single-threaded.
Inclusive times take only the outermost span of a set, so recursion and
nesting are not counted twice.
"""

from __future__ import annotations

# Layers with spans.  qring is counted, not timed: its arithmetic lands in
# the self time of the layer that calls it.
LAYERS = ("cli", "verify", "cabling", "canonical", "rmatrix", "tensor",
          "linalg", "diagrams")

# metric -> names of the spans whose outermost durations it sums
INCLUSIVE = {
    "linalg.matmul_s": {"linalg.matmul"},
    "linalg.rank_s": {"linalg.exact_rank"},
    "rmatrix.psi_c_s": {"rmatrix.tau_theta_n"},
    "rmatrix.theta_n_s": {"rmatrix._theta_n"},
    "rmatrix.crosscheck_s": {"rmatrix._r_n", "rmatrix._tau_theta_direct",
                             "rmatrix._theta_piece_last"},
    "canonical.solve_s": {"canonical._solve_triangular"},
    "canonical.singular_s": {"canonical.singular_subset"},
    "diagrams.enumerate_s": {"diagrams.enumerate_B"},
    "diagrams.bijection_s": {"diagrams.index_of_diagram",
                             "diagrams.diagram_of_index"},
    "cabling.matrix_s": {"cabling.dual_cabling_matrix"},
    "cli.json_s": {"cli._dump", "cli._basis_json", "cli._operator_json"},
}

# metric -> span name whose self time it sums
SELF = {
    "canonical.solve_self_s": "canonical._solve_triangular",
    "cabling.report_self_s": "cabling.cabling_report",
}

SPAN_METRICS = (tuple(f"{layer}.self_s" for layer in LAYERS)
                + tuple(INCLUSIVE) + tuple(SELF) + ("rmatrix.braid_check_s",))

COUNT_METRICS = ("qring.mul_calls", "qring.add_calls", "qring.sub_calls",
                 "qring.exact_div_calls", "qring.solve_bar_calls",
                 "linalg.matmul_calls", "tensor.slices_built",
                 "tensor.slice_dim_max", "tensor.coproduct_cache_hit_ratio",
                 "rmatrix.cache_entries", "canonical.solve_calls",
                 "canonical.support_ratio", "diagrams.candidates",
                 "diagrams.yield_ratio")


def span_metrics(report: dict) -> dict[str, float]:
    """Seconds per metric for one request's spans report."""
    names = report["names"]
    spans = report["spans"]
    n = len(spans)
    name = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    children = [0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += dur[i]
    ns = dict.fromkeys(SPAN_METRICS, 0)
    for i in range(n):
        own = dur[i] - children[i]
        ns[f"{name[i].split('.')[0]}.self_s"] += own
        for metric, target in SELF.items():
            if name[i] == target:
                ns[metric] += own
    for metric, targets in INCLUSIVE.items():
        inside = [False] * n   # some ancestor is in `targets`
        for i, s in enumerate(spans):
            p = s[3]
            inside[i] = p >= 0 and (inside[p] or name[p] in targets)
            if name[i] in targets and not inside[i]:
                ns[metric] += dur[i]
    # the braid route: tau(Theta^(n)) minus its transpose route
    for i, s in enumerate(spans):
        if name[i] == "rmatrix._tau_theta_n_dual":
            ns["rmatrix.braid_check_s"] += dur[i]
        elif name[i] == "rmatrix._theta_n" and s[3] >= 0 \
                and name[s[3]] == "rmatrix._tau_theta_n_dual":
            ns["rmatrix.braid_check_s"] -= dur[i]
    return {k: v / 1e9 for k, v in ns.items()}


def count_metrics(reports: list[dict]) -> dict[str, float]:
    """Counters summed over one round of counts reports."""
    def total(key):
        return sum(r.get(key, 0) for r in reports)

    def ratio(num, den):
        return total(num) / total(den) if total(den) else 0.0

    return {
        "qring.mul_calls": total("mul"),
        "qring.add_calls": total("add"),
        "qring.sub_calls": total("sub"),
        "qring.exact_div_calls": total("exact_div"),
        "qring.solve_bar_calls": total("solve_bar"),
        "linalg.matmul_calls": total("matmul"),
        "tensor.slices_built": total("slices_built"),
        "tensor.slice_dim_max": max(r.get("slice_dim_max", 0)
                                    for r in reports),
        "tensor.coproduct_cache_hit_ratio": ratio("coproduct_hits",
                                                  "coproduct_lookups"),
        "rmatrix.cache_entries": total("rmatrix_cache_entries"),
        "canonical.solve_calls": total("solve"),
        "canonical.support_ratio": ratio("support_nonzeros", "support_cells"),
        "diagrams.candidates": total("candidates"),
        "diagrams.yield_ratio": ratio("diagrams_emitted", "candidates"),
    }
