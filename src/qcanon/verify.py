"""Named property checks aggregating every cross-model guarantee.

Each check `check_<name>(max_sum)` sweeps a family of desk-scale cases,
bounded by the sum of the highest weights; it raises on the first failure and
otherwise returns a one-line detail.  `run_suite` runs the checks a suite
names, times each call and records its outcome as a `CheckResult`; a
failure on a weight slice, whatever raised it, carries that slice as
`lambda` and `level`.  The run owns two kinds of state: the memo through
which the checks read dual canonical bases, so a run computes each slice
once, and the caches of the braid references `_r_n`, `_rcheck_longest`
and `_bubble`, which it empties after every check.  The checks are
deliberately redundant with independent machinery on each side: dimension
counts come from convolving weight multisets, singular counts from the
integer rank of E at q = 1, braid products are compared against coproduct
recursions (and the default word's recursion against other words'
multiplied-out products), diagram listings against an exhaustive chord
search, and the closed-form dual canonical basis, and the canonical basis
inverted from it, against the forward substitution on psi_c.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Sequence

from . import linalg
from .canonical import (BasisVector, _solve_triangular, apply_antilinear,
                        canonical_basis_pair, dual_canonical_basis,
                        is_involution, psi_c, psi_tensor2, singular_subset)
from .cabling import cabling_report
from .common import (MAX_WEIGHT_SUM, SUITE_ALIASES, InvalidDiagramError,
                     enumerate_P)
from .diagrams import (ArcDiagram, _crossing, diagram_of_index, enumerate_B,
                       filter_invariant, filter_singular, index_of_diagram)
from .qring import ONE, QScalar, in_qinv_ideal
from .rmatrix import (_REFERENCE_CACHES, cartan_factor, r_n_matrix,
                      rcheck_longest, sigma0_matrix, tau_theta_braid,
                      tau_theta_n, theta_n_matrix)
from .weightmod import dual_factors, simple_factors


class CheckResult(linalg.Frozen):
    __slots__ = ("name", "detail", "elapsed", "max_sum", "failure")

    def __init__(self, name: str, detail: str, elapsed: float, max_sum: int,
                 failure: dict | None = None):
        self._freeze(name=name, detail=detail, elapsed=elapsed,
                     max_sum=max_sum, failure=failure)

    @property
    def passed(self) -> bool:
        return self.failure is None


def positive_compositions(max_sum: int):
    """All tuples of positive integers with sum <= max_sum."""
    for total in range(1, max_sum + 1):
        for n in range(1, total + 1):
            for cuts in itertools.combinations(range(1, total), n - 1):
                bounds = (0,) + cuts + (total,)
                yield tuple(bounds[i + 1] - bounds[i] for i in range(n))


def weight_slices(max_sum: int):
    """Every slice `(lams, l)`: each positive composition with sum <= max_sum
    at each level 0..sum(lams)."""
    for lams in positive_compositions(max_sum):
        for l in range(sum(lams) + 1):
            yield lams, l


def independent_dimension(lams: Sequence[int], level: int) -> int:
    """dim of the weight slice by convolving single-factor weight multisets."""
    counts = {0: 1}
    for lam in lams:
        nxt: dict[int, int] = {}
        for w, c in counts.items():
            for m in range(lam + 1):
                ww = w + lam - 2 * m
                nxt[ww] = nxt.get(ww, 0) + c
        counts = nxt
    return counts.get(sum(lams) - 2 * level, 0)


def search_diagrams(lam: Sequence[int], l: int) -> list[ArcDiagram]:
    """All valid diagrams with l chords by exhaustive search, sorted by chords:
    the reference `enumerate_B` is checked against.

    Recursive multiset choice over the chord alphabet with early capacity and
    crossing pruning: each chord's crossings are a bitmask over the
    alphabet, and the recursion carries the union of the chosen chords'
    masks.  The pass-over condition depends on final degrees; the
    `ArcDiagram` constructor checks it on complete candidates.
    """
    lam = tuple(lam)
    n = len(lam)
    alphabet = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    crossed = [sum(1 << b for b, d in enumerate(alphabet) if _crossing(c, d))
               for c in alphabet]
    out = []
    degrees = [0] * (n + 1)

    def chord_cap(c):
        i, j = c
        cap = lam[j - 1] - degrees[j]
        if i >= 1:
            cap = min(cap, lam[i - 1] - degrees[i])
        return cap

    def rec(pos: int, remaining: int, chosen: list, blocked: int):
        if remaining == 0:
            try:
                out.append(ArcDiagram(lam, chosen))
            except InvalidDiagramError:  # an arc over an unsaturated point
                pass
            return
        if pos == len(alphabet):
            return
        c = alphabet[pos]
        top = 0 if blocked >> pos & 1 else min(remaining, chord_cap(c))
        rec(pos + 1, remaining, chosen, blocked)
        for mult in range(1, top + 1):
            chosen.extend([c] * mult)
            degrees[c[0]] += mult
            degrees[c[1]] += mult
            rec(pos + 1, remaining - mult, chosen, blocked | crossed[pos])
            degrees[c[0]] -= mult
            degrees[c[1]] -= mult
            del chosen[len(chosen) - mult:]

    rec(0, l, [], 0)
    return sorted(out, key=lambda d: d.chords)


#: The dual canonical bases computed during the current `run_suite` call, keyed
#: by (lams, level), so that each slice is computed once per run.  A slice goes
#: once no check still to run has a bound as high as its weight sum, and all
#: go when the run ends: None outside a run.
_run_bases: dict[tuple[tuple[int, ...], int],
                 tuple[BasisVector, ...]] | None = None


def _dual_basis(lams: Sequence[int], level: int) -> tuple[BasisVector, ...]:
    """The slice's dual canonical basis, read through the run's memo."""
    key = (tuple(lams), level)
    memo = {} if _run_bases is None else _run_bases
    if key not in memo:
        memo[key] = tuple(dual_canonical_basis(*key))
    return memo[key]


#: The slice (lams, level) a check's sweep is on, for the failure record of
#: any exception raised there; None once the sweep ends.
_swept: tuple[tuple[int, ...], int] | None = None


def _sweep(slices):
    """Yield the slices (lams, level) of a check's sweep, each held in
    `_swept` while the check works on it."""
    global _swept
    for at in slices:
        _swept = at
        yield at
    _swept = None


def _require(cond: bool, template: str = "", *args) -> None:
    """A check that `python -O` keeps: raise AssertionError with the message
    `template.format(*args)`, built only on failure."""
    if not cond:
        raise AssertionError(template.format(*args))


# ---------------------------------------------------------------------------
# the acceptance checks
# ---------------------------------------------------------------------------

def check_golden_dual_basis(max_sum: int) -> str:
    """Exact coefficients of the two-factor unit-weight dual basis."""
    q = QScalar.q_power
    for lams, l in _sweep([((1, 1), 1)]):
        basis = {b.index: b for b in _dual_basis(lams, l)}
        b10, b01 = basis[(1, 0)], basis[(0, 1)]
        _require(b10.coeff((1, 0)) == ONE and not b10.coeff((0, 1)))
        _require(b01.coeff((0, 1)) == ONE and b01.coeff((1, 0)) == -q(-1))
    return "dual basis of (V1 x V1)[0] matches the frozen coefficients"


def check_yang_baxter(max_sum: int) -> str:
    """Braid relation on (1,1,1) and (1,2,1), both bracketings, every slice."""
    cases = 0
    for lams, l in _sweep((lams, l) for lams in ((1, 1, 1), (1, 2, 1))
                          for l in range(sum(lams) + 1)):
        fs = simple_factors(lams)
        a = rcheck_longest(fs, l, word=(0, 1, 0)).matrix
        b = rcheck_longest(fs, l, word=(1, 0, 1)).matrix
        _require(linalg.mat_eq(a, b), "YBE fails on {} level {}", lams, l)
        cases += 1
    return f"braid relation exact on {cases} weight slices"


def check_braid_factorizations(max_sum: int) -> str:
    """Word independence, sigma0-factorization, Cartan-theta factorization
    and the tau-twist braid product (`tau_theta_n` on the plain factors
    against `tau_theta_braid`), on every slice up to the bound."""
    cases = 0
    for lams, l in _sweep(weight_slices(max_sum)):
        fs = simple_factors(lams)
        if len(lams) == 3:
            _require(linalg.mat_eq(
                rcheck_longest(fs, l, word=(0, 1, 0)).matrix,
                rcheck_longest(fs, l, word=(1, 0, 1)).matrix),
                     "reduced words disagree on {} level {}", lams, l)
            cases += 1
        rn = r_n_matrix(fs, l).matrix
        _require(linalg.mat_eq(
            rcheck_longest(fs, l).matrix,
            linalg.matmul(sigma0_matrix(fs, l).matrix, rn)),
                 "longest braiding is not sigma0 R on {} level {}", lams, l)
        _require(linalg.mat_eq(
            rn, linalg.matmul(cartan_factor(fs, l).matrix,
                              theta_n_matrix(fs, l).matrix)),
            "R != C Theta on {} level {}", lams, l)
        _require(linalg.mat_eq(tau_theta_n(fs, l).matrix,
                               tau_theta_braid(fs, l).matrix),
                 "tau-twist braid product fails on {} level {}", lams, l)
        cases += 3
    return f"{cases} exact operator identities verified"


def _require_braid_route(lams, l) -> None:
    """psi_c's matrix, tau(Theta^(n)) by its transpose route, equals the
    braid product on the contragredient factors."""
    _require(linalg.mat_eq(psi_c(lams, l).matrix,
                           tau_theta_braid(dual_factors(lams), l).matrix),
             "tau(Theta^(n)) != braid product on {} level {}", lams, l)


def check_involutions(max_sum: int) -> str:
    """psi_c (any factor count) and psi (two factors) square to the identity;
    psi_c's matrix equals the braid product on every slice."""
    cases = 0
    for lams, l in _sweep(weight_slices(max_sum)):
        _require(is_involution(psi_c(lams, l)),
                 "psi_c not involutive on {} level {}", lams, l)
        _require_braid_route(lams, l)
        cases += 1
        if len(lams) == 2:
            _require(is_involution(psi_tensor2(lams, l)),
                     "psi not involutive on {} level {}", lams, l)
            cases += 1
    return f"{cases} involution identities verified"


def check_solver_contract(max_sum: int) -> str:
    """Existence, lex-unipotence, coefficient-ring membership and uniqueness
    of the dual canonical basis; the production basis (the closed form)
    equals the forward substitution on psi_c, element by element; the
    two-factor support shape on the plain side."""
    q = QScalar.q_power
    vectors = 0
    for lams, l in _sweep(weight_slices(max_sum)):
        basis = _dual_basis(lams, l)
        _require([b.index for b in basis] == enumerate_P(lams, l))
        reference = _solve_triangular(psi_c(lams, l))
        for b, ref in zip(basis, reference):
            _require(linalg.mat_eq(b.coords, ref.coords),
                     "closed form != solver at {} on {} level {}",
                     b.index, lams, l)
            _require(b.coeff(b.index) == ONE)
            for k in b.support():
                _require(k >= b.index,
                         "support below the lead index on {} level {}",
                         lams, l)
                if k != b.index:
                    _require(in_qinv_ideal(b.coeff(k)),
                             "coefficient outside q^-1 Z[q^-1] "
                             "on {} level {}", lams, l)
            vectors += 1
        if len(lams) == 2:
            canonical_basis_pair(lams, l)  # support shape checked inside
    # uniqueness: perturbing by an ideal multiple of a later element
    # breaks the fixed point
    for lams, l in _sweep([((2, 2), 2)]):
        basis = _dual_basis(lams, l)
        psi = psi_c(lams, l)
        for i, b in enumerate(basis):
            for other in basis[i + 1:]:
                perturbed = linalg.mat_add(b.coords, other.coords, q(-1))
                _require(not linalg.mat_eq(apply_antilinear(psi, perturbed),
                                           perturbed))
    return f"{vectors} basis vectors pass the full contract"


def check_bijection_counts(max_sum: int) -> str:
    """The bijection listing equals the exhaustive search; diagram count =
    index count = slice dimension; the index map is a round-trip bijection."""
    cases = 0
    for lams, l in _sweep(weight_slices(max_sum)):
        diagrams = enumerate_B(lams, l)
        _require(diagrams == search_diagrams(lams, l),
                 "listing != exhaustive search on {} level {}", lams, l)
        indices = [index_of_diagram(d) for d in diagrams]
        _require(sorted(indices) == enumerate_P(lams, l),
                 "index image mismatch on {} level {}", lams, l)
        _require(len(diagrams) == independent_dimension(lams, l),
                 "diagram count != dimension on {} level {}", lams, l)
        for d, a in zip(diagrams, indices):
            _require(diagram_of_index(lams, a) == d,
                     "round trip fails at {} on {}", a, lams)
        cases += len(diagrams)
    return f"{cases} diagrams matched to indices and dimensions"


def check_singular_bases(max_sum: int) -> str:
    """Origin-avoiding diagrams index exactly the E-kernel members of the
    dual canonical basis, with the count certified by the rank at q = 1."""
    cases = 0
    for lams, l in _sweep(weight_slices(max_sum)):
        basis = _dual_basis(lams, l)
        kernel_indices = {b.index for b in singular_subset(basis)}
        diagram_indices = {index_of_diagram(d)
                           for d in filter_singular(enumerate_B(lams, l))}
        _require(kernel_indices == diagram_indices,
                 "singular sets disagree on {} level {}", lams, l)
        cases += len(kernel_indices)
    return f"{cases} singular basis elements matched both ways"


def check_catalan(max_sum: int) -> str:
    """Fully saturated unit-capacity diagrams are counted by Catalan numbers."""
    got = [len(filter_invariant(enumerate_B((1,) * (2 * l), l)))
           for l in range(1, 5)]
    _require(got == [1, 2, 5, 14], "Catalan counts off: {}", got)
    return "invariant diagram counts 1, 2, 5, 14 for levels 1..4"


def check_cabling(max_sum: int) -> str:
    """Algebraic and diagrammatic collapses agree everywhere; the surviving
    scalars are all exactly 1 at desk scale."""
    scalars = {}
    for lams, l in _sweep(weight_slices(max_sum)):
        for o in cabling_report(lams, l, _dual_basis).outcomes:
            if not o.killed:
                key = str(o.scalar)
                scalars[key] = scalars.get(key, 0) + 1
    for lams, l in _sweep([((2,), 1)]):
        golden = cabling_report(lams, l, _dual_basis)
        _require(golden.all_scalars_one)
        _require([o.killed for o in golden.outcomes] == [True, False])
    return f"kill patterns agree; scalar multiset {scalars}"


def check_duality(max_sum: int) -> str:
    """Production's canonical basis and the reference dual canonical basis
    (the forward substitution on psi_c) pair to the identity matrix; psi_c's
    matrix equals the braid product on each slice, zero weights too."""
    cases = 0
    for lams, l in _sweep(((l1, l2), l) for l1 in range(max_sum + 1)
                          for l2 in range(max_sum + 1 - l1)
                          for l in range(l1 + l2 + 1)):
        can = canonical_basis_pair(lams, l)
        dual = _solve_triangular(psi_c(lams, l))
        _require_braid_route(lams, l)
        for db in dual:
            for cb in can:
                pair = linalg.dot(db.coords, cb.coords)
                want = ONE if db.index == cb.index else QScalar()
                _require(pair == want, "pairing off at {}/{} on {} level {}",
                         db.index, cb.index, lams, l)
                cases += 1
    return f"{cases} pairings equal the identity pattern"


ALL_CHECKS: dict[str, Callable[[int], str]] = {
    name: globals()[f"check_{name}"] for name in SUITE_ALIASES["all"]}

#: Checks that never run above this weight-sum bound: their sweeps grow too
#: fast.  `CheckResult.max_sum` records the bound each check really used.
BOUND_CAPS = {"cabling": 5, "duality": 5}


def _clear_reference_caches() -> None:
    """Empty the caches that only the braid references fill.  No check reads
    an entry an earlier check built, save a few small slices cheap to
    rebuild, and no subcommand reads them at all."""
    for cached in _REFERENCE_CACHES:
        cached.cache_clear()


def run_suite(suite: str = "all", max_weight_sum: int = 6) -> list[CheckResult]:
    """Run each check the suite names at its bound, capped by `BOUND_CAPS`,
    and record its time, detail and any exception it raised."""
    if suite in SUITE_ALIASES:
        names: tuple[str, ...] = SUITE_ALIASES[suite]
    elif suite in ALL_CHECKS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; know "
                         f"{sorted(set(SUITE_ALIASES) | set(ALL_CHECKS))}")
    if max_weight_sum > MAX_WEIGHT_SUM:
        raise ValueError(f"--max-weight-sum {max_weight_sum} exceeds the "
                         f"limit {MAX_WEIGHT_SUM}")
    bounds = [min(max_weight_sum, BOUND_CAPS.get(name, max_weight_sum))
              for name in names]
    global _run_bases, _swept
    out = []
    _run_bases = {}
    try:
        for i, (name, bound) in enumerate(zip(names, bounds)):
            failure, _swept = None, None
            start = time.perf_counter()
            try:
                detail = ALL_CHECKS[name](bound)
            except Exception as exc:  # property failure: report, never mask
                detail = f"{type(exc).__name__}: {exc}"
                failure = {"check": name, "error_type": type(exc).__name__,
                           "error": str(exc)}
                if _swept is not None:
                    failure.update({"lambda": list(_swept[0]),
                                    "level": _swept[1]})
            out.append(CheckResult(name, detail, time.perf_counter() - start,
                                   bound, failure))
            # drop the slices above the bound of every check still to run
            keep = max(bounds[i + 1:], default=-1)
            for key in [k for k in _run_bases if sum(k[0]) > keep]:
                del _run_bases[key]
            _clear_reference_caches()
    finally:
        _run_bases = _swept = None
        _clear_reference_caches()
    return out
