"""`run_suite` solves each dual slice once per run and keeps nothing after;
the braid-reference caches live for one check."""

import functools
from collections import Counter

import pytest

from qcanon import canonical, linalg, reference, rmatrix, verify
from qcanon.canonical import BasisVector, dual_canonical_basis
from qcanon.qring import QScalar
from qcanon.reference import r_n_matrix
from qcanon.rmatrix import rcheck_longest
from qcanon.tensor import weight_space
from qcanon.verify import run_suite
from qcanon.weightmod import dual_factors, simple_factors

REFERENCE_CACHES = (reference._r_n, rmatrix._rcheck_longest)
BASIS_CACHE = canonical._certified_basis


def _reference_sizes():
    return tuple(f.cache_info().currsize for f in REFERENCE_CACHES)


def test_one_solve_per_slice_per_run(monkeypatch):
    # every check reads production's basis cache: one certificate per dual
    # slice per run
    certified = Counter()
    real = canonical._certify

    def counting(space, coords):
        certified[space] += 1
        return real(space, coords)

    monkeypatch.setattr(canonical, "_certify", counting)
    assert all(r.passed for r in run_suite("all", 4))
    assert certified and set(certified.values()) == {1}
    # the cabling check's unit slices go through the same cache
    assert weight_space(dual_factors((1, 1, 1, 1)), 2) in certified


def test_memo_empty_after_run():
    dual_canonical_basis((2, 1), 1)
    assert all(r.passed for r in run_suite("basis", 3))
    assert BASIS_CACHE.cache_info().currsize == 0


def test_memo_empty_after_check_raises(monkeypatch):
    def failing(max_sum):
        dual_canonical_basis((2, 1), 1)
        assert BASIS_CACHE.cache_info().currsize
        raise ValueError("boom")

    monkeypatch.setitem(verify.ALL_CHECKS, "catalan", failing)
    [result] = run_suite("catalan", 4)
    assert result.failure["error_type"] == "ValueError"
    assert BASIS_CACHE.cache_info().currsize == 0

    def interrupted(max_sum):
        dual_canonical_basis((2, 1), 1)
        raise KeyboardInterrupt

    monkeypatch.setitem(verify.ALL_CHECKS, "catalan", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suite("catalan", 4)
    assert BASIS_CACHE.cache_info().currsize == 0


def test_basis_cache_starts_empty(monkeypatch):
    # a basis cached before the run is not read by it
    dual_canonical_basis((2, 1), 1)
    sizes = []

    def reading(max_sum):
        sizes.append(BASIS_CACHE.cache_info().currsize)
        return "read"

    monkeypatch.setitem(verify.ALL_CHECKS, "catalan", reading)
    assert all(r.passed for r in run_suite("catalan", 4))
    assert sizes == [0]


def test_reference_caches_live_for_one_check(monkeypatch):
    sizes = []

    def starting(check):
        def wrapped(max_sum):
            sizes.append(_reference_sizes())
            return check(max_sum)
        return wrapped

    for name, check in list(verify.ALL_CHECKS.items()):
        monkeypatch.setitem(verify.ALL_CHECKS, name, starting(check))
    assert all(r.passed for r in run_suite("all", 4))
    assert len(sizes) == len(verify.ALL_CHECKS)
    assert set(sizes[1:]) == {(0, 0)}
    assert _reference_sizes() == (0, 0)


@pytest.mark.parametrize("error", [ValueError("boom"), KeyboardInterrupt()],
                         ids=["raises", "interrupted"])
def test_reference_caches_empty_after_check_raises(monkeypatch, error):
    def failing(max_sum):
        fs = simple_factors((1, 2, 1))
        r_n_matrix(fs, 2)
        rcheck_longest(fs, 2)
        assert all(_reference_sizes())
        raise error

    monkeypatch.setitem(verify.ALL_CHECKS, "catalan", failing)
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            run_suite("catalan", 4)
    else:
        [result] = run_suite("catalan", 4)
        assert result.failure["error_type"] == "ValueError"
    assert _reference_sizes() == (0, 0)


def test_reference_caches_cleared_behind_wrappers(monkeypatch):
    # a profiler may rebind the cached functions to plain wrappers, which
    # carry no cache_clear
    def traced(fn):
        return functools.wraps(fn)(lambda *args: fn(*args))

    for module, cached in zip((reference, rmatrix), REFERENCE_CACHES):
        monkeypatch.setattr(module, cached.__name__, traced(cached))
    for module in (canonical, verify):
        monkeypatch.setattr(module, "_certified_basis", traced(BASIS_CACHE))
    assert all(r.passed for r in run_suite("basis", 3))
    assert all(r.passed for r in run_suite("braiding", 3))
    assert _reference_sizes() == (0, 0)
    assert BASIS_CACHE.cache_info().currsize == 0


def test_suite_table_matches_the_checks():
    # the table lives in `common` so that `verify --help` can show it
    # without loading the checks
    assert verify.SUITE_ALIASES["all"] == tuple(verify.ALL_CHECKS)
    for names in verify.SUITE_ALIASES.values():
        assert set(names) <= set(verify.ALL_CHECKS)


def test_failure_on_a_slice_names_it(monkeypatch):
    # the listing drops one diagram on (1, 2) level 1 only: the record
    # carries that slice as fields, the message text stays as it was
    real = verify.enumerate_B

    def short(lams, level):
        out = real(lams, level)
        return out[1:] if (tuple(lams), level) == ((1, 2), 1) else out

    monkeypatch.setattr(verify, "enumerate_B", short)
    [result] = run_suite("bijection_counts", 3)
    assert result.failure == {
        "check": "bijection_counts", "error_type": "AssertionError",
        "error": "listing != exhaustive search on (1, 2) level 1",
        "lambda": [1, 2], "level": 1}


def test_duality_pairs_production_with_the_reference(monkeypatch):
    # one coefficient of the reference dual basis perturbed, on the first
    # slice of dimension 2, (1, 1) level 1: the pairing with production's
    # canonical basis must fail there
    real = verify._solve_triangular
    perturbed = []

    def solve(op):
        basis = real(op)
        if len(basis) == 2 and not perturbed:
            b = basis[0]
            lead = b.space.pos[b.index]
            coords = dict(b.coords.items())
            coords[lead] = coords[lead] + QScalar.q_power(-1)
            basis[0] = BasisVector(b.index, b.space, linalg.Vector(
                b.coords.dim, coords))
            perturbed.append(op.source)
        return basis

    monkeypatch.setattr(verify, "_solve_triangular", solve)
    [result] = run_suite("duality", 3)
    assert perturbed and result.failure == {
        "check": "duality", "error_type": "AssertionError",
        "error": "pairing off at (0, 1)/(0, 1) on (1, 1) level 1",
        "lambda": [1, 1], "level": 1}


@pytest.mark.parametrize("check, at", [
    ("golden_dual_basis", ((1, 1), 1)),
    ("solver_contract", ((2, 2), 2)),  # the uniqueness perturbation
    ("cabling", ((2,), 1))],  # the golden report, after the sweep
    ids=["golden_dual_basis", "solver_contract", "cabling"])
def test_library_exception_off_the_sweep_names_its_slice(monkeypatch, check,
                                                         at):
    # a check made on one fixed slice, outside the swept family: an
    # exception the library raises there still carries that slice (the
    # run starts with an empty basis cache, so every slice is certified)
    real = canonical._certify
    broken_space = weight_space(dual_factors(at[0]), at[1])

    def broken(space, coords):
        if space is broken_space:
            raise ZeroDivisionError("broken solver")
        return real(space, coords)

    monkeypatch.setattr(canonical, "_certify", broken)
    [result] = run_suite(check, 1)
    assert result.failure == {
        "check": check, "error_type": "ZeroDivisionError",
        "error": "broken solver", "lambda": list(at[0]), "level": at[1]}


@pytest.fixture
def fresh_rmatrix_caches():
    """Empty every cache of `rmatrix` and `reference` before and after the
    test, so that no operator built with a patched helper outlives it."""
    def clear():
        for fn in [*vars(rmatrix).values(), *vars(reference).values()]:
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    clear()
    yield
    clear()


def test_library_exception_names_its_slice(monkeypatch,
                                           fresh_rmatrix_caches):
    # a wrong [k] makes a division inside the library raise, not a
    # `_require`: the record still carries the slice the sweep was on
    real = rmatrix.quantum_int
    monkeypatch.setattr(rmatrix, "quantum_int", lambda k: 3 * real(k))
    [result] = run_suite("involutions", 4)
    assert result.failure == {
        "check": "involutions", "error_type": "InexactDivisionError",
        "error": "inexact division: q^-2 + 2 + q^2 / 3q^-1 + 3q",
        "lambda": [2, 2], "level": 2}


def test_search_runs_once_per_weight_tuple(monkeypatch):
    # one exhaustive search gives every level of a tuple
    calls = Counter()
    real = verify.search_diagrams

    def counting(lam):
        calls[tuple(lam)] += 1
        return real(lam)

    monkeypatch.setattr(verify, "search_diagrams", counting)
    verify.check_bijection_counts(4)
    assert calls == Counter(verify.positive_compositions(4))


def test_exception_inside_the_search_names_its_tuple(monkeypatch):
    # the search builds its candidates with verify's ArcDiagram; one that
    # raises on (1, 2) leaves a record of that tuple at one of its levels
    real = verify.ArcDiagram

    def broken(capacities, chords):
        if tuple(capacities) == (1, 2) and len(chords) == 2:
            raise ZeroDivisionError("broken constructor")
        return real(capacities, chords)

    monkeypatch.setattr(verify, "ArcDiagram", broken)
    [result] = run_suite("bijection_counts", 3)
    level = result.failure.pop("level")
    assert result.failure == {
        "check": "bijection_counts", "error_type": "ZeroDivisionError",
        "error": "broken constructor", "lambda": [1, 2]}
    assert 0 <= level <= 3


def test_failure_on_one_element_names_its_index(monkeypatch):
    # the second element of the reference basis on (1, 1) level 1 is
    # perturbed: the record names that element's index
    real = verify._solve_triangular
    broken = []

    def solve(op):
        basis = real(op)
        if len(basis) == 2 and not broken:
            b = basis[1]
            coords = dict(b.coords.items())
            lead = b.space.pos[b.index]
            coords[lead] = coords[lead] + QScalar.q_power(-1)
            basis[1] = BasisVector(b.index, b.space, linalg.Vector(
                b.coords.dim, coords))
            broken.append(b.index)
        return basis

    monkeypatch.setattr(verify, "_solve_triangular", solve)
    [result] = run_suite("solver_contract", 2)
    [index] = broken
    assert result.failure == {
        "check": "solver_contract", "error_type": "AssertionError",
        "error": f"closed form != solver at {index} on (1, 1) level 1",
        "lambda": [1, 1], "level": 1, "index": list(index)}


def test_round_trip_failure_names_its_index(monkeypatch):
    # the inverse map sends (0, 1) on (1, 2) to the diagram of (1, 0)
    real = verify.diagram_of_index

    def wrong(lam, a):
        if (tuple(lam), tuple(a)) == ((1, 2), (0, 1)):
            a = (1, 0)
        return real(lam, a)

    monkeypatch.setattr(verify, "diagram_of_index", wrong)
    [result] = run_suite("bijection_counts", 3)
    assert result.failure == {
        "check": "bijection_counts", "error_type": "AssertionError",
        "error": "round trip fails at (0, 1) on (1, 2)",
        "lambda": [1, 2], "level": 1, "index": [0, 1]}
