"""`run_suite` solves each dual slice once per run and keeps nothing after;
the braid-reference caches live for one check."""

import functools
from collections import Counter

import pytest

from qcanon import rmatrix, verify
from qcanon.cabling import cabling_report
from qcanon.rmatrix import r_n_matrix, rcheck_longest
from qcanon.verify import run_suite, weight_slices
from qcanon.weightmod import simple_factors

REFERENCE_CACHES = (rmatrix._r_n, rmatrix._rcheck_longest)


def _reference_sizes():
    return tuple(f.cache_info().currsize for f in REFERENCE_CACHES)


def test_one_solve_per_slice_per_run(monkeypatch):
    solved = Counter()
    real = verify.dual_canonical_basis

    def counting(lams, level):
        solved[tuple(lams), level] += 1
        return real(lams, level)

    monkeypatch.setattr(verify, "dual_canonical_basis", counting)
    assert all(r.passed for r in run_suite("all", 4))
    assert solved and set(solved.values()) == {1}
    # the cabling check reads its unit slices through the same memo
    assert ((1, 1, 1, 1), 2) in solved


def test_memo_empty_after_run():
    run_suite("basis", 3)
    assert not verify._run_bases


def test_memo_empty_after_check_raises(monkeypatch):
    def failing(max_sum):
        verify._dual_basis((2, 1), 1)
        raise ValueError("boom")

    monkeypatch.setitem(verify.ALL_CHECKS, "catalan", failing)
    [result] = run_suite("catalan", 4)
    assert not result.passed
    assert not verify._run_bases

    def interrupted(max_sum):
        verify._dual_basis((2, 1), 1)
        raise KeyboardInterrupt

    monkeypatch.setitem(verify.ALL_CHECKS, "catalan", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suite("catalan", 4)
    assert not verify._run_bases


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

    for cached in REFERENCE_CACHES:
        monkeypatch.setattr(rmatrix, cached.__name__, traced(cached))
    assert all(r.passed for r in run_suite("braiding", 3))
    assert _reference_sizes() == (0, 0)


def test_memo_shares_tuples(monkeypatch):
    seen = []

    def reading(max_sum):
        first = verify._dual_basis((2, 1), 1)
        seen.append(first is verify._dual_basis([2, 1], 1))
        seen.extend(type(b) is tuple for b in verify._run_bases.values())
        return "read"

    monkeypatch.setitem(verify.ALL_CHECKS, "catalan", reading)
    [result] = run_suite("catalan", 4)
    assert result.passed and seen and all(seen)


def test_memo_drops_slices_no_later_check_reads(monkeypatch):
    sums = []

    def reading(max_sum):
        sums.append(max(sum(lams) for lams, _ in verify._run_bases))
        return "read"

    # singular_bases fills the memo up to sum 4; catalan, the last check,
    # runs at 3
    monkeypatch.setitem(verify.BOUND_CAPS, "catalan", 3)
    monkeypatch.setitem(verify.ALL_CHECKS, "catalan", reading)
    assert all(r.passed for r in run_suite("diagrams", 4))
    assert sums == [3]


def test_outside_a_run_nothing_is_kept():
    basis = verify._dual_basis((2, 1), 1)
    assert type(basis) is tuple
    assert basis is not verify._dual_basis((2, 1), 1)
    assert verify._run_bases is None


def test_cabling_report_with_a_given_solver():
    for lams, l in weight_slices(4):
        assert cabling_report(lams, l, verify._dual_basis).to_json_dict() \
            == cabling_report(lams, l).to_json_dict()


def test_suite_table_matches_the_checks():
    # the table lives in `common` so that `verify --help` can show it
    # without loading the checks
    assert verify.SUITE_ALIASES["all"] == tuple(verify.ALL_CHECKS)
    for names in verify.SUITE_ALIASES.values():
        assert set(names) <= set(verify.ALL_CHECKS)
