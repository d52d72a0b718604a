import collections
import itertools
import json

import pytest

from qcanon import linalg
from qcanon.cabling import (CablingOutcome, dual_cabling_matrix,
                            is_monomial_unit, cabling_report)
from qcanon.canonical import _closed_form, dual_canonical_basis
from qcanon.common import cup_bundles
from qcanon.diagrams import ZeroBlockError, block_map, diagram_of_index
from qcanon.qring import ONE, QScalar, exact_div
from qcanon.reference import (_solve_triangular, coproduct_matrix,
                              coproduct_target_level, psi_c)
from qcanon.rmatrix import BraidOperator
from qcanon.tensor import enumerate_P, weight_space
from qcanon.verify import weight_slices
from qcanon.weightmod import GEN_E, GEN_F, dual_factors, simple_factors
from test_qring import quantum_factorial

q = QScalar.q_power


class TestBlockMap:
    def test_examples(self):
        assert block_map((2, 1)) == (1, 1, 2)
        assert block_map((1, 1, 1)) == (1, 2, 3)
        assert block_map((3,)) == (1, 1, 1)

    def test_zero_block_rejected(self):
        with pytest.raises(ZeroBlockError):
            block_map((2, 0, 1))


def test_collapse_intertwines_dual_e_and_f():
    pairs = 0
    for lam, l in weight_slices(4):
        unit, down = dual_factors((1,) * sum(lam)), dual_factors(lam)
        for gen in (GEN_E, GEN_F):
            l2 = coproduct_target_level(l, gen)
            if not 0 <= l2 <= sum(lam):
                continue
            lhs = linalg.matmul(dual_cabling_matrix(lam, l2).matrix,
                                coproduct_matrix(unit, l, gen))
            rhs = linalg.matmul(coproduct_matrix(down, l, gen),
                                dual_cabling_matrix(lam, l).matrix)
            assert linalg.mat_eq(lhs, rhs), (lam, l, gen)
            pairs += 1
    assert pairs == 98


class TestDualCablingMatrix:
    def test_weight_two_level_one(self):
        dcm = dual_cabling_matrix((2,), 1)
        assert isinstance(dcm, BraidOperator)
        assert dcm.target.indices == ((1,),)
        assert dcm.source.indices == ((0, 1), (1, 0))
        assert dcm.matrix[0, dcm.source.indices.index((1, 0))] == ONE
        assert dcm.matrix[0, dcm.source.indices.index((0, 1))] == q(-1)

    def test_level_zero_identity(self):
        dcm = dual_cabling_matrix((2, 1), 0)
        assert dcm.matrix.shape == (1, 1)
        assert dcm.matrix[0, 0] == ONE

    def test_weight_preserving_shape(self):
        dcm = dual_cabling_matrix((2, 1), 2)
        assert dcm.matrix.shape == (len(dcm.target.indices),
                                    len(dcm.source.indices))

    def test_rows_are_the_lam_slice(self):
        dcm = dual_cabling_matrix((2, 1, 1), 3)
        assert dcm.target.indices == tuple(enumerate_P((2, 1, 1), 3))
        assert all(dcm.matrix.col(j).support()
                   for j in range(len(dcm.source.indices)))

    def test_negative_level_rejected(self):
        for build in (dual_cabling_matrix, cabling_report):
            with pytest.raises(ValueError, match="^level must be >= 0, got -1$"):
                build((2,), -1)

    def test_empty_block_and_high_level_rejected(self):
        with pytest.raises(ZeroBlockError):
            dual_cabling_matrix((2, 0, 1), 1)
        with pytest.raises(ValueError,
                           match="^level 4 exceeds the unit point count 3$"):
            dual_cabling_matrix((2, 1), 4)


class TestCablingReport:
    def test_golden_weight_two(self):
        report = cabling_report((2,), 1)
        by_source = {o.source: o for o in report.outcomes}
        assert by_source[(0, 1)].killed
        surviving = by_source[(1, 0)]
        assert not surviving.killed
        assert surviving.target == (1,)
        assert surviving.scalar == ONE
        assert report.all_scalars_one

    def test_unit_weights_identity(self):
        report = cabling_report((1, 1), 1)
        assert all(not o.killed for o in report.outcomes)
        assert all(o.scalar == ONE for o in report.outcomes)
        assert all(o.source == o.target for o in report.outcomes)

    def test_weight21_level1(self):
        report = cabling_report((2, 1), 1)
        assert len(report.outcomes) == 3
        killed = [o.source for o in report.outcomes if o.killed]
        assert killed == [(0, 1, 0)]

    def test_all_small_cases(self):
        for n in (1, 2, 3):
            for lam in itertools.product((1, 2, 3), repeat=n):
                if sum(lam) > 5:
                    continue
                for l in range(sum(lam) + 1):
                    report = cabling_report(lam, l)
                    assert report.all_unit_scalars
                    assert report.all_scalars_one

    def test_json_round_trip_shape(self):
        from qcanon.cli import _cable_doc
        d = json.loads("".join(_cable_doc(cabling_report((2,), 1))))
        assert d["lambda"] == [2] and d["level"] == 1
        assert {o["killed"] for o in d["outcomes"]} == {True, False}


def test_entry_is_q_to_minus_inv_of_the_f_chain():
    # F^(a) on the top tensor of V_1^(x x) is the reference: its coefficient
    # on a 0/1 tuple t is q^-inv(t), inv = #{j < i: t_j = 0, t_i = 1}
    tuples = 0
    for x in range(1, 8):
        units = simple_factors((1,) * x)
        chain = [linalg.Vector(1, {0: ONE})]  # F^a on the top vector
        for b in range(x):
            chain.append(linalg.matmul(coproduct_matrix(units, b, GEN_F),
                                       chain[-1]))
        for t in itertools.product((0, 1), repeat=x):
            a = sum(t)
            inv = sum(1 for j, i in itertools.combinations(range(x), 2)
                      if (t[j], t[i]) == (0, 1))
            ref = exact_div(chain[a][weight_space(units, a).pos[t]],
                            quantum_factorial(a))
            assert ref == q(-inv), t
            dcm = dual_cabling_matrix((x,), a)
            assert dcm.matrix[0, dcm.source.pos[t]] == q(-inv), t
            tuples += 1
    assert tuples == 254


def closed_form(lam, a):
    """b_a by the closed diagram formula, one subset at a time: lift a to
    the left-packed unit tuple (in block i, the first a_i units are 1),
    take the cups (i, j), i >= 1, of its unit diagram, and sum
    (-q^-1)^|S| e_{a_S} over the subsets S of cups, a_S moving the unit of
    each cup in S from z_j to z_i.  Each unit term collapses on its own
    onto the row of its block sums, with the factor q^-inv of
    `dual_cabling_matrix`; empty blocks are allowed.

    The subsets are listed by include/exclude, and the unit tuple is never
    copied: in a block whose 1s sit at offsets p_1 < ... < p_r, the 1 at
    p_s has p_s - (s - 1) 0s before it, so inv = sum(p) - C(r, 2), and a
    move changes one offset sum and one count in each of its two blocks."""
    blocks = [b for b, size in enumerate(lam) for _ in range(size)]
    offsets = [p for size in lam for p in range(size)]
    unit = [x for ai, size in zip(a, lam)
            for x in [1] * ai + [0] * (size - ai)]
    cups = [c for c in diagram_of_index((1,) * len(unit), unit).chords
            if c[0] >= 1]
    moves = [(blocks[i - 1], offsets[i - 1], blocks[j - 1], offsets[j - 1])
             for i, j in cups]
    row = list(a)  # the block sums; inv starts at 0 on the packed lift
    count = {}  # (row, inv + |S|) -> signed number of subsets

    def visit(u, sign, e):  # the subsets of the cups from u on; e = inv + |S|
        if u == len(moves):
            key = (tuple(row), e)
            count[key] = count.get(key, 0) + sign
            return
        visit(u + 1, sign, e)
        bi, pi, bj, pj = moves[u]
        e += (pi - row[bi]) + (row[bj] - 1 - pj) + 1
        row[bi] += 1
        row[bj] -= 1
        visit(u + 1, -sign, e)
        row[bi] -= 1
        row[bj] += 1

    visit(0, 1, 0)
    out = {}
    for (r, e), c in count.items():
        out[r] = out.get(r, QScalar()) + QScalar({-2 * e: c})
    return {r: c for r, c in out.items() if c}


def _reference_basis(lam, l):
    """The forward substitution on psi_c: the reference the production
    closed form is checked against."""
    return _solve_triangular(psi_c(lam, l))


def test_closed_form_is_the_dual_canonical_basis():
    # production (the bundled closed form, certified) against the solver,
    # on every slice of the sweep and on two-factor slices with a zero weight
    slices = list(weight_slices(6)) + [
        (lam, l) for x in range(5) for lam in {(0, x), (x, 0)}
        for l in range(x + 1)]
    elements = 0
    for lam, l in slices:
        got = dual_canonical_basis(lam, l)
        want = _reference_basis(lam, l)
        assert [b.index for b in got] == [b.index for b in want]
        for b, ref in zip(got, want):
            assert linalg.mat_eq(b.coords, ref.coords), (lam, l, b.index)
            elements += 1
    assert elements == 1351 + 29  # 29 zero-weight slices, each of dim 1


def test_bundled_collapse_matches_the_subset_sum():
    # the subset-listing oracle against the production collapse per cup
    # bundle, on every element of the bound-7 sweep and on two slices whose
    # bundles carry several cups; each bundle's multiplicity is the number
    # of unit chords that run between its two points, the origin included
    slices = list(weight_slices(7)) + [((20, 20), 20), ((5, 3, 4), 6)]
    elements = multiple = 0
    for lam, l in slices:
        space = weight_space(dual_factors(lam), l)
        points = [0] + [p for p, size in enumerate(lam, start=1)
                        for _ in range(size)]  # unit point -> its point
        for a in space.indices:
            got = _closed_form(space, a)
            assert {space.indices[p]: x for p, x in got.items()} \
                == closed_form(lam, a), (lam, l, a)
            bundles = cup_bundles(lam, a)
            unit = [x for ai, size in zip(a, lam)
                    for x in [1] * ai + [0] * (size - ai)]
            chords = collections.Counter(
                (points[i], points[j]) for i, j in diagram_of_index(
                    (1,) * len(unit), unit).chords)
            assert chords == {(i, j): c for i, j, c in bundles}
            multiple += any(c > 1 for i, _, c in bundles if i)
            elements += 1
    assert elements == 4615 + 21 + 18
    assert multiple == 321


def test_outcome_defaults():
    o = CablingOutcome((1, 0), killed=True)
    assert o.target is None and o.scalar is None
    assert o.source == (1, 0) and o.killed


def test_is_monomial_unit():
    assert is_monomial_unit(ONE)
    assert is_monomial_unit(-q(3))
    assert not is_monomial_unit(2 * q(1))
    assert not is_monomial_unit(q(1) + ONE)
