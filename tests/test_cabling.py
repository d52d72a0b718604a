import itertools

import pytest

from qcanon import linalg
from qcanon.cabling import (CablingOutcome, ZeroBlockError, block_map,
                            dual_cabling_matrix, is_monomial_unit,
                            cabling_report, verma_unit_embedding)
from qcanon.qring import ONE, QScalar
from qcanon.tensor import coproduct_matrix, enumerate_P, weight_space
from qcanon.weightmod import GEN_E, GEN_F, GEN_QH, make_verma_truncated

q = QScalar.q_power


class TestBlockMap:
    def test_examples(self):
        assert block_map((2, 1)) == (1, 1, 2)
        assert block_map((1, 1, 1)) == (1, 2, 3)
        assert block_map((3,)) == (1, 1, 1)

    def test_zero_block_rejected(self):
        with pytest.raises(ZeroBlockError):
            block_map((2, 0, 1))


class TestUnitEmbedding:
    def test_top_vector(self):
        emb = verma_unit_embedding(3, 2)
        ws = emb.target_space(0)
        assert emb.columns[0][ws.pos[(0, 0, 0)]] == ONE

    def test_weight_two_level_one(self):
        # F^(1) on the top of M_2 lands on u1 x u0 + q^-1 u0 x u1
        emb = verma_unit_embedding(2, 1)
        ws = emb.target_space(1)
        col = emb.columns[1]
        assert col[ws.pos[(1, 0)]] == ONE
        assert col[ws.pos[(0, 1)]] == q(-1)

    @pytest.mark.parametrize("lam_i", [1, 2, 3])
    def test_intertwines_generators(self, lam_i):
        level = 2
        emb = verma_unit_embedding(lam_i, level)
        source = make_verma_truncated(lam_i, level)
        unit_factors = (make_verma_truncated(1, level),) * lam_i
        # columns as a rectangular map per level; check E, F, q^h slotwise
        for m in range(level + 1):
            # q^h: weights match
            tgt = weight_space(unit_factors, m)
            qh = coproduct_matrix(unit_factors, m, GEN_QH)
            lhs = linalg.matmul(qh, emb.columns[m])
            rhs = linalg.mat_scale(emb.columns[m],
                                   source.matrix(GEN_QH)[m, m])
            assert linalg.mat_eq(lhs, rhs)
        for m in range(level):
            # F: source F then embed == embed then coproduct F
            f_src = source.matrix(GEN_F)[m + 1, m]
            lhs = linalg.mat_scale(emb.columns[m + 1], f_src)
            rhs = linalg.matmul(coproduct_matrix(unit_factors, m, GEN_F),
                                emb.columns[m])
            assert linalg.mat_eq(lhs, rhs)
        for m in range(1, level + 1):
            e_src = source.matrix(GEN_E)[m - 1, m]
            lhs = linalg.mat_scale(emb.columns[m - 1], e_src)
            rhs = linalg.matmul(coproduct_matrix(unit_factors, m, GEN_E),
                                emb.columns[m])
            assert linalg.mat_eq(lhs, rhs)


class TestDualCablingMatrix:
    def test_weight_two_level_one(self):
        dcm = dual_cabling_matrix((2,), 1)
        assert dcm.rows == ((1,),)
        assert dcm.cols == ((0, 1), (1, 0))
        assert dcm.matrix[0, dcm.cols.index((1, 0))] == ONE
        assert dcm.matrix[0, dcm.cols.index((0, 1))] == q(-1)

    def test_level_zero_identity(self):
        dcm = dual_cabling_matrix((2, 1), 0)
        assert dcm.matrix.shape == (1, 1)
        assert dcm.matrix[0, 0] == ONE

    def test_weight_preserving_shape(self):
        dcm = dual_cabling_matrix((2, 1), 2)
        assert dcm.matrix.shape == (len(dcm.rows), len(dcm.cols))

    def test_rows_are_the_lam_slice(self):
        dcm = dual_cabling_matrix((2, 1, 1), 3)
        assert dcm.rows == tuple(enumerate_P((2, 1, 1), 3))
        assert all(dcm.matrix.col(j).support()
                   for j in range(len(dcm.cols)))


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
        d = cabling_report((2,), 1).to_json_dict()
        assert d["lambda"] == [2] and d["level"] == 1
        assert {o["killed"] for o in d["outcomes"]} == {True, False}


def test_one_embedding_per_distinct_block_weight(monkeypatch):
    import qcanon.cabling as cabling
    built = []
    real = cabling.verma_unit_embedding

    def counting(factor_weight, level):
        built.append(factor_weight)
        return real(factor_weight, level)

    monkeypatch.setattr(cabling, "verma_unit_embedding", counting)
    dcm = dual_cabling_matrix((2, 1, 2, 2), 3)
    assert sorted(built) == [1, 2]
    monkeypatch.undo()
    again = dual_cabling_matrix((2, 1, 2, 2), 3)
    assert linalg.mat_eq(dcm.matrix, again.matrix)


def test_outcome_defaults():
    o = CablingOutcome((1, 0), killed=True)
    assert o.target is None and o.scalar is None
    assert o.to_json_dict() == {"source": [1, 0], "killed": True}


def test_is_monomial_unit():
    assert is_monomial_unit(ONE)
    assert is_monomial_unit(-q(3))
    assert not is_monomial_unit(2 * q(1))
    assert not is_monomial_unit(q(1) + ONE)
