import itertools

import pytest

from qcanon import linalg
from qcanon.common import slice_dim
from qcanon.qring import ONE, Q_MINUS_QINV, QScalar
from qcanon.tensor import coproduct_matrix, enumerate_P, weight_space
from qcanon.weightmod import (GEN_E, GEN_F, dual_factors, make_simple,
                              simple_factors)
from test_weightmod import GEN_QH_INV, verma, with_matrices

q = QScalar.q_power
v = QScalar.v_power


def weight_multiset_dimension(lams, l):
    """Independent dimension count: convolve the single-factor weight lists."""
    counts = {0: 1}
    for lam in lams:
        nxt = {}
        for w, c in counts.items():
            for m in range(lam + 1):
                ww = w + lam - 2 * m
                nxt[ww] = nxt.get(ww, 0) + c
        counts = nxt
    return counts.get(sum(lams) - 2 * l, 0)


class TestEnumerateP:
    def test_examples(self):
        assert enumerate_P((1, 1), 1) == [(0, 1), (1, 0)]
        assert enumerate_P((2, 2), 4) == [(2, 2)]
        assert enumerate_P((2, 1, 1), 2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0),
                                             (2, 0, 0)]

    def test_lex_sorted_and_complete(self):
        for lam in [(1, 1, 1), (2, 3), (2, 1, 2), (), (0,), (0, 2, 0)]:
            for l in range(-1, sum(lam) + 2):
                got = enumerate_P(lam, l)
                brute = sorted(
                    m for m in itertools.product(*[range(x + 1) for x in lam])
                    if sum(m) == l)
                assert got == brute

    def test_slice_dim_counts_without_listing(self):
        for n in range(5):
            for lam in itertools.product(range(4), repeat=n):
                for l in range(-1, sum(lam) + 2):
                    assert slice_dim(lam, l) == len(enumerate_P(lam, l))

    def test_slice_dim_beyond_listing(self):
        assert slice_dim((1,) * 40, 20) == 137846528820  # C(40, 20)
        assert slice_dim((10**15,), 2) == 1
        assert slice_dim((10**9, 10**9), 10**9) == 10**9 + 1


class TestWeightSpace:
    def test_single_factor_is_plain_module(self):
        fs = simple_factors([3])
        for l in range(4):
            ws = weight_space(fs, l)
            assert ws.indices == ((l,),)
            e = coproduct_matrix(fs, l, GEN_E)
            assert e.shape == ((1, 1) if l > 0 else (0, 1))
            if l > 0:
                assert e[0, 0] == make_simple(3).ladder(GEN_E, l)[l - 1]

    def test_v1v1_dimensions(self):
        fs = simple_factors([1, 1])
        assert [weight_space(fs, l).dim for l in range(3)] == [1, 2, 1]
        assert [weight_space(fs, l).weight for l in range(3)] == [2, 0, -2]

    def test_v2v1_weights(self):
        fs = simple_factors([2, 1])
        weights = []
        for l in range(sum([2, 1]) + 1):
            ws = weight_space(fs, l)
            weights += [ws.weight] * ws.dim
        assert sorted(weights, reverse=True) == [3, 1, 1, -1, -1, -3]

    def test_index_tuple_examples(self):
        assert weight_space(simple_factors([1, 1]), 1).indices == \
            ((0, 1), (1, 0))
        assert weight_space(simple_factors([2, 1]), 2).indices == \
            ((1, 1), (2, 0))
        assert weight_space(simple_factors([1, 1, 1, 1]), 2).dim == 6

    def test_empty_space_is_valid(self):
        ws = weight_space(simple_factors([1]), 5)
        assert ws.dim == 0

    def test_matches_independent_dimension_count(self):
        for n in range(1, 4):
            for lam in itertools.product(range(3), repeat=n):
                if sum(lam) > 6:
                    continue
                fs = simple_factors(lam)
                for l in range(sum(lam) + 1):
                    assert weight_space(fs, l).dim == \
                        weight_multiset_dimension(lam, l)
                    assert len(enumerate_P(lam, l)) == \
                        weight_multiset_dimension(lam, l)


class TestCoproduct:
    def test_delta_f_example(self):
        # F(u0 x u0) = u1 x u0 + q^-1 u0 x u1 on V1 x V1
        fs = simple_factors([1, 1])
        f = coproduct_matrix(fs, 0, GEN_F)
        tgt = weight_space(fs, 1)
        assert f[tgt.pos[(1, 0)], 0] == ONE
        assert f[tgt.pos[(0, 1)], 0] == q(-1)

    @pytest.mark.parametrize("lams", [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1)])
    def test_relations_on_tensor(self, lams):
        fs = simple_factors(lams)
        max_level = sum(lams)
        for l in range(max_level + 1):
            ws = weight_space(fs, l)
            if ws.dim == 0:
                continue
            e_up = coproduct_matrix(fs, l + 1, GEN_E) if l + 1 <= max_level \
                else linalg.Matrix((ws.dim, 0), [])
            f_here = coproduct_matrix(fs, l, GEN_F)
            e_here = coproduct_matrix(fs, l, GEN_E)
            f_down = coproduct_matrix(fs, l - 1, GEN_F) if l >= 1 \
                else linalg.Matrix((ws.dim, 0), [])
            ef = linalg.matmul(e_up, f_here)
            fe = linalg.matmul(f_down, e_here)
            # q^{+-h} acts on the whole slice by v^{+-2 weight}
            qh = linalg.diagonal([v(2 * ws.weight)] * ws.dim)
            qh_inv = linalg.diagonal([v(-2 * ws.weight)] * ws.dim)
            rhs = linalg.mat_div(linalg.mat_add(qh, qh_inv, -ONE),
                                 Q_MINUS_QINV)
            assert linalg.mat_eq(linalg.mat_add(ef, fe, -ONE), rhs)

    def test_mixed_factor_kinds(self):
        # truncated Verma and contragredient factors share the machinery
        fs = (verma(0, 2), make_simple(1))
        ws = weight_space(fs, 1)
        assert ws.indices == ((0, 1), (1, 0))
        dual = dual_factors([1, 1])
        assert weight_space(dual, 1).indices == ((0, 1), (1, 0))


class TestDualSide:
    def test_dual_indices_match(self):
        t = dual_factors([2, 1])
        s = simple_factors([2, 1])
        for l in range(sum([2, 1]) + 1):
            assert weight_space(t, l).indices == weight_space(s, l).indices

    def test_pure_tensor_factorwise_action(self):
        # acting factorwise on a pure tensor agrees with the one-shot
        # coproduct matrix: F on u0 x u0 of V2 x V1
        fs = simple_factors([2, 1])
        f = coproduct_matrix(fs, 0, GEN_F)
        tgt = weight_space(fs, 1)
        m2, m1 = with_matrices(make_simple(2)), with_matrices(make_simple(1))
        by_hand = {
            (1, 0): m2.matrix(GEN_F)[1, 0],
            (0, 1): m2.matrix(GEN_QH_INV)[0, 0] * m1.matrix(GEN_F)[1, 0],
        }
        for idx, val in by_hand.items():
            assert f[tgt.pos[idx], 0] == val
