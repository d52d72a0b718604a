import pytest

from qcanon import linalg
from qcanon.qring import (ONE, ZERO, Q_MINUS_QINV, QScalar, exact_div,
                          quantum_binomial, quantum_factorial, quantum_int)
from qcanon.weightmod import (GEN_E, GEN_F, GEN_QH, GEN_QH_INV, GEN_QHALF,
                              GEN_QHALF_INV, DimensionMismatchError,
                              NegativeWeightError, TruncationTooSmallError,
                              apply_generator, contragredient, make_simple,
                              make_verma_truncated, shapovalov_embed)

q = QScalar.q_power
v = QScalar.v_power


# ---------------------------------------------------------------------------
# Independent oracle for the ladder coefficients: expand e f^m v by commuting
# e past f^m with [e, f] = (q^h - q^-h)/(q - q^-1), which gives
# e f^m v = (sum_{j=1..m} [lam - 2j + 2]) f^{m-1} v.  Changing basis to the
# divided powers F^(m) = q^{m(m-1)/2} v^{-m lam} f^m v / [m]!  (the power
# rewriting satisfied by E = q^{h/2} e, F = f q^{-h/2}) cancels every loose
# v-power and leaves exactly one division by [m].
# ---------------------------------------------------------------------------

def oracle_e_action(lam: int, m: int) -> QScalar:
    """Coefficient c with E . F^(m) v = c . F^(m-1) v, from first principles."""
    if m == 0:
        return ZERO
    c = ZERO
    for j in range(1, m + 1):
        w = lam - 2 * j + 2
        c = c + (quantum_int(w) if w >= 0 else -quantum_int(-w))
    return exact_div(c, quantum_int(m))


@pytest.mark.parametrize("lam", range(6))
def test_simple_action_matches_commutation_oracle(lam):
    mod = make_simple(lam)
    emat = mod.matrix(GEN_E)
    for m in range(1, lam + 1):
        assert emat[m - 1, m] == oracle_e_action(lam, m)
        assert emat[m - 1, m] == quantum_int(lam - m + 1)


@pytest.mark.parametrize("lam,level", [(2, 4), (5, 3), (0, 2)])
def test_verma_action_matches_commutation_oracle(lam, level):
    mod = make_verma_truncated(lam, level)
    emat = mod.matrix(GEN_E)
    for m in range(1, level + 1):
        assert emat[m - 1, m] == oracle_e_action(lam, m)


def commutator_check(mod, rows):
    e, f = mod.matrix(GEN_E), mod.matrix(GEN_F)
    qh, qh_inv = mod.matrix(GEN_QH), mod.matrix(GEN_QH_INV)
    lhs = linalg.mat_add(linalg.matmul(e, f), linalg.matmul(f, e), -ONE)
    rhs = linalg.mat_div(linalg.mat_add(qh, qh_inv, -ONE), Q_MINUS_QINV)
    for m in range(rows):
        for k in range(rows):
            assert lhs[m, k] == rhs[m, k]
    # q^h e = q^2 e q^h
    lhs2 = linalg.matmul(qh, e)
    rhs2 = linalg.mat_scale(linalg.matmul(e, qh), q(2))
    assert linalg.mat_eq(lhs2, rhs2)


@pytest.mark.parametrize("lam", range(5))
def test_relations_on_simple(lam):
    commutator_check(make_simple(lam), lam + 1)


@pytest.mark.parametrize("lam,level", [(3, 5), (1, 4)])
def test_relations_on_verma_away_from_boundary(lam, level):
    # the boundary slot sees the truncated F and is excluded
    commutator_check(make_verma_truncated(lam, level), level)


@pytest.mark.parametrize("lam", range(6))
def test_divided_powers_match_plain_generator_route(lam):
    # E^a F^b via the divided-power word must agree with the expansion in the
    # plain generators: e = q^{-h/2} E, f = F q^{h/2}, and the power
    # rewritings E^a = q^{a(a+1)/2} e^a q^{ah/2}, F^b = q^{b(b-1)/2} f^b
    # q^{-bh/2}, followed by exact division by [a]! [b]!.
    mod = make_simple(lam)
    e = linalg.matmul(mod.matrix(GEN_QHALF_INV), mod.matrix(GEN_E))
    f = linalg.matmul(mod.matrix(GEN_F), mod.matrix(GEN_QHALF))
    qh2 = mod.matrix(GEN_QHALF)
    qh2_inv = mod.matrix(GEN_QHALF_INV)

    def power(mat, k):
        out = linalg.identity(mod.size)
        for _ in range(k):
            out = linalg.matmul(mat, out)
        return out

    for a in range(lam + 1):
        for b in range(lam + 1):
            big_e = linalg.mat_scale(
                linalg.matmul(power(e, a), power(qh2, a)),
                q(a * (a + 1) // 2))
            big_f = linalg.mat_scale(
                linalg.matmul(power(f, b), power(qh2_inv, b)),
                q(b * (b - 1) // 2))
            expected = linalg.mat_div(
                linalg.matmul(big_e, big_f),
                quantum_factorial(a) * quantum_factorial(b))
            for m in range(mod.size):
                x = linalg.unit_vector(mod.size, m)
                got = apply_generator(mod, [(GEN_E, a), (GEN_F, b)], x)
                assert linalg.mat_eq(got, expected.col(m))


def test_simple_examples():
    m2 = make_simple(2)
    assert m2.matrix(GEN_E)[0, 1] == quantum_int(2)
    m1 = make_simple(1)
    assert linalg.is_zero(m1.matrix(GEN_F).col(1))
    m3 = make_simple(3)
    assert m3.matrix(GEN_QH)[2, 2] == q(-1)


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeightError):
        make_simple(-1)


def test_verma_examples():
    m = make_verma_truncated(2, 2)
    s = make_simple(2)
    for g in (GEN_E, GEN_F, GEN_QH):
        assert linalg.mat_eq(m.matrix(g), s.matrix(g))
    m52 = make_verma_truncated(5, 2)
    assert m52.matrix(GEN_E)[1, 2] == quantum_int(4)
    m01 = make_verma_truncated(0, 1)
    assert m01.matrix(GEN_E)[0, 1] == ZERO


class TestContragredient:
    def test_v1_dual_e(self):
        dual = contragredient(make_simple(1))
        assert dual.matrix(GEN_E)[0, 1] == q(1)

    def test_weights_preserved(self):
        mod = make_simple(3)
        dual = contragredient(mod)
        assert linalg.mat_eq(dual.matrix(GEN_QH), mod.matrix(GEN_QH))

    def test_involutive(self):
        mod = make_simple(2)
        assert contragredient(contragredient(mod)) is mod

    def test_relations_hold(self):
        commutator_check(contragredient(make_simple(3)), 4)


class TestApplyGenerator:
    def test_empty_word(self):
        mod = make_simple(2)
        x = linalg.unit_vector(3, 1)
        assert linalg.mat_eq(apply_generator(mod, [], x), x)

    def test_commutator_at_weight_zero(self):
        mod = make_simple(2)
        x = linalg.unit_vector(3, 1)
        ef = apply_generator(mod, [GEN_E, GEN_F], x)
        fe = apply_generator(mod, [GEN_F, GEN_E], x)
        assert linalg.is_zero(linalg.mat_add(ef, fe, -ONE))

    def test_divided_power_normalization(self):
        mod = make_simple(2)
        x = linalg.unit_vector(3, 0)
        y = apply_generator(mod, [(GEN_F, 2)], x)
        assert y[2] == ONE and not y[0] and not y[1]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_generator(make_simple(2), [], linalg.unit_vector(2, 0))


class TestShapovalov:
    def test_lambda_one(self):
        emb = shapovalov_embed(1, 1)
        assert emb[0, 0] == ONE
        assert emb[1, 1] == q(-1)
        assert emb[0, 1] == ZERO and emb[1, 0] == ZERO

    def test_top_slot_always_unit(self):
        for lam in range(5):
            assert shapovalov_embed(lam, lam + 1)[0, 0] == ONE

    @pytest.mark.parametrize("lam", range(5))
    def test_closed_form(self, lam):
        # hand derivation: pairing <F^(m) v*, F^(m) v> accumulates
        # q^{-lam+2j}[lam-j] over j < m, then is divided by [m]!
        emb = shapovalov_embed(lam, lam)
        for m in range(lam + 1):
            expected = q(m * (m - 1 - lam)) * quantum_binomial(lam, m)
            assert emb[m, m] == expected

    @pytest.mark.parametrize("lam", range(1, 5))
    def test_intertwines_e_and_f(self, lam):
        level = lam
        emb = shapovalov_embed(lam, level)
        simple = make_simple(lam)
        dual = contragredient(make_verma_truncated(lam, level))
        for g in (GEN_E, GEN_F, GEN_QH, GEN_QHALF):
            lhs = linalg.matmul(emb, simple.matrix(g))
            rhs = linalg.matmul(dual.matrix(g), emb)
            assert linalg.mat_eq(lhs, rhs)

    def test_pairing_symmetric(self):
        for lam in range(5):
            emb = shapovalov_embed(lam, lam)
            for m in range(lam + 1):
                for k in range(lam + 1):
                    assert emb[m, k] == emb[k, m]

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmallError):
            shapovalov_embed(3, 2)
