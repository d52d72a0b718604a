import ast
from pathlib import Path

import pytest

from qcanon import linalg
from qcanon.qring import (ONE, ZERO, Q_MINUS_QINV, QScalar, exact_div,
                          quantum_factorial, quantum_int)
from qcanon.weightmod import (CARTAN_EXPONENT, GEN_E, GEN_F, GEN_QH,
                              GEN_QH_INV, NegativeWeightError, WeightModule,
                              contragredient, make_simple)

q = QScalar.q_power
v = QScalar.v_power


def verma(lam, level):
    """The Verma module of highest weight lam, truncated past slot `level`:
    the simple module's ladder formulas on every slot, with E . slot m =
    -[m - 1 - lam] slot (m-1) once lam - m + 1 < 0.  The lemma tests in
    `test_tensor` and `test_canonical` build their factors from it too."""
    size = level + 1
    e = [{} for _ in range(size)]
    f = [{} for _ in range(size)]
    for m in range(size):
        if m >= 1:
            e[m][m - 1] = quantum_int(lam - m + 1) if lam - m + 1 >= 0 \
                else -quantum_int(m - 1 - lam)
        if m + 1 < size:
            f[m][m + 1] = quantum_int(m + 1)
    mats = {gen: linalg.diagonal([v(c * (lam - 2 * m)) for m in range(size)])
            for gen, c in CARTAN_EXPONENT.items()}
    mats[GEN_E] = linalg.Matrix((size, size), e)
    mats[GEN_F] = linalg.Matrix((size, size), f)
    return WeightModule("verma", lam, size, mats)


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
    mod = verma(lam, level)
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
    commutator_check(verma(lam, level), level)


@pytest.mark.parametrize("lam", range(6))
def test_divided_powers_match_plain_generator_route(lam):
    # E^(a) F^(b) from the module matrices must agree with the expansion in
    # the plain generators: e = q^{-h/2} E, f = F q^{h/2}, and the power
    # rewritings E^a = q^{a(a+1)/2} e^a q^{ah/2}, F^b = q^{b(b-1)/2} f^b
    # q^{-bh/2}, followed by exact division by [a]! [b]!.  q^{+-h/2} acts on
    # slot m by v^{+-(lam - 2m)}.
    mod = make_simple(lam)
    qh2 = linalg.diagonal([v(lam - 2 * m) for m in range(mod.size)])
    qh2_inv = linalg.diagonal([v(2 * m - lam) for m in range(mod.size)])
    e = linalg.matmul(qh2_inv, mod.matrix(GEN_E))
    f = linalg.matmul(mod.matrix(GEN_F), qh2)

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
            fact = quantum_factorial(a) * quantum_factorial(b)
            expected = linalg.mat_div(linalg.matmul(big_e, big_f), fact)
            got = linalg.mat_div(
                linalg.matmul(power(mod.matrix(GEN_E), a),
                              power(mod.matrix(GEN_F), b)), fact)
            assert linalg.mat_eq(got, expected)


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
    m = verma(2, 2)
    s = make_simple(2)
    for g in (GEN_E, GEN_F, GEN_QH):
        assert linalg.mat_eq(m.matrix(g), s.matrix(g))
    m52 = verma(5, 2)
    assert m52.matrix(GEN_E)[1, 2] == quantum_int(4)
    m01 = verma(0, 1)
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


def shapovalov_embed(lam, level):
    """The map V_lam -> (M_lam)^c that sends the top vector to its dual:
    column m is F^(m) applied to the top dual functional."""
    fmat = contragredient(verma(lam, level)).matrix(GEN_F)
    vec, cols = linalg.Matrix((level + 1, 1), [{0: ONE}]), []
    for m in range(lam + 1):
        cols.append({i: exact_div(x, quantum_factorial(m))
                     for i, x in vec.col(0).items()})
        vec = linalg.matmul(fmat, vec)
    return linalg.Matrix((level + 1, lam + 1), cols)


class TestShapovalov:
    # the contravariant form of V_lam, read off the contragredient's F
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
        # q^{-lam+2j}[lam-j] over j < m, then is divided by [m]!, which
        # gives q^{m(m-1-lam)} [lam choose m]
        emb = shapovalov_embed(lam, lam)
        for m in range(lam + 1):
            expected = exact_div(
                q(m * (m - 1 - lam)) * quantum_factorial(lam),
                quantum_factorial(m) * quantum_factorial(lam - m))
            assert emb[m, m] == expected

    @pytest.mark.parametrize("lam", range(1, 5))
    def test_intertwines_e_and_f(self, lam):
        emb = shapovalov_embed(lam, lam)
        simple = make_simple(lam)
        dual = contragredient(verma(lam, lam))
        for g in (GEN_E, GEN_F, GEN_QH, GEN_QH_INV):
            lhs = linalg.matmul(emb, simple.matrix(g))
            rhs = linalg.matmul(dual.matrix(g), emb)
            assert linalg.mat_eq(lhs, rhs)

    def test_pairing_symmetric(self):
        for lam in range(5):
            emb = shapovalov_embed(lam, lam)
            for m in range(lam + 1):
                for k in range(lam + 1):
                    assert emb[m, k] == emb[k, m]


def test_only_weightmod_reads_the_cartan_generators():
    # the q^{+-h} matrices build the contragredient twist and nothing else:
    # every other module acts by E and F and reads weights off the slice
    cartan = {"GEN_QH", "GEN_QH_INV", "CARTAN_EXPONENT"}
    src = Path(__file__).resolve().parents[1] / "src" / "qcanon"
    readers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            if names & cartan:
                readers.add(path.stem)
    assert readers == {"weightmod"}
