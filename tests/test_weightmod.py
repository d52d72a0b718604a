import ast
from pathlib import Path

import pytest

from qcanon import linalg
from qcanon.qring import (ONE, ZERO, Q_MINUS_QINV, QScalar, exact_div,
                          quantum_int)
from qcanon.weightmod import (GEN_E, GEN_F, NegativeWeightError,
                              contragredient, make_simple)
from test_qring import quantum_factorial

q = QScalar.q_power
v = QScalar.v_power

# The Cartan generators exist only here: the package acts by E and F and
# reads weights off the slots.
GEN_QH = "qh"
GEN_QH_INV = "qh_inv"


class MatrixModule:
    """A test-local module with stored matrices for E, F and q^{+-h}.  It
    offers the package's module interface (`highest_weight`, `size`,
    `weight`, `ladder`), so slices and coproducts accept it, and `matrix`
    for the relation checks.  Hashes by identity, like the package's."""

    def __init__(self, highest_weight, e, f):
        size = e.shape[1]
        self.highest_weight, self.size = highest_weight, size
        self.mats = {GEN_E: e, GEN_F: f,
                     GEN_QH: linalg.diagonal(
                         [q(highest_weight - 2 * m) for m in range(size)]),
                     GEN_QH_INV: linalg.diagonal(
                         [q(2 * m - highest_weight) for m in range(size)])}

    def weight(self, slot):
        return self.highest_weight - 2 * slot

    def matrix(self, gen):
        return self.mats[gen]

    def ladder(self, gen, slot):
        return dict(self.mats[gen].col(slot).items())


def with_matrices(module):
    """`module`'s ladder formulas as stored matrices, Cartan diagonals taken
    from the weights."""
    size = module.size
    e, f = ([module.ladder(gen, m) for m in range(size)]
            for gen in (GEN_E, GEN_F))
    return MatrixModule(module.highest_weight, linalg.Matrix((size, size), e),
                        linalg.Matrix((size, size), f))


def transpose_dual(mod):
    """The contragredient by its definition: tau(E) = F q^h and tau(F) =
    q^-h E, and each generator acts on the dual basis by the transpose of
    tau of it; tau fixes the Cartan part, whose diagonals are symmetric."""
    return MatrixModule(
        mod.highest_weight,
        linalg.transpose(linalg.matmul(mod.matrix(GEN_F), mod.matrix(GEN_QH))),
        linalg.transpose(linalg.matmul(mod.matrix(GEN_QH_INV),
                                       mod.matrix(GEN_E))))


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
    return MatrixModule(lam, linalg.Matrix((size, size), e),
                        linalg.Matrix((size, size), f))


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
    for m in range(1, lam + 1):
        assert mod.ladder(GEN_E, m) == {m - 1: oracle_e_action(lam, m)}
        assert mod.ladder(GEN_E, m) == {m - 1: quantum_int(lam - m + 1)}
        assert mod.ladder(GEN_F, m - 1) == {m: quantum_int(m)}
    assert mod.ladder(GEN_E, 0) == mod.ladder(GEN_F, lam) == {}


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
    commutator_check(with_matrices(make_simple(lam)), lam + 1)


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
    mod = with_matrices(make_simple(lam))
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
    assert make_simple(2).ladder(GEN_E, 1) == {0: quantum_int(2)}
    assert make_simple(1).ladder(GEN_F, 1) == {}
    assert make_simple(3).weight(2) == -1
    assert make_simple(3).size == 4


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeightError):
        make_simple(-1)


def test_verma_examples():
    m = verma(2, 2)
    s = with_matrices(make_simple(2))
    for g in (GEN_E, GEN_F, GEN_QH):
        assert linalg.mat_eq(m.matrix(g), s.matrix(g))
    m52 = verma(5, 2)
    assert m52.matrix(GEN_E)[1, 2] == quantum_int(4)
    m01 = verma(0, 1)
    assert m01.matrix(GEN_E)[0, 1] == ZERO


class TestContragredient:
    def test_v1_dual_e(self):
        dual = contragredient(make_simple(1))
        assert dual.ladder(GEN_E, 1) == {0: q(1)}

    @pytest.mark.parametrize("lam", range(9))
    def test_formula_matches_transpose_route(self, lam):
        # the dual's ladder formulas against transpose(F q^h) and
        # transpose(q^-h E) built from the simple module's matrices
        dual = contragredient(make_simple(lam))
        reference = transpose_dual(with_matrices(make_simple(lam)))
        for gen in (GEN_E, GEN_F):
            for m in range(lam + 1):
                assert dual.ladder(gen, m) == reference.ladder(gen, m), \
                    (gen, m)

    def test_weights_preserved(self):
        mod = make_simple(3)
        dual = contragredient(mod)
        assert dual.size == mod.size
        assert all(dual.weight(m) == mod.weight(m) for m in range(mod.size))

    def test_involutive(self):
        mod = make_simple(2)
        assert contragredient(contragredient(mod)) is mod

    def test_relations_hold(self):
        commutator_check(with_matrices(contragredient(make_simple(3))), 4)


def shapovalov_embed(lam, level):
    """The map V_lam -> (M_lam)^c that sends the top vector to its dual:
    column m is F^(m) applied to the top dual functional."""
    fmat = transpose_dual(verma(lam, level)).matrix(GEN_F)
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
        simple = with_matrices(make_simple(lam))
        dual = transpose_dual(verma(lam, lam))
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


def test_no_src_module_names_the_cartan_generators():
    # modules act by E and F through their ladder formulas, and every
    # q^{+-h} factor is read off a weight: no generator matrix is stored
    cartan = {"GEN_QH", "GEN_QH_INV", "CARTAN_EXPONENT", "_mats",
              "_ladder_matrices"}
    src = Path(__file__).resolve().parents[1] / "src" / "qcanon"
    readers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            if names & cartan:
                readers.add(path.stem)
    assert readers == set()
