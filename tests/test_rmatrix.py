import copy
import importlib
import itertools
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcanon
from qcanon import linalg
from qcanon.qring import ONE, Q_MINUS_QINV, QScalar, exact_div
from qcanon.qring import InexactDivisionError
from qcanon.rmatrix import (_lift, _rcheck_longest, rcheck_longest,
                            rcheck_matrix, tau_theta_n, theta_matrix,
                            theta_n_matrix, theta_n_pieces)
from qcanon.reference import (NotReducedError, cartan_factor,
                              coproduct_matrix, psi_c, r_n_matrix,
                              rcheck_word, sigma0_matrix, tau_theta_braid)
from qcanon.canonical import dual_canonical_basis
from qcanon.verify import weight_slices
from qcanon.tensor import weight_space
from qcanon.weightmod import GEN_E, GEN_F, contragredient, make_simple
from test_qring import quantum_factorial
from test_weightmod import GEN_QH, GEN_QH_INV, with_matrices

q = QScalar.q_power
v = QScalar.v_power


def factors(*lams):
    return tuple(make_simple(x) for x in lams)


def dual_factors(*lams):
    return tuple(contragredient(make_simple(x)) for x in lams)


class TestTheta:
    def test_on_v1v1_level1(self):
        op = theta_matrix(factors(1, 1), 1)
        ws = op.source
        col = op.matrix.col(ws.pos[(1, 0)])
        assert col[ws.pos[(1, 0)]] == ONE
        assert col[ws.pos[(0, 1)]] == Q_MINUS_QINV
        col2 = op.matrix.col(ws.pos[(0, 1)])
        assert col2[ws.pos[(0, 1)]] == ONE
        assert col2[ws.pos[(1, 0)]] == 0

    def test_top_slice_trivial(self):
        op = theta_matrix(factors(2, 3), 0)
        assert linalg.mat_eq(op.matrix, linalg.identity(1))


class TestThetaSum:
    def test_kmax_zero_is_identity(self, monkeypatch):
        # level 0 or a zero-weight head: the k = 0 term alone, built without
        # a generator matrix
        import qcanon.rmatrix as rmatrix
        rmatrix._theta_piece_first.cache_clear()
        monkeypatch.setattr(rmatrix, "_t_matrix", None)
        cases = [(factors(2, 2), 0), (factors(3, 1, 2), 0)]
        cases += [(factors(0, 2), l) for l in range(3)]
        cases += [(factors(0, 1, 1), l) for l in range(3)]
        for fs, l in cases:
            dim = weight_space(fs, l).dim
            assert linalg.mat_eq(rmatrix._theta_piece_first(fs, l),
                                 linalg.identity(dim))

    def test_first_power_needs_no_lift_and_no_product(self, monkeypatch):
        # T is written from the ladder formulas, and the k = 1 term is T
        # itself: a piece with kmax = 1 lifts nothing and multiplies nothing
        import qcanon.rmatrix as rmatrix

        def forbidden(*args, **kwargs):
            raise AssertionError("called while building a k <= 1 piece")

        monkeypatch.setattr(rmatrix, "_lift", forbidden)
        monkeypatch.setattr(linalg, "matmul", forbidden)
        rmatrix._theta_piece_first.cache_clear()
        for fs, l in [(factors(1, 1), 1), (factors(1, 2, 1), 2),
                      (dual_factors(1, 0, 3), 3), (factors(5, 2), 1)]:
            piece = rmatrix._theta_piece_first(fs, l)
            assert piece.shape == (weight_space(fs, l).dim,) * 2

    def test_division_by_factorial_stays_exact(self, monkeypatch):
        # a divisor the k = 2 numerators do not carry must raise
        import qcanon.rmatrix as rmatrix
        rmatrix._theta_piece_first.cache_clear()
        real = rmatrix.quantum_int
        monkeypatch.setattr(rmatrix, "quantum_int", lambda k: 3 * real(k))
        with pytest.raises(InexactDivisionError):
            rmatrix._theta_piece_first(factors(2, 2), 2)

    def test_divides_only_from_k_two(self):
        # in a fresh process, so that psi_c builds every Theta sum anew
        code = ("from qcanon import linalg\n"
                "from qcanon.reference import psi_c\n"
                "from qcanon.qring import ONE, quantum_int\n"
                "divisors = []\n"
                "real = linalg.exact_div\n"
                "def counting(x, d):\n"
                "    divisors.append(d)\n"
                "    return real(x, d)\n"
                "linalg.exact_div = counting\n"
                "for lams in ((1,) * 6, (2, 2, 2)):\n"
                "    divisors.clear()\n"
                "    psi_c(lams, 3)\n"
                "    print(divisors.count(ONE),\n"
                "          divisors.count(quantum_int(2)))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        unit, mixed = [tuple(map(int, line.split()))
                       for line in done.stdout.splitlines()]
        assert unit == (0, 0)
        assert mixed[0] == 0 and mixed[1] > 0


class TestCartan:
    def test_two_factors_top(self):
        op = cartan_factor(factors(1, 1), 0)
        assert op.matrix[0, 0] == v(1)

    def test_three_unit_weights(self):
        op = cartan_factor(factors(1, 1, 1), 0)
        assert op.matrix[0, 0] == v(3)

    def test_zero_weight_factor_drops_out(self):
        op = cartan_factor(factors(1, 0, 1), 0)
        assert op.matrix[0, 0] == v(1)


class TestLift:
    def test_builds_each_block_level_once(self):
        # the columns (0,0,1), (0,1,0), (1,0,0) put the block [1:3] at
        # levels 1, 1, 0: two distinct levels, so two calls
        fs = factors(1, 1, 1)
        calls = []

        def sub(b):
            calls.append(b)
            return linalg.identity(weight_space(fs[1:], b).dim)

        lifted = _lift(fs, 1, 1, 3, sub)
        assert calls == [1, 0]
        assert linalg.mat_eq(lifted, linalg.identity(3))


def _theta_series(t, kmax):
    """sum_{k <= kmax} q^{k(k-1)/2} (q - q^-1)^k t^k / [k]!, term by term."""
    out = power = linalg.identity(t.shape[0])
    for k in range(1, kmax + 1):
        power = linalg.matmul(t, power)
        out = linalg.mat_add(out, linalg.mat_div(power, quantum_factorial(k)),
                             q(k * (k - 1) // 2) * Q_MINUS_QINV ** k)
    return out


def _generator_lift(fs, level, lo, hi, sub_fn, shift):
    """X on the block fs[lo:hi], identity on the other factors, where
    sub_fn(b) maps the block's slice at level b to its slice at level b +
    shift: a lifted generator, which production never builds."""
    src, tgt = weight_space(fs, level), weight_space(fs, level + shift)
    per_level = {}  # b -> (sub_fn(b), block pos, block indices at b + shift)
    cols = []
    for m in src.indices:
        part = m[lo:hi]
        b = sum(part)
        if b not in per_level:
            per_level[b] = (sub_fn(b), weight_space(fs[lo:hi], b).pos,
                            weight_space(fs[lo:hi], b + shift).indices)
        sub, pos, rows = per_level[b]
        cols.append({tgt.pos[m[:lo] + rows[i] + m[hi:]]: x
                     for i, x in sub.col(pos[part]).items()})
    return linalg.Matrix((tgt.dim, src.dim), cols)


def _t_by_lifts(fs, level):
    """T = E x Delta^{n-2}(F) as the product of two lifted coproduct
    matrices: E on factor 0, then the coproducted F on the rest."""
    head, rest = fs[:1], fs[1:]
    e = _generator_lift(fs, level, 0, 1,
                        lambda b: coproduct_matrix(head, b, GEN_E), -1)
    f = _generator_lift(fs, level - 1, 1, len(fs),
                        lambda b: coproduct_matrix(rest, b, GEN_F), 1)
    return linalg.matmul(f, e)


def _theta_piece_last(fs, level):
    """(Delta^{n-2} x 1)(Theta) = sum_k q^{k(k-1)/2} (q - q^-1)^k T'^k / [k]!,
    T' = Delta^{n-2}(E) x F: F on the last factor first, then the
    coproducted E on the front."""
    n = len(fs)
    init, last = fs[:-1], fs[-1:]
    f = _generator_lift(fs, level, n - 1, n,
                        lambda b: coproduct_matrix(last, b, GEN_F), 1)
    e = _generator_lift(fs, level + 1, 0, n - 1,
                        lambda b: coproduct_matrix(init, b, GEN_E), -1)
    return _theta_series(linalg.matmul(e, f), min(level, fs[-1].size - 1))


class TestTMatrix:
    """The one-pass T against the lift-and-multiply construction."""

    @staticmethod
    def _slices():
        from qcanon.verify import weight_slices
        yield from weight_slices(7)
        for lams in ((0, 2, 1), (2, 0, 0, 1), (0, 0, 3), (1, 0), (3, 0, 2)):
            for l in range(sum(lams) + 1):
                yield lams, l

    def test_equals_the_lifted_product_and_gives_the_same_piece(self):
        import qcanon.rmatrix as rmatrix
        checked = 0
        for lams, l in self._slices():
            for fs in (factors(*lams), dual_factors(*lams)):
                if len(fs) < 2 or l == 0:
                    continue
                kmax = min(l, fs[0].size - 1)  # 0 on a zero-weight head
                oracle = _t_by_lifts(fs, l)
                assert linalg.mat_eq(rmatrix._t_matrix(fs, l), oracle), \
                    (fs, l)
                assert linalg.mat_eq(rmatrix._theta_piece_first(fs, l),
                                     _theta_series(oracle, kmax)), (fs, l)
                checked += 1
        assert checked == 1512

    def test_column_entries_follow_the_ladder_formulas(self):
        # V1 x V1 x V1 at level 1, column (1, 0, 0): E lowers slot 0, F
        # raises slot 1 bare and slot 2 under the flank v^-2 of slot 1
        import qcanon.rmatrix as rmatrix
        fs = factors(1, 1, 1)
        ws = weight_space(fs, 1)
        col = rmatrix._t_matrix(fs, 1).col(ws.pos[(1, 0, 0)])
        assert dict(col.items()) == {ws.pos[(0, 1, 0)]: ONE,
                                     ws.pos[(0, 0, 1)]: v(-2)}


def _theta_n_right(fs, level):
    """Theta^(n) = (Theta^(n-1) x 1) . (Delta^{n-2} x 1)(Theta), the
    right-hand recursion that production does not use."""
    n = len(fs)
    if n <= 1:
        return linalg.identity(weight_space(fs, level).dim)
    init = fs[:-1]
    return linalg.matmul(
        _lift(fs, level, 0, n - 1, lambda b: _theta_n_right(init, b)),
        _theta_piece_last(fs, level))


class TestThetaN:
    def test_n1_identity(self):
        op = theta_n_matrix(factors(3), 2)
        assert linalg.mat_eq(op.matrix, linalg.identity(1))

    def test_n2_equals_theta(self):
        for l in range(3):
            a = theta_n_matrix(factors(1, 1), l).matrix
            b = theta_matrix(factors(1, 1), l).matrix
            assert linalg.mat_eq(a, b)

    @pytest.mark.parametrize("lams,l", [((1, 1, 1), 1), ((1, 1, 1), 2),
                                        ((2, 1, 1), 2), ((1, 2, 1), 3)])
    def test_left_and_right_recursions_agree(self, lams, l):
        a = theta_n_matrix(factors(*lams), l).matrix
        b = _theta_n_right(factors(*lams), l)
        assert linalg.mat_eq(a, b)

    def test_pieces_multiply_to_theta_n(self):
        # each piece is block diagonal, its blocks unit upper triangular,
        # and P_{n-2} ... P_1 P_0 is Theta^(n), on both module kinds
        from qcanon.verify import weight_slices
        pieces = 0
        for lams, l in weight_slices(4):
            for fs in (factors(*lams), dual_factors(*lams)):
                space = weight_space(fs, l)
                product = linalg.identity(space.dim)
                for blocks in theta_n_pieces(fs, l):
                    cols = []
                    for base, op in blocks:
                        tail = len(op.source.factors)
                        assert [space.indices[base + p][-tail:]
                                for p in range(op.source.dim)] \
                            == list(op.source.indices)
                        for p in range(op.source.dim):
                            col = op.matrix.col(p)
                            assert col[p] == ONE
                            assert all(r <= p for r, _ in col.items())
                            cols.append({base + r: x for r, x in col.items()})
                    assert len(cols) == space.dim
                    product = linalg.matmul(linalg.Matrix(
                        (space.dim, space.dim), cols), product)
                    pieces += 1
                assert linalg.mat_eq(product, theta_n_matrix(fs, l).matrix), \
                    (lams, l)
        assert pieces == 158


class TestRcheck:
    def test_top_vector_scalar(self):
        op = rcheck_matrix(factors(1, 1), 0, 0)
        assert op.matrix[0, 0] == v(1)

    def test_one_dimensional_space_is_monomial(self):
        op = rcheck_matrix(factors(1, 1), 2, 0)
        assert op.matrix.shape == (1, 1)
        assert len(op.matrix[0, 0]._terms) == 1

    # the braid route of tau_theta_n runs Rcheck on contragredient factors
    @pytest.mark.parametrize("make", [factors, dual_factors],
                             ids=["simple", "contragredient"])
    @pytest.mark.parametrize("lams", [(1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("gen", [GEN_E, GEN_F])
    def test_intertwines_coproduct(self, gen, lams, make):
        src = make(*lams)
        tgt = make(*lams[::-1])
        shift = -1 if gen == GEN_E else 1
        for l in range(1, sum(lams)):
            lhs = linalg.matmul(rcheck_matrix(src, l + shift, 0).matrix,
                                coproduct_matrix(src, l, gen))
            rhs = linalg.matmul(coproduct_matrix(tgt, l, gen),
                                rcheck_matrix(src, l, 0).matrix)
            assert linalg.mat_eq(lhs, rhs)

    @pytest.mark.parametrize("make", [factors, dual_factors],
                             ids=["simple", "contragredient"])
    @pytest.mark.parametrize("lams", [(1, 2, 1), (1, 1, 1)])
    @pytest.mark.parametrize("gen", [GEN_E, GEN_F])
    @pytest.mark.parametrize("pos", [0, 1])
    def test_intertwines_inside_three_factors(self, gen, pos, lams, make):
        swapped = list(lams)
        swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
        src = make(*lams)
        tgt = make(*swapped)
        shift = -1 if gen == GEN_E else 1
        for l in range(1, sum(lams)):
            lhs = linalg.matmul(
                rcheck_matrix(src, l + shift, pos).matrix,
                coproduct_matrix(src, l, gen))
            rhs = linalg.matmul(
                coproduct_matrix(tgt, l, gen),
                rcheck_matrix(src, l, pos).matrix)
            assert linalg.mat_eq(lhs, rhs)

    @pytest.mark.parametrize("pos", [-3, -1, 2, 3])
    def test_position_out_of_range(self, pos):
        with pytest.raises(ValueError, match="0 <= pos < 2"):
            rcheck_matrix(factors(1, 1, 1), 1, pos)

    @pytest.mark.parametrize("n", [0, 1])
    def test_position_needs_two_factors(self, n):
        with pytest.raises(ValueError, match="need at least two factors"):
            rcheck_matrix(factors(1)[:n], 0, 0)


class TestRcheckLongest:
    def test_n2_is_single_rcheck(self):
        a = rcheck_longest(factors(1, 2), 1).matrix
        b = rcheck_matrix(factors(1, 2), 1, 0).matrix
        assert linalg.mat_eq(a, b)

    def test_word_independence_n3(self):
        # production's recursion along (0, 1, 0) against the other word
        fs = factors(1, 1, 2)
        for l in range(5):
            a = rcheck_longest(fs, l).matrix
            b = rcheck_word(fs, l, (1, 0, 1)).matrix
            assert linalg.mat_eq(a, b)

    def test_yang_baxter_v1_cubed(self):
        fs = factors(1, 1, 1)
        for l in range(4):
            a = rcheck_word(fs, l, (0, 1, 0)).matrix
            b = rcheck_word(fs, l, (1, 0, 1)).matrix
            assert linalg.mat_eq(a, b)

    def test_bad_words_rejected(self):
        with pytest.raises(NotReducedError):
            rcheck_word(factors(1, 1, 1), 1, (0, 1))
        with pytest.raises(NotReducedError):
            rcheck_word(factors(1, 1, 1), 1, (0, 1, 1))
        with pytest.raises(NotReducedError):
            rcheck_word(factors(1, 1), 1, (1,))

    def test_default_word(self):
        assert default_longest_word(2) == (0,)
        assert default_longest_word(3) == (0, 1, 0)
        assert default_longest_word(4) == (0, 1, 0, 2, 1, 0)


def default_longest_word(n: int) -> tuple[int, ...]:
    """The word `rcheck_longest` follows, a reduced expression of the
    order-reversing permutation: bubble each factor to the front in turn."""
    word = []
    for a in range(1, n):
        word.extend(range(a - 1, -1, -1))
    return tuple(word)


def left_to_right_chain(fs, l, word):
    """Rcheck_{i_L} ... Rcheck_{i_1}, one factor at a time from the right."""
    mat = linalg.identity(weight_space(fs, l).dim)
    for i in word:
        mat = linalg.matmul(rcheck_matrix(fs, l, i).matrix, mat)
        fs = fs[:i] + (fs[i + 1], fs[i]) + fs[i + 2:]
    return mat


class TestRcheckLongestBracketing:
    @pytest.mark.parametrize("n", range(6))
    def test_default_word_matches_chain(self, n):
        # word lengths 0, 1, 3, 6, 10, 15: odd and even operator counts
        fs = factors(1, 2, 1, 1, 1)[:n]
        word = default_longest_word(n)
        for l in range(sum(x.size - 1 for x in fs) + 1):
            assert linalg.mat_eq(rcheck_word(fs, l, word).matrix,
                                 left_to_right_chain(fs, l, word))

    @pytest.mark.parametrize("lams, word", [
        ((1, 2, 1), (0, 1, 0)), ((1, 2, 1), (1, 0, 1)),
        ((1, 2, 1, 1), (2, 1, 0, 2, 1, 2))])
    def test_other_words_match_chain(self, lams, word):
        fs = factors(*lams)
        for l in range(sum(x.size - 1 for x in fs) + 1):
            assert linalg.mat_eq(rcheck_word(fs, l, word).matrix,
                                 left_to_right_chain(fs, l, word))

    def test_one_cache_entry_per_product(self):
        # the recursion caches its prefixes too; a second request reads the
        # one entry of the whole product, and the word reference, which
        # multiplies the pair operators out, adds no entry
        fs = factors(1, 1, 2)
        _rcheck_longest.cache_clear()
        rcheck_longest(fs, 2)
        first = _rcheck_longest.cache_info()
        rcheck_longest(fs, 2)
        for word in ((0, 1, 0), [0, 1, 0], (1, 0, 1)):
            rcheck_word(fs, 2, word)
        later = _rcheck_longest.cache_info()
        assert later.misses == first.misses
        assert later.currsize == first.currsize
        assert later.hits > first.hits


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("kind", [factors, dual_factors],
                         ids=["simple", "contragredient"])
def test_default_word_recursion_matches_chain(kind, n):
    # the prefix-and-bubble recursion, zero weights included
    fs = kind(1, 0, 2, 1, 0, 1)[:n]
    word = default_longest_word(n)
    _rcheck_longest.cache_clear()
    for l in range(sum(x.size - 1 for x in fs) + 1):
        assert linalg.mat_eq(rcheck_longest(fs, l).matrix,
                             left_to_right_chain(fs, l, word))


@pytest.mark.parametrize("kind", [factors, dual_factors],
                         ids=["simple", "contragredient"])
def test_tau_theta_braid_matches_two_products(kind):
    # (C^(n))^-1 sigma_0 applied as two products, not as a column relabel
    for lams, l in weight_slices(5):
        fs = kind(*lams)
        rev = fs[::-1]
        want = linalg.matmul(
            rcheck_longest(rev, l).matrix,
            linalg.matmul(linalg.mat_bar(cartan_factor(rev, l).matrix),
                          sigma0_matrix(fs, l).matrix))
        assert linalg.mat_eq(tau_theta_braid(fs, l).matrix, want)


class TestBraidFactorizationIdentities:
    @pytest.mark.parametrize("lams", [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1)])
    def test_rcheck_equals_sigma0_r(self, lams):
        fs = factors(*lams)
        for l in range(sum(lams) + 1):
            lhs = rcheck_longest(fs, l).matrix
            rhs = linalg.matmul(sigma0_matrix(fs, l).matrix,
                                r_n_matrix(fs, l).matrix)
            assert linalg.mat_eq(lhs, rhs)

    @pytest.mark.parametrize("lams", [(1, 1), (2, 1), (1, 1, 1), (1, 2, 1)])
    def test_r_equals_cartan_theta(self, lams):
        fs = factors(*lams)
        for l in range(sum(lams) + 1):
            lhs = r_n_matrix(fs, l).matrix
            rhs = linalg.matmul(cartan_factor(fs, l).matrix,
                                theta_n_matrix(fs, l).matrix)
            assert linalg.mat_eq(lhs, rhs)

    @pytest.mark.parametrize("lams", [(1, 1), (1, 1, 1), (2, 1), (0, 2),
                                      (2, 0, 1)])
    def test_tau_theta_braid_product(self, lams):
        # tau(Theta^(n)) = Rcheck^(n) (C^(n))^-1 sigma_0 on the plain product
        fs = factors(*lams)
        for l in range(sum(lams) + 1):
            assert linalg.mat_eq(tau_theta_n(fs, l).matrix,
                                 tau_theta_braid(fs, l).matrix)


class TestTauThetaOnDuals:
    def test_n1_identity(self):
        op = tau_theta_n(dual_factors(2), 1)
        assert linalg.mat_eq(op.matrix, linalg.identity(1))

    def test_v1v1_level1(self):
        op = tau_theta_n(dual_factors(1, 1), 1)
        ws = op.source
        col = op.matrix.col(ws.pos[(0, 1)])
        assert col[ws.pos[(0, 1)]] == ONE
        assert col[ws.pos[(1, 0)]] == Q_MINUS_QINV
        col2 = op.matrix.col(ws.pos[(1, 0)])
        assert col2[ws.pos[(1, 0)]] == ONE
        assert col2[ws.pos[(0, 1)]] == 0

    @pytest.mark.parametrize("lams", [(1, 1), (2, 1), (1, 1, 1), (0, 2),
                                      (2, 0, 1)])
    def test_cross_check_passes(self, lams):
        # the transpose route agrees with the braid product on the duals
        fs = dual_factors(*lams)
        for l in range(sum(lams) + 1):
            assert linalg.mat_eq(tau_theta_n(fs, l).matrix,
                                 tau_theta_braid(fs, l).matrix)

    def test_basis_forms_no_theta_n_and_psi_c_runs_the_transpose_route(self):
        # in a fresh process: the dual canonical basis reads the pieces of
        # Theta^(n) and never their product; psi_c then builds
        # tau(Theta^(n)) from the cached Theta^(n) downstairs, without Rcheck
        code = ("from qcanon import rmatrix\n"
                "from qcanon.canonical import dual_canonical_basis\n"
                "from qcanon.reference import psi_c\n"
                "from qcanon.weightmod import simple_factors\n"
                "dual_canonical_basis((1, 1, 1, 1), 2)\n"
                "print(rmatrix._theta_n.cache_info().currsize,\n"
                "      rmatrix._theta_piece_first.cache_info().currsize > 0)\n"
                "psi_c((1, 1, 1, 1), 2)\n"
                "seen = rmatrix._theta_n.cache_info()\n"
                "rmatrix._theta_n(simple_factors((1, 1, 1, 1)), 2)\n"
                "now = rmatrix._theta_n.cache_info()\n"
                "print(now.hits - seen.hits, now.misses - seen.misses,\n"
                "      *(f.cache_info().currsize for f in (\n"
                "          rmatrix._rcheck_longest, rmatrix._pair_rcheck)))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "True", "1", "0", "0", "0"]

    @pytest.mark.parametrize("lams", [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2),
                                      (3, 3), (4, 2), (5, 5)])
    def test_plain_factors_evaluate_the_element(self, lams):
        # on a plain two-factor product, tau(Theta) = sum_k q^{k(k-1)/2}
        # (q - q^-1)^k / [k]!  (F q^h)^k x (q^-h E)^k, read off the module
        # matrices one pair of slots at a time
        fs = factors(*lams)
        m0, m1 = with_matrices(fs[0]), with_matrices(fs[1])
        x = linalg.matmul(m0.matrix(GEN_F), m0.matrix(GEN_QH))
        y = linalg.matmul(m1.matrix(GEN_QH_INV), m1.matrix(GEN_E))
        xk, yk = linalg.identity(fs[0].size), linalg.identity(fs[1].size)
        element = {}  # (row tuple, column tuple) -> coefficient
        for k in range(min(lams) + 1):
            c = q(k * (k - 1) // 2) * Q_MINUS_QINV ** k
            for m in itertools.product(range(fs[0].size), range(fs[1].size)):
                for t0, a in xk.col(m[0]).items():
                    for t1, b in yk.col(m[1]).items():
                        term = exact_div(c * a * b, quantum_factorial(k))
                        element[(t0, t1), m] = \
                            element.get(((t0, t1), m), QScalar()) + term
            xk, yk = linalg.matmul(x, xk), linalg.matmul(y, yk)
        for l in range(sum(lams) + 1):
            op = tau_theta_n(fs, l)
            space = op.source
            for j, m in enumerate(space.indices):
                for i, t in enumerate(space.indices):
                    assert op.matrix[i, j] == \
                        element.get((t, m), QScalar()), (l, t, m)


def test_cached_operator_is_immutable():
    fs = factors(1, 1)
    op = theta_n_matrix(fs, 1)
    original = op.matrix[0, 0]
    with pytest.raises(TypeError):
        op.matrix[0, 0] = QScalar()
    with pytest.raises(AttributeError):
        op.matrix.shape = (0, 0)
    again = theta_n_matrix(fs, 1).matrix
    assert again[0, 0] == original == ONE


def test_cached_weight_slice_is_immutable():
    # each write repeats the value it replaces, so where it is not refused
    # the cached slice stays intact for the tests that follow
    space = weight_space(dual_factors(1, 1), 1)
    with pytest.raises(TypeError):
        space.pos[(1, 0)] = space.pos[(1, 0)]
    with pytest.raises(AttributeError):
        space.indices = space.indices
    basis = dual_canonical_basis((1, 1), 1)
    assert [b.index for b in basis] == [(0, 1), (1, 0)]
    assert basis[0].coeff((1, 0)) == -q(-1)


@pytest.mark.parametrize("make", [
    lambda: make_simple(1), lambda: contragredient(make_simple(1))],
    ids=["simple", "contragredient"])
def test_cached_module_is_immutable(make):
    module = make()
    with pytest.raises(AttributeError):
        module.highest_weight = module.highest_weight
    assert make() is module and module.highest_weight == 1


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_are_the_cached_instances(clone):
    # modules and slices hash by identity: a copy must be the cached one
    for module in (make_simple(1), contragredient(make_simple(2))):
        assert clone(module) is module
    basis = dual_canonical_basis((1, 2), 1)
    space = basis[0].space
    assert clone(space) is space
    for b in basis:
        c = clone(b)
        assert c.space is space and c.index == b.index
        assert linalg.mat_eq(c.coords, b.coords)
    for op in (theta_n_matrix(factors(1, 2), 1),
               rcheck_matrix(factors(1, 2), 1, 0)):
        c = clone(op)
        assert c.source is op.source and c.target is op.target
        assert linalg.mat_eq(c.matrix, op.matrix)
    psi = psi_c((1, 2), 1)
    c = clone(psi)
    assert c.source is psi.source and c.target is psi.target
    assert linalg.mat_eq(c.matrix, psi.matrix)


def test_cache_inventory():
    # each cache must earn its place (see the rmatrix docstring); a change
    # that adds or drops one edits this list and says why
    cached = set()
    for info in pkgutil.iter_modules(qcanon.__path__):
        module = importlib.import_module(f"qcanon.{info.name}")
        cached |= {f"{info.name}.{name}" for name, f in vars(module).items()
                   if hasattr(f, "cache_info")
                   and f.__module__ == module.__name__}
    assert cached == {
        "rmatrix._theta_piece_first",
        "rmatrix._theta_n",
        "rmatrix._pair_rcheck", "rmatrix._rcheck_longest",
        # the last factor moved to the front: the longest braiding's
        # recursion reads it once per prefix and level
        "rmatrix._bubble",
        "weightmod.make_simple", "weightmod.contragredient",
        "tensor.weight_space",
        # the certified dual canonical basis of each slice: verify's checks
        # and canonical_basis_pair read it again
        "canonical._certified_basis",
        # the q-Pascal recursion of the closed form's bundle weights
        "canonical._gaussian_binomial",
        # R^(n) by its own recursion, for the references only
        "reference._r_n"}


@pytest.mark.parametrize("wrapper", [
    cartan_factor, theta_n_matrix, r_n_matrix, sigma0_matrix, rcheck_longest,
    tau_theta_braid, tau_theta_n], ids=lambda f: f.__name__)
def test_empty_product_is_trivial_module(wrapper):
    # no factors: the trivial module, one vector at level 0 and none above
    assert linalg.mat_eq(wrapper((), 0).matrix, linalg.identity(1))
    assert wrapper((), 1).matrix.shape == (0, 0)


@pytest.mark.parametrize("wrapper", [
    theta_n_matrix, r_n_matrix, tau_theta_n,
    lambda fs, level: tau_theta_n(tuple(map(contragredient, fs)), level)],
    ids=["theta_n_matrix", "r_n_matrix", "tau_theta_n_simple", "tau_theta_n"])
def test_many_factors_need_no_deep_recursion(wrapper):
    # 300 factors, deeper than the recursion limit: the trivial module
    assert linalg.mat_eq(wrapper(factors(*[0] * 300), 0).matrix,
                         linalg.identity(1))


def test_empty_product_dual_basis():
    (b,) = dual_canonical_basis((), 0)
    assert b.index == () and b.coeff(()) == ONE
