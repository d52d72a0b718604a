import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcanon import canonical, linalg
from qcanon.canonical import (BasisVector, CountMismatchError,
                              TriangularityViolationError, _pack,
                              _solve_triangular, apply_antilinear,
                              canonical_basis_pair, dual_canonical_basis,
                              is_involution, psi_c, psi_tensor2,
                              singular_subset)
from qcanon.qring import (ONE, ZERO, BarAsymmetryError, OddExponentError,
                          QScalar, in_qinv_ideal, solve_bar_equation)
from qcanon.rmatrix import BraidOperator, tau_theta_n
from qcanon.tensor import coproduct_matrix, enumerate_P, weight_space
from qcanon.verify import weight_slices
from qcanon.weightmod import GEN_E, GEN_F, dual_factors

q = QScalar.q_power


def unit(space, m):
    """The monomial vector of index m on a slice."""
    return linalg.Vector(space.dim, {space.pos[m]: ONE})


def small_lams(max_sum, min_n=1, max_n=None):
    for n in range(min_n, (max_n or max_sum) + 1):
        for lam in itertools.product(range(1, max_sum + 1), repeat=n):
            if sum(lam) <= max_sum:
                yield lam


class TestPsiC:
    def test_fixes_lowest_dual_monomial(self):
        psi = psi_c((1, 1), 1)
        e10 = unit(psi.source, (1, 0))
        assert linalg.mat_eq(apply_antilinear(psi, e10), e10)

    def test_corrects_highest_dual_monomial(self):
        psi = psi_c((1, 1), 1)
        ws = psi.source
        out = apply_antilinear(psi, unit(ws, (0, 1)))
        assert out[ws.pos[(0, 1)]] == ONE
        assert out[ws.pos[(1, 0)]] == q(1) - q(-1)

    @pytest.mark.parametrize("lams", [(1, 1), (2, 1), (1, 1, 1), (2, 2)])
    def test_involution(self, lams):
        for l in range(sum(lams) + 1):
            assert is_involution(psi_c(lams, l))

    def test_is_tau_theta_n_on_the_dual_slice(self):
        for lams, l in weight_slices(4):
            psi = psi_c(lams, l)
            assert isinstance(psi, BraidOperator)
            space = weight_space(dual_factors(lams), l)
            assert psi.source is space and psi.target is space
            assert linalg.mat_eq(psi.matrix,
                                 tau_theta_n(dual_factors(lams), l).matrix)


class TestPsiTensor2:
    def test_fixes_top(self):
        psi = psi_tensor2((1, 1), 0)
        e = unit(psi.source, (0, 0))
        assert linalg.mat_eq(apply_antilinear(psi, e), e)

    def test_bar_theta_coefficient(self):
        psi = psi_tensor2((1, 1), 1)
        ws = psi.source
        out = apply_antilinear(psi, unit(ws, (1, 0)))
        assert out[ws.pos[(1, 0)]] == ONE
        assert out[ws.pos[(0, 1)]] == q(-1) - q(1)

    def test_involution_v2v1(self):
        for l in range(4):
            assert is_involution(psi_tensor2((2, 1), l))


class TestDualCanonicalBasis:
    def test_golden_v1v1(self):
        basis = dual_canonical_basis((1, 1), 1)
        by_index = {b.index: b for b in basis}
        b10 = by_index[(1, 0)]
        assert b10.coeff((1, 0)) == ONE and not b10.coeff((0, 1))
        b01 = by_index[(0, 1)]
        assert b01.coeff((0, 1)) == ONE
        assert b01.coeff((1, 0)) == -q(-1)

    def test_level_zero_single_monomial(self):
        for lams in [(1,), (2, 3), (1, 1, 1)]:
            basis = dual_canonical_basis(lams, 0)
            assert len(basis) == 1
            assert basis[0].coeff(tuple(0 for _ in lams)) == ONE
            assert len(basis[0].support()) == 1

    def test_levels_outside_the_slice_are_empty(self):
        for lams, level in [((1, 1), 5), ((2,), 3), ((), 1), ((0, 0), 1)]:
            assert dual_canonical_basis(lams, level) == []

    def test_single_factor_monomials(self):
        for lam in range(4):
            for m in range(lam + 1):
                basis = dual_canonical_basis((lam,), m)
                assert len(basis) == 1
                assert len(basis[0].support()) == 1

    @pytest.mark.parametrize("lams", [(1, 1), (2, 1), (1, 1, 1), (2, 2),
                                      (1, 2, 1)])
    def test_solver_contract(self, lams):
        for l in range(sum(lams) + 1):
            basis = dual_canonical_basis(lams, l)
            assert [b.index for b in basis] == enumerate_P(lams, l)
            psi = psi_c(lams, l)
            for b in basis:
                assert linalg.mat_eq(apply_antilinear(psi, b.coords),
                                     b.coords)
                assert b.coeff(b.index) == ONE
                for k in b.support():
                    assert k >= b.index
                    if k != b.index:
                        assert in_qinv_ideal(b.coeff(k))

    def test_uniqueness_perturbation_breaks_fixedness(self):
        basis = dual_canonical_basis((2, 2), 2)
        psi = psi_c((2, 2), 2)
        eps = q(-1)
        for i, b in enumerate(basis):
            for k in basis[i + 1:]:
                perturbed = linalg.mat_add(b.coords, k.coords, eps)
                assert not linalg.mat_eq(apply_antilinear(psi, perturbed),
                                         perturbed)


def _defective(anti, defect):
    """A copy of `anti` with one defect the solver must refuse."""
    dim = anti.source.dim
    cols = [dict(anti.matrix.col(j).items()) for j in range(dim)]
    if defect == "diagonal":
        cols[0][0] = q(2)
    elif defect == "wrong_side":  # a row before the column in solving order
        cols[1][0] = ONE
    else:  # the first off-diagonal entry, shifted by q^-1 or v^-1
        p, k = next((p, k) for p in range(dim) for k in sorted(cols[p])
                    if k != p)
        shift = q(-1) if defect == "shifted" else QScalar.v_power(-1)
        cols[p][k] = cols[p][k] + shift
    return BraidOperator(anti.source, anti.target,
                         linalg.Matrix((dim, dim), cols))


class TestSolverGuards:
    @pytest.mark.parametrize("defect, error", [
        ("diagonal", TriangularityViolationError),
        ("wrong_side", TriangularityViolationError),
        ("shifted", BarAsymmetryError),
        ("odd", OddExponentError)])
    def test_defective_map_raises(self, defect, error):
        anti = psi_c((1, 1, 1), 1)
        assert _solve_triangular(anti)  # the intact map solves
        with pytest.raises(error):
            _solve_triangular(_defective(anti, defect))


class TestReferenceSolver:
    def test_exact_on_large_coefficients(self):
        # A = [[1, 0, 0], [a, 1, 0], [b, a, 1]] with a = n (q - q^-1) and
        # b = n^2 (2 q^2 - 1 - q^-2): the exact solution is known by hand
        n = 2**40 + 3
        a = n * (q(1) - q(-1))
        b = n * n * (2 * q(2) - ONE - q(-2))
        space = psi_c((1, 1, 1), 1).source
        anti = BraidOperator(space, space, linalg.Matrix(
            (3, 3), [{0: ONE, 1: a, 2: b}, {1: ONE, 2: a}, {2: ONE}]))
        basis = _solve_triangular(anti)
        want = [{0: ONE, 1: -n * q(-1), 2: -n * n * q(-2)},
                {1: ONE, 2: -n * q(-1)}, {2: ONE}]
        assert [dict(b.coords.items()) for b in basis] == want
        for vec in basis:
            assert linalg.mat_eq(apply_antilinear(anti, vec.coords),
                                 vec.coords)

    @pytest.mark.parametrize("lams", [(1, 1), (2, 1)])
    def test_perturbed_answer_fails_the_fixed_point_check(self, lams,
                                                          monkeypatch):
        # an ideal term added to the first answer: the solve goes on, and
        # the fresh product must refuse the vector
        real = canonical.solve_bar_equation
        calls = []

        def perturbed(rho):
            calls.append(rho)
            c = real(rho)
            return c + q(-2) if len(calls) == 1 else c

        monkeypatch.setattr(canonical, "solve_bar_equation", perturbed)
        with pytest.raises(TriangularityViolationError,
                           match="fixed-point defect"):
            _solve_triangular(psi_c(lams, 1))

    def test_every_vector_is_a_fixed_point_on_the_scalar_route(self):
        # psi . bar on QScalar entries, for both production routes
        for lams, l in weight_slices(5):
            cases = [(psi_c(lams, l), dual_canonical_basis(lams, l))]
            if len(lams) == 2:
                cases.append((psi_tensor2(lams, l),
                              canonical_basis_pair(lams, l)))
            for anti, basis in cases:
                assert len(basis) == anti.source.dim
                for b in basis:
                    assert linalg.mat_eq(apply_antilinear(anti, b.coords),
                                         b.coords), \
                        (lams, l, b.index)


def _cli_basis(capsys, lams, level):
    """Run `qcanon basis` in process: (exit code, parsed stdout, stderr)."""
    from qcanon.cli import main
    code = main(["basis", "--lambda", ",".join(map(str, lams)),
                 "--level", str(level)])
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def through_pieces_all_terms(packed, x, bits):
    """The certificate's product loop before it kept only live terms: the
    structural zeros ride along, no common power of q is divided out, and
    only the final entries are filtered."""
    for cols in reversed(packed):
        y = {}
        for r, xr in x.items():
            base, col = cols[r]
            for p, v in col.items():
                p += base
                y[p] = y.get(p, 0) + v * xr
        x = y
    return {p: v for p, v in x.items() if v}, 0


@pytest.fixture(params=["live_terms", "all_terms"])
def product_loop(request, monkeypatch):
    """Run a test with the production product loop and again with the
    all-terms loop in its place."""
    if request.param == "all_terms":
        monkeypatch.setattr(canonical, "_through_pieces",
                            through_pieces_all_terms)
    return request.param


@pytest.mark.parametrize("lams, level", [
    ((1,) * 8, 4), ((2,) * 4, 4), ((3, 1, 2), 3), ((1, 0, 2, 1), 2)])
def test_product_loops_accept_the_same_bases(monkeypatch, lams, level):
    def coords(basis):
        return [(b.index, sorted(b.coords.items())) for b in basis]

    live = coords(dual_canonical_basis(lams, level))
    monkeypatch.setattr(canonical, "_through_pieces", through_pieces_all_terms)
    assert coords(dual_canonical_basis(lams, level)) == live


@pytest.mark.usefixtures("product_loop")
class TestCertificate:
    """Each defect the certificate of the closed form is there to catch
    raises, and `qcanon basis` reports it as a failed check: exit 1, one
    JSON record, nothing on stderr; with either product loop."""

    LAMS, LEVEL = (2, 1, 1), 2  # dim 4

    def _edit_closed_form(self, monkeypatch, edit):
        """Production with the coordinates of the first element, (0, 1, 1),
        replaced by edit(coords)."""
        real = canonical._closed_form

        def edited(space, a):
            coords = real(space, a)
            return edit(dict(coords)) if a == space.indices[0] else coords

        monkeypatch.setattr(canonical, "_closed_form", edited)

    def _refused(self, capsys, error, match):
        with pytest.raises(error, match=match):
            dual_canonical_basis(self.LAMS, self.LEVEL)
        code, record, err = _cli_basis(capsys, self.LAMS, self.LEVEL)
        assert code == 1 and err == ""
        assert record["failure"] and record["error_type"] == error.__name__

    def test_intact_route_passes(self, capsys):
        code, doc, err = _cli_basis(capsys, self.LAMS, self.LEVEL)
        assert code == 0 and err == "" and len(doc["basis"]) == 4

    def test_ideal_multiple_of_a_later_element(self, monkeypatch, capsys):
        # still lead 1 and every other coefficient in q^-1 Z[q^-1]: only
        # the fixed-point product can tell
        later = canonical._closed_form(
            weight_space(dual_factors(self.LAMS), self.LEVEL), (1, 0, 1))

        def edit(coords):
            for r, c in later.items():
                coords[r] = coords.get(r, ZERO) + q(-1) * c
            return coords

        self._edit_closed_form(monkeypatch, edit)
        self._refused(capsys, TriangularityViolationError,
                      "fixed-point defect at \\(0, 1, 1\\)")

    @pytest.mark.parametrize("term, error, match", [
        (q(1), AssertionError, "outside q\\^-1 Z\\[q\\^-1\\]"),
        # in the ideal, but below anything A bar(b_m) reaches: b_m no
        # longer packs at the product's offset
        (7 * q(-100), TriangularityViolationError, "fixed-point defect"),
        # d and bar(d) = 8 q^3 - 65 q^2 + 8 q both vanish at q = 8: at 3
        # bits the packed products could not see d, so the width must come
        # from the coefficient bound
        (8 * q(-3) - 65 * q(-2) + 8 * q(-1), TriangularityViolationError,
         "fixed-point defect")],
        ids=["outside_the_ideal", "below_every_exponent",
             "zero_at_a_narrow_width"])
    def test_term_added_to_the_last_coefficient(self, monkeypatch, capsys,
                                                term, error, match):
        def edit(coords):
            r = max(coords)
            coords[r] = coords[r] + term
            return coords

        self._edit_closed_form(monkeypatch, edit)
        self._refused(capsys, error, match)

    def test_piece_entry_on_the_wrong_side(self, monkeypatch, capsys):
        # P_0 with an entry below its diagonal: its transpose is no longer
        # lower triangular
        real = canonical.theta_n_pieces

        def defective(factors, level):
            pieces = real(factors, level)
            (base, op), *rest = pieces[0]
            cols = [dict(op.matrix.col(p).items())
                    for p in range(op.source.dim)]
            cols[0][1] = ONE
            bad = BraidOperator(op.source, op.target, linalg.Matrix(
                op.matrix.shape, cols))
            return [[(base, bad), *rest], *pieces[1:]]

        monkeypatch.setattr(canonical, "theta_n_pieces", defective)
        self._refused(capsys, TriangularityViolationError, "defect of")


def q_polys(exps, coeffs, max_size):
    """Laurent polynomials in q: exponents drawn in q-units."""
    return st.dictionaries(exps, coeffs, max_size=max_size).map(
        lambda t: QScalar({2 * k: c for k, c in t.items()}))


small_q_polys = q_polys(st.integers(-3, 3), st.integers(-3, 3), 3)


@given(small_q_polys, small_q_polys, st.integers(0, 3))
def test_pack_is_a_ring_map(a, b, extra):
    bits, off = 8, 3 + extra  # coefficients of a * b stay below 2^7
    pa, pb = (_pack(x, bits, off) for x in (a, b))
    assert pa + pb == _pack(a + b, bits, off)
    assert pa * pb == _pack(a * b, bits, 2 * off)


def test_pack_rejects_what_does_not_fit():
    with pytest.raises(ValueError):
        _pack(q(-2), 8, 1)  # below the offset
    with pytest.raises(ValueError):
        _pack(QScalar.v_power(1), 8, 0)  # a half q-power


def _canonical_by_substitution(lams, l):
    """The fixed points c_m = e_m + sum_{k<m} c_k e_k of psi = bar(Theta) .
    bar on a plain two-factor slice, each by one forward substitution that
    scans the rows before m in descending order: the oracle for
    `canonical_basis_pair`, independent of the dual basis."""
    psi = psi_tensor2(lams, l)
    cols = [dict(psi.matrix.col(p).items()) for p in range(psi.source.dim)]
    out = []
    for m in range(len(cols)):
        coeffs = {m: ONE}
        for r in range(m - 1, -1, -1):
            # row r of psi(c) = c: c_r - bar(c_r) = sum_{k>r} A[r, k] bar(c_k)
            rho = sum((cols[k].get(r, ZERO) * c.bar()
                       for k, c in coeffs.items()), ZERO)
            if rho:
                coeffs[r] = solve_bar_equation(rho)
        out.append(coeffs)
    return out


def _edit_inversion(monkeypatch, edit):
    """Production with the columns of D^-T passed through edit(cols)."""
    real = canonical._inverse_transpose
    monkeypatch.setattr(canonical, "_inverse_transpose",
                        lambda dual: edit(real(dual)))


class TestCanonicalPair:
    def test_matches_the_substitution_oracle(self):
        # every two-factor slice with weight sum <= 14, zero weights included
        slices = [((a, s - a), l) for s in range(15) for a in range(s + 1)
                  for l in range(s + 1)]
        assert len(slices) == 1240
        for lams, l in slices:
            got = canonical_basis_pair(lams, l)
            assert [dict(b.coords.items()) for b in got] \
                == _canonical_by_substitution(lams, l), (lams, l)

    def test_answers_without_the_solver(self, monkeypatch, capsys):
        # canonical2 reads only the dual basis: every recorded request
        # answers byte for byte with the reference solver gone
        from qcanon.cli import main

        def gone(op):
            raise AssertionError("the reference solver ran")

        monkeypatch.setattr(canonical, "_solve_triangular", gone)
        cases = [c for c in json.loads(
            (Path(__file__).parent / "cli_golden.json").read_text())
            if c["argv"][0] == "canonical2"]
        assert cases
        for case in cases:
            assert main(case["argv"]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]

    def test_perturbed_inversion_coefficient_raises(self, monkeypatch):
        # an ideal term added to one off-lead coefficient: lead, support and
        # ideal all still hold, so only the fresh product can refuse it
        def edit(cols):
            m = next(m for m, c in enumerate(cols) if len(c) > 1)
            k = min(cols[m])
            cols[m][k] = cols[m][k] + q(-1)
            return cols

        _edit_inversion(monkeypatch, edit)
        with pytest.raises(TriangularityViolationError,
                           match="fixed-point defect at \\(1, 1\\)"):
            canonical_basis_pair((2, 2), 2)

    @pytest.mark.parametrize("edit, error, match", [
        (lambda c: {**c, min(c): q(1)}, AssertionError,
         "outside q\\^-1 Z\\[q\\^-1\\]"),
        (lambda c: {**c, max(c): 2 * ONE}, TriangularityViolationError,
         "lead coefficient"),
        (lambda c: {**c, max(c) + 1: q(-1)}, TriangularityViolationError,
         "outside the k>0 shift family")],
        ids=["outside_the_ideal", "lead", "support_after_the_lead"])
    def test_certificate_refuses(self, monkeypatch, edit, error, match):
        _edit_inversion(monkeypatch, lambda cols: [
            cols[0], edit(cols[1]), *cols[2:]])
        with pytest.raises(error, match=match):
            canonical_basis_pair((2, 2), 2)

    def test_v1v1_level1(self):
        basis = canonical_basis_pair((1, 1), 1)
        by_index = {b.index: b for b in basis}
        pure = by_index[(0, 1)]
        assert len(pure.support()) == 1
        corrected = by_index[(1, 0)]
        assert corrected.coeff((1, 0)) == ONE
        low = corrected.coeff((0, 1))
        assert low and in_qinv_ideal(low)

    def test_top_space_pure_monomial(self):
        basis = canonical_basis_pair((2, 3), 0)
        assert len(basis) == 1 and len(basis[0].support()) == 1

    @pytest.mark.parametrize("lams", [(1, 1), (2, 1), (2, 2), (1, 3)])
    def test_duality_with_dual_basis(self, lams):
        for l in range(sum(lams) + 1):
            can = canonical_basis_pair(lams, l)
            dual = dual_canonical_basis(lams, l)
            for db in dual:
                for cb in can:
                    pair = sum((a * b for a, b in zip(db.coords, cb.coords)),
                               start=QScalar())
                    expected = ONE if db.index == cb.index else QScalar()
                    assert pair == expected


class TestSingular:
    def test_golden_example(self):
        basis = dual_canonical_basis((1, 1), 1)
        assert [b.index for b in singular_subset(basis)] == [(0, 1)]

    def test_level_zero_always_singular(self):
        basis = dual_canonical_basis((2, 1), 0)
        assert singular_subset(basis) == basis

    def test_v2_level1_empty(self):
        basis = dual_canonical_basis((2,), 1)
        assert singular_subset(basis) == []

    def test_subset_examples(self):
        subset = singular_subset(dual_canonical_basis((1, 1), 1))
        assert [b.index for b in subset] == [(0, 1)]
        subset4 = singular_subset(dual_canonical_basis((1, 1, 1, 1), 2))
        assert len(subset4) == 2  # Catalan C_2

    def test_count_check_fires_on_corruption(self):
        basis = dual_canonical_basis((1, 1), 1)
        # drop the singular member: the rank check must notice
        broken = [b for b in basis if b.index == (1, 0)]
        with pytest.raises(CountMismatchError):
            singular_subset(broken)


def test_rank_at_q1_bound_is_the_classical_count():
    # dim - rank(E at q = 1) equals the number of highest-weight vectors of
    # the classical tensor product on every slice of the bound-5 sweep
    from qcanon.tensor import coproduct_matrix
    from qcanon.verify import independent_dimension, weight_slices
    from qcanon.weightmod import GEN_E, dual_factors
    for lams, l in weight_slices(5):
        e = coproduct_matrix(dual_factors(lams), l, GEN_E)
        expected = 0
        if sum(lams) >= 2 * l:
            expected = (independent_dimension(lams, l)
                        - independent_dimension(lams, l - 1))
        assert e.shape[1] - linalg.rank_at_q1(e) == expected, (lams, l)


def _expand(basis, x):
    """The coefficients of x over a dual canonical basis (ascending index
    order, b_p = e_p + terms after p), peeled from the lowest index."""
    rest = x
    coeffs = []
    for p, b in enumerate(basis):
        c = rest[p]
        if c:
            coeffs.append(c)
            rest = linalg.mat_add(rest, b.coords, -c)
    assert linalg.is_zero(rest), "incomplete peel"
    return coeffs


def _structure_constants(slices, basis_of):
    """Every coefficient of E b and F b over the target slice's dual
    canonical basis, for each b = basis_of(lams, l) on the given slices."""
    bases = {}

    def basis(lams, l):
        if (lams, l) not in bases:
            bases[lams, l] = basis_of(lams, l)
        return bases[lams, l]

    out = []
    for lams, l in slices:
        for gen, t in ((GEN_E, l - 1), (GEN_F, l + 1)):
            if 0 <= t <= sum(lams):
                mat = coproduct_matrix(dual_factors(lams), l, gen)
                for b in basis(lams, l):
                    out.extend(_expand(basis(lams, t),
                                       linalg.matmul(mat, b.coords)))
    return out


def _nonnegative(c):
    return all(k > 0 for k in c._terms.values())


def _negated_off_lead(lams, l):
    """The solver's basis with every off-lead coefficient negated."""
    out = []
    for b in dual_canonical_basis(lams, l):
        lead = b.space.pos[b.index]
        coords = {i: x if i == lead else -x for i, x in b.coords.items()}
        out.append(BasisVector(b.index, b.space,
                               linalg.Vector(b.coords.dim, coords)))
    return out


class TestPositivity:
    def test_e_and_f_have_coefficients_in_n_v(self):
        # E b and F b expand over the dual canonical basis with every
        # coefficient in N[v, v^-1], on every slice of the bound-5 sweep
        consts = _structure_constants(weight_slices(5), dual_canonical_basis)
        assert len(consts) == 920
        assert all(_nonnegative(c) for c in consts)

    @pytest.mark.parametrize("lams", [(1, 1), (2, 1), (1, 1, 1), (2, 2)])
    def test_negated_off_lead_coefficients_break_it(self, lams):
        slices = [(lams, l) for l in range(sum(lams) + 1)]
        consts = _structure_constants(slices, _negated_off_lead)
        assert not all(_nonnegative(c) for c in consts)


class TestLemmaDimensionIdentity:
    def test_singular_slice_of_trivial_verma_product(self):
        # dim ker E on (M_0^c x V)[mu] equals dim V[mu]: attaching a
        # contragredient copy of the trivial Verma enlarges the slice but
        # its singular part keeps the original dimension.
        from qcanon.tensor import coproduct_matrix
        from qcanon.weightmod import GEN_E, contragredient, make_simple
        from test_weightmod import transpose_dual, verma
        for lams, l in [((1, 1), 1), ((2, 1), 2), ((1, 1, 1), 1)]:
            v_dim = len(enumerate_P(lams, l))
            m0 = verma(0, sum(lams))  # M_0 truncated past level sum(lams)
            factors = (transpose_dual(m0),) \
                + tuple(contragredient(make_simple(x)) for x in lams)
            e = coproduct_matrix(factors, l, GEN_E)
            assert e.shape[1] - linalg.rank_at_q1(e) == v_dim
