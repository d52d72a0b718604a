import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcanon.common import OddExponentError
from qcanon.qring import (ONE, ZERO, InexactDivisionError, QScalar, addmul,
                          exact_div, in_qinv_ideal, quantum_int)
from qcanon.reference import BarAsymmetryError, solve_bar_equation

q = QScalar.q_power
v = QScalar.v_power

scalars = st.dictionaries(st.integers(-8, 8), st.integers(-50, 50),
                          max_size=6).map(QScalar)


def quantum_factorial(n):
    """[n]! = [1] [2] ... [n]: the tests' oracle for divided powers; the
    library divides one [k] at a time."""
    out = ONE
    for k in range(1, n + 1):
        out = out * quantum_int(k)
    return out


def eval_at_one(p):
    return sum(c for _, c in p._terms.items())


def binomial(n, k):
    """[n choose k] = [n]! / ([k]! [n-k]!); exact_div raises on a remainder."""
    return exact_div(quantum_factorial(n),
                     quantum_factorial(k) * quantum_factorial(n - k))


class TestQuantumIntegers:
    def test_zero_is_empty_sum(self):
        assert quantum_int(0) == ZERO

    def test_two(self):
        assert quantum_int(2) == q(1) + q(-1)

    def test_factorial_three(self):
        # [1][2][3] expanded by hand
        assert quantum_factorial(3) == q(3) + 2 * q(1) + 2 * q(-1) + q(-3)

    @pytest.mark.parametrize("n", range(11))
    def test_bar_invariant(self, n):
        assert quantum_int(n).bar() == quantum_int(n)
        assert quantum_factorial(n).bar() == quantum_factorial(n)

    @pytest.mark.parametrize("m", range(9))
    @pytest.mark.parametrize("n", range(9))
    def test_addition_rule(self, m, n):
        # [m+n] = q^m [n] + q^-n [m], both sides expanded
        lhs = quantum_int(m + n)
        rhs = q(m) * quantum_int(n) + q(-n) * quantum_int(m)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(1, 8))
    def test_binomial_pascal_rule(self, n):
        for k in range(n + 1):
            rhs = ZERO
            if k <= n - 1:
                rhs = rhs + q(k) * binomial(n - 1, k)
            if k >= 1:
                rhs = rhs + q(k - n) * binomial(n - 1, k - 1)
            assert binomial(n, k) == rhs

    def test_binomial_counts_at_one(self):
        from math import comb
        for n in range(7):
            for k in range(n + 1):
                assert eval_at_one(binomial(n, k)) == comb(n, k)
                assert binomial(n, k).bar() == binomial(n, k)


class TestRing:
    @settings(max_examples=200)
    @given(scalars, scalars, scalars)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO

    @settings(max_examples=200)
    @given(scalars, scalars)
    def test_bar_is_ring_involution(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()
        assert a.bar().bar() == a

    def test_bar_example(self):
        assert (q(1) + 2).bar() == q(-1) + 2

    @settings(max_examples=200)
    @given(scalars, scalars)
    def test_exact_div_inverts_multiplication(self, a, b):
        if not b:
            return
        assert exact_div(a * b, b) == a

    def test_inexact_division_raises(self):
        with pytest.raises(InexactDivisionError):
            exact_div(q(1) + 1, quantum_int(2))
        with pytest.raises(InexactDivisionError):
            exact_div(ONE, ZERO)

    @settings(max_examples=200)
    @given(scalars)
    def test_serialization_round_trip(self, a):
        # the CLI's JSON text of a scalar parses back to the scalar
        from qcanon.cli import _values
        text = _values("\n")(a)
        assert QScalar({e: int(c) for e, c in json.loads(text)}) == a

    def test_constants_hash_like_their_integers(self):
        # equal values must hash alike, so sets and dicts do not split them
        assert ONE in {1} and ZERO in {0} and 1 in {ONE}
        assert QScalar.from_int(-3) in {-3}
        assert {1: "x"}[ONE] == "x"
        assert len({ONE, 1, ZERO, 0, q(1)}) == 3

    def test_printer(self):
        assert str(ZERO) == "0"
        assert str(-q(-1) + 2 + q(3)) == "-q^-1 + 2 + q^3"
        assert str(v(1)) == "q^{1/2}"
        assert str(v(-3) * 2) == "2q^{-3/2}"
        assert str(q(1) - q(-1)) == "-q^-1 + q"


@settings(max_examples=200)
@given(scalars, scalars, scalars)
def test_addmul_matches_ring(start, a, b):
    acc = dict(start._terms)
    addmul(acc, a, b)
    assert all(acc.values())  # stays zero-free
    assert QScalar(acc) == start + a * b
    want = Counter(start._terms)  # term by term, without addmul
    for (ea, ca), (eb, cb) in itertools.product(a._terms.items(),
                                                b._terms.items()):
        want[ea + eb] += ca * cb
    assert acc == {e: c for e, c in want.items() if c}


class TestQinvIdeal:
    def test_examples(self):
        assert in_qinv_ideal(-q(-1))
        assert not in_qinv_ideal(ONE + q(-1))
        assert in_qinv_ideal(q(-1) + q(-3))
        assert in_qinv_ideal(ZERO)
        assert not in_qinv_ideal(v(-1))  # half power


class TestSolveBarEquation:
    def test_zero(self):
        assert solve_bar_equation(ZERO) == ZERO

    def test_small(self):
        rho = q(1) - q(-1)
        p = solve_bar_equation(rho)
        assert p == -q(-1)
        assert p - p.bar() == rho

    def test_two_terms(self):
        rho = q(2) + q(1) - q(-1) - q(-2)
        p = solve_bar_equation(rho)
        assert p == -q(-1) - q(-2)
        assert p - p.bar() == rho

    @settings(max_examples=200)
    @given(scalars)
    def test_round_trip_on_generated_antisymmetric(self, a):
        # force only integer q-powers, then antisymmetrize
        a = QScalar({e: c for e, c in a._terms.items() if e % 2 == 0})
        rho = a - a.bar()
        p = solve_bar_equation(rho)
        assert in_qinv_ideal(p)
        assert p - p.bar() == rho

    def test_asymmetric_input_rejected(self):
        with pytest.raises(BarAsymmetryError):
            solve_bar_equation(ONE + q(1))

    def test_half_powers_rejected(self):
        with pytest.raises(OddExponentError):
            solve_bar_equation(v(1) - v(-1))

    def test_uniqueness_in_ideal(self):
        # p - bar(p) = 0 with p in the ideal forces p = 0: negative
        # exponents cannot cancel against their mirrored positives.
        assert solve_bar_equation(ZERO) == ZERO
        p = -q(-1)
        rho = p - p.bar()
        assert solve_bar_equation(rho) == p
