"""The sparse kernel against a naive dense triple loop over QScalar."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcanon import linalg
from qcanon.cabling import CablingOutcome, cabling_report
from qcanon.canonical import dual_canonical_basis
from qcanon.diagrams import ArcDiagram
from qcanon.qring import (ONE, Q_MINUS_QINV, ZERO, InexactDivisionError,
                          QScalar, exact_div)
from qcanon.rmatrix import tau_theta_braid
from qcanon.verify import CheckResult
from qcanon.weightmod import dual_factors

scalars = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                          max_size=3).map(QScalar)
nonzero_scalars = scalars.filter(bool)
sizes = st.integers(0, 3)


def dense_matrices(rows, cols):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def from_dense(rows, ncols):
    return linalg.Matrix((len(rows), ncols), [
        {i: row[j] for i, row in enumerate(rows)} for j in range(ncols)])


def to_dense(a):
    return [[a[i, j] for j in range(a.shape[1])] for i in range(a.shape[0])]


def vector(entries):
    return linalg.Vector(len(entries), dict(enumerate(entries)))


def zeros(rows, cols):
    return linalg.Matrix((rows, cols), [{}] * cols)


@st.composite
def matrix_pairs(draw, same_shape=False):
    """(dense a, dense b, shapes) with a @ b defined, or a and b alike."""
    r, k, c = draw(sizes), draw(sizes), draw(sizes)
    if same_shape:
        k = c
    a = draw(dense_matrices(r, k))
    b = draw(dense_matrices(r if same_shape else k, c))
    return a, (r, k), b, ((r if same_shape else k), c)


@given(matrix_pairs())
def test_matmul_matches_triple_loop(case):
    a, (r, k), b, (_, c) = case
    got = linalg.matmul(from_dense(a, k), from_dense(b, c))
    want = [[sum((a[i][t] * b[t][j] for t in range(k)), start=ZERO)
             for j in range(c)] for i in range(r)]
    assert got.shape == (r, c)
    assert to_dense(got) == want


@given(matrix_pairs())
def test_matmul_on_vectors(case):
    a, (r, k), b, _ = case
    x = [row[0] if row else ZERO for row in b]
    got = linalg.matmul(from_dense(a, k), vector(x))
    assert isinstance(got, linalg.Vector) and got.dim == r
    assert [got[i] for i in range(r)] == [
        sum((a[i][t] * x[t] for t in range(k)), start=ZERO) for i in range(r)]


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.matmul(zeros(2, 3), zeros(2, 2))


@given(sizes, sizes, st.data())
def test_entrywise_maps(r, c, data):
    a = data.draw(dense_matrices(r, c))
    s = data.draw(scalars)
    m = from_dense(a, c)
    assert to_dense(linalg.mat_bar(m)) == [[x.bar() for x in row] for row in a]
    assert to_dense(linalg.mat_scale(m, s)) == [[x * s for x in row]
                                                for row in a]
    t = linalg.transpose(m)
    assert t.shape == (c, r)
    assert to_dense(t) == [[a[i][j] for i in range(r)] for j in range(c)]
    assert linalg.mat_eq(linalg.transpose(t), m)


@given(sizes, sizes, st.data())
def test_mat_div_inverts_scale(r, c, data):
    a = data.draw(dense_matrices(r, c))
    s = data.draw(nonzero_scalars)
    scaled = linalg.mat_scale(from_dense(a, c), s)
    quotient = linalg.mat_div(scaled, s)
    assert to_dense(quotient) == [[exact_div(x * s, s) for x in row]
                                  for row in a]
    assert to_dense(quotient) == a


def test_mat_div_raises_on_remainder():
    m = linalg.Vector(1, {0: QScalar.q_power(1) + ONE})
    with pytest.raises(InexactDivisionError):
        linalg.mat_div(m, QScalar({2: 1, 0: 1, -2: 1}))


@given(matrix_pairs(same_shape=True), scalars)
def test_mat_eq_and_mat_add(case, s):
    a, (r, c), b, _ = case
    ma, mb = from_dense(a, c), from_dense(b, c)
    assert linalg.mat_eq(ma, mb) == (a == b)
    got = linalg.mat_add(ma, mb, s)
    assert to_dense(got) == [[x + s * y for x, y in zip(ra, rb)]
                             for ra, rb in zip(a, b)]
    assert linalg.is_zero(linalg.mat_add(ma, ma, -ONE))


@given(st.lists(scalars, max_size=4), st.lists(scalars, max_size=4))
def test_dot(xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    assert linalg.dot(vector(xs), vector(ys)) == sum(
        (x * y for x, y in zip(xs, ys)), start=ZERO)


def test_empty_slices():
    for shape in ((0, 0), (0, 3), (3, 0)):
        z = zeros(*shape)
        assert z.shape == shape and linalg.is_zero(z)
        assert linalg.transpose(z).shape == shape[::-1]
    assert linalg.mat_eq(linalg.matmul(zeros(2, 0), zeros(0, 2)), zeros(2, 2))
    assert linalg.rank_at_q1(zeros(0, 3)) == 0
    assert linalg.Vector(0).dim == 0


def test_rank_at_q1_is_one_sided():
    # q - q^-1 is nonzero but vanishes at q = 1: the rank can only drop
    assert linalg.rank_at_q1(linalg.diagonal([Q_MINUS_QINV])) == 0
    assert linalg.rank_at_q1(linalg.diagonal([Q_MINUS_QINV, ONE])) == 1


def _rational_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(sizes.flatmap(lambda r: sizes.flatmap(
    lambda c: dense_matrices(r + 2, c + 2))))
def test_rank_at_q1_is_the_rational_rank_at_v_equals_1(rows):
    at_one = [[sum(x._terms.values()) for x in row] for row in rows]
    assert linalg.rank_at_q1(from_dense(rows, len(rows[0]))) == \
        _rational_rank(at_one)


def test_matrices_are_immutable():
    m = linalg.identity(2)
    with pytest.raises(TypeError):
        m[0, 0] = ZERO
    with pytest.raises(AttributeError):
        m.shape = (1, 1)
    cols = [{0: ONE}]
    frozen = linalg.Matrix((1, 1), cols)
    cols[0][0] = ZERO  # the builder's dict is not the matrix's storage
    assert frozen[0, 0] == ONE
    with pytest.raises(IndexError):
        m[2, 0]


# one fresh instance of each value type built on linalg.Frozen
VALUE_TYPES = {
    "ArcDiagram": lambda: ArcDiagram((1, 1), ((1, 2),)),
    "BasisVector": lambda: dual_canonical_basis((1, 1), 1)[0],
    "BraidOperator": lambda: tau_theta_braid(dual_factors((1, 1)), 1),
    "CablingOutcome": lambda: CablingOutcome((1, 0), killed=True),
    "CablingReport": lambda: cabling_report((2,), 1),
    "CheckResult": lambda: CheckResult("catalan", "ok", 0.0, 4),
}


@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_value_types_are_frozen(make):
    obj = make()
    assert isinstance(obj, linalg.Frozen)
    name = type(obj).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = None
    assert hasattr(obj, name)


def _state(obj):
    """What a copy of obj must reproduce, as plain comparable data; the
    fields of a value without __eq__ (a cabling outcome or report) are
    compared one by one."""
    if isinstance(obj, linalg.Matrix):
        return obj.shape, [sorted(obj.col(j).items())
                           for j in range(obj.shape[1])]
    if isinstance(obj, tuple):
        return [_state(x) for x in obj]
    if isinstance(obj, linalg.Frozen):
        return [_state(getattr(obj, name)) for name in type(obj).__slots__]
    return obj


# one instance of each kind that copy and pickle must reproduce
COPYABLE = {
    "identity": lambda: linalg.identity(2),
    "Vector": lambda: linalg.Vector(3, {0: ONE, 2: Q_MINUS_QINV}),
    "ArcDiagram": lambda: ArcDiagram((2, 2, 2), ((0, 1), (1, 2), (2, 3))),
    "CablingOutcome": lambda: CablingOutcome((1, 0), killed=False,
                                             target=(1,), scalar=ONE),
    "CablingReport": lambda: cabling_report((2,), 1),
    "CheckResult": lambda: CheckResult("catalan", "ok", 0.5, 4),
}


@pytest.mark.parametrize("make", COPYABLE.values(), ids=COPYABLE)
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])
def test_frozen_values_copy_and_pickle(make, clone):
    obj = make()
    twin = clone(obj)
    assert type(twin) is type(obj)
    assert _state(twin) == _state(obj)
    if isinstance(obj, ArcDiagram):
        assert twin == obj and hash(twin) == hash(obj)
    with pytest.raises(AttributeError):
        twin.extra = None


def test_support_is_ascending():
    x = linalg.Vector(5, {4: ONE, 0: ONE, 2: ZERO, 3: ONE})
    assert list(x.items())[0][0] == 4  # storage order is not row order
    assert x.support() == [0, 3, 4]
    for b in dual_canonical_basis((1, 1, 1, 1), 2):
        assert b.support() == sorted(b.support())
        assert b.support()[0] == b.index
