"""Sparse exact linear algebra over QScalar.

A :class:`Matrix` is a shape plus one ``row -> QScalar`` dict per column; a
:class:`Vector` is a matrix with one column.  Both are immutable: zero
entries are never stored, nothing can be assigned after construction, and
builders fill plain dicts that the constructor copies.  The operators on a
weight slice are sparse (basis vectors are under a tenth full, ``psi_c``
about a third), so every loop here visits stored nonzeros only.

Sums of products go through the ring's fused multiply-accumulate,
`qring.addmul`, on private ``v-exponent -> int`` dicts: each output scalar is
built once, not once per partial sum.

Dict iteration order is insertion order, not row order; callers that emit
indices sort them (`Vector.support`).
"""

from __future__ import annotations

from .common import Frozen
from .qring import ONE, ZERO, QScalar, addmul, exact_div


class Matrix(Frozen):
    """Immutable sparse matrix: ``shape`` and a tuple of column dicts.

    ``cols`` holds one ``row -> QScalar`` mapping per column; the constructor
    copies it and drops zero entries, so the caller's dicts stay its own.
    """

    __slots__ = ("shape", "_cols")

    def __init__(self, shape: tuple[int, int], cols):
        rows, ncols = shape
        if len(cols) != ncols:
            raise ValueError(f"{len(cols)} columns for shape {shape}")
        frozen = []
        for col in cols:
            out = {}
            for i, x in col.items():
                if not 0 <= i < rows:
                    raise IndexError(f"row {i} outside shape {shape}")
                if x:
                    out[i] = x
            frozen.append(out)
        self._freeze(shape=(rows, ncols), _cols=tuple(frozen))

    @classmethod
    def _wrap(cls, shape, cols):
        # internal: cols is a fresh tuple of zero-free dicts, now owned here
        self = object.__new__(cls)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_cols", cols)
        return self

    def __getitem__(self, key) -> QScalar:
        i, j = key
        rows, ncols = self.shape
        if not (0 <= i < rows and 0 <= j < ncols):
            raise IndexError(f"entry {key} outside shape {self.shape}")
        return self._cols[j].get(i, ZERO)

    def col(self, j: int) -> "Vector":
        if not 0 <= j < self.shape[1]:
            raise IndexError(f"column {j} outside shape {self.shape}")
        return Vector._wrap((self.shape[0], 1), (self._cols[j],))

    def __repr__(self):
        nnz = sum(len(c) for c in self._cols)
        return f"{type(self).__name__}(shape={self.shape}, nnz={nnz})"


class Vector(Matrix):
    """A matrix with one column, indexed by row."""

    __slots__ = ()

    def __init__(self, dim: int, entries=None):
        super().__init__((dim, 1), (entries or {},))

    @property
    def dim(self) -> int:
        return self.shape[0]

    def __getitem__(self, i: int) -> QScalar:
        if not 0 <= i < self.shape[0]:
            raise IndexError(f"entry {i} outside dimension {self.shape[0]}")
        return self._cols[0].get(i, ZERO)

    def items(self):
        """Stored (row, value) pairs, in storage order (not ascending)."""
        return self._cols[0].items()

    def support(self) -> list[int]:
        """Rows with a nonzero entry, ascending."""
        return sorted(self._cols[0])


def identity(n: int) -> Matrix:
    return Matrix._wrap((n, n), tuple({i: ONE} for i in range(n)))


def diagonal(entries) -> Matrix:
    n = len(entries)
    return Matrix((n, n), [{i: x} for i, x in enumerate(entries)])


# ---------------------------------------------------------------------------
# sums of products on private accumulator dicts
# ---------------------------------------------------------------------------

def _axpy(rows: dict, s: QScalar, x: dict) -> None:
    """rows += s*x, on row -> private v-exponent -> int dicts."""
    for i, xi in x.items():
        t = rows.get(i)
        if t is None:
            rows[i] = t = {}
        addmul(t, s, xi)


def _private(col: dict) -> dict:
    return {i: dict(x._terms) for i, x in col.items()}


def _frozen(rows: dict) -> dict:
    # hands the accumulator dicts over to the scalars: use `rows` no more
    return {i: QScalar._raw(t) for i, t in rows.items() if t}


def _apply(acols, x: dict) -> dict:
    """The column sum_k acols[k] * x[k], each output scalar built once."""
    acc: dict[int, dict] = {}
    for k, xk in x.items():
        _axpy(acc, xk, acols[k])
    return _frozen(acc)


# ---------------------------------------------------------------------------
# matrix operations (each works on vectors too and keeps the type)
# ---------------------------------------------------------------------------

def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b over stored nonzeros; b may be a matrix or a vector."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shapes {a.shape} and {b.shape} do not compose")
    acols = a._cols
    return type(b)._wrap((a.shape[0], b.shape[1]),
                         tuple(_apply(acols, col) for col in b._cols))


def transpose(a: Matrix) -> Matrix:
    rows, ncols = a.shape
    out = tuple({} for _ in range(rows))
    for j, col in enumerate(a._cols):
        for i, x in col.items():
            out[i][j] = x
    return Matrix._wrap((ncols, rows), out)


def _map(a: Matrix, fn) -> Matrix:
    cols = []
    for col in a._cols:
        out = {}
        for i, x in col.items():
            y = fn(x)
            if y:
                out[i] = y
        cols.append(out)
    return type(a)._wrap(a.shape, tuple(cols))


def mat_bar(a: Matrix) -> Matrix:
    return _map(a, QScalar.bar)


def mat_scale(a: Matrix, s: QScalar) -> Matrix:
    return _map(a, lambda x: x * s)


def mat_div(a: Matrix, s: QScalar) -> Matrix:
    """Entrywise exact division; raises InexactDivisionError on remainder."""
    return _map(a, lambda x: exact_div(x, s))


def mat_add(a: Matrix, b: Matrix, s: QScalar = ONE) -> Matrix:
    """a + s*b, each output scalar built once."""
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} differ")
    cols = []
    for acol, bcol in zip(a._cols, b._cols):
        acc = _private(acol)
        _axpy(acc, s, bcol)
        cols.append(_frozen(acc))
    return type(a)._wrap(a.shape, tuple(cols))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return a.shape == b.shape and a._cols == b._cols


def is_zero(a: Matrix) -> bool:
    return not any(a._cols)
