"""The references: independent routes that only `verify`, the tests and the
demos run, to cross-check production.  No production module imports this
one, so no request but `verify` loads it.

* The dual canonical basis by forward substitution on psi_c
  (`_solve_triangular`), against the certified closed form that `basis`
  serves.  psi_c is tau(Theta^(n)) on the contragredient slice, the
  `BraidOperator` A with psi_c(x) = A bar(x).  Row r of A bar(b_m) = b_m
  reads

      c_r - bar(c_r) = rho_r,   rho_r = sum_{m <= k < r} A[r, k] bar(c_k),

  so from c_m = 1 the rows r > m are scanned in ascending order, each c_r =
  solve_bar_equation(rho_r) in plain QScalar arithmetic.  A must be unit
  lower triangular, every c_r must lie in q^-1 Z[q^-1], and every b_m must
  satisfy psi_c(b_m) = b_m by a fresh product.
* R^(n) by its own recursion (`_r_n`), and the braid-product identity

      tau(Theta^(n)) = Rcheck^(n) (C^(n))^-1 sigma_0

  evaluated with the given factor matrices (`tau_theta_braid`), against
  `rmatrix.tau_theta_n`'s transpose route; C^(n) is a diagonal of monomials
  v^e, so its inverse is its bar, and (C^(n))^-1 sigma_0 is applied as a
  relabelling of Rcheck^(n)'s columns, each shifted by one monomial.
* The longest braiding along any reduced word (`rcheck_word`), its pair
  operators multiplied out, against `rmatrix.rcheck_longest`'s recursion
  along the default word.
* The singular vectors of a dual canonical basis (`singular_subset`), their
  count certified by the integer rank at q = 1 (`rank_at_q1`) of the
  coproduct matrix of E (`coproduct_matrix`), against the diagrams that
  avoid the origin.

`CACHES` holds the caches that the references fill and no other
subcommand than `rmatrix --op rcheck` reads: `_r_n` here, and
`rmatrix._rcheck_longest` and `rmatrix._bubble`, which `tau_theta_braid`
reads through `rcheck_longest`.  `verify` empties them after each check.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .canonical import (BasisVector, TriangularityViolationError,
                        apply_antilinear)
from .common import InexactDivisionError, OddExponentError
from .qring import ONE, QScalar, addmul, in_qinv_ideal
from .rmatrix import (BraidOperator, _bubble, _cartan, _cartan_diagonal,
                      _lift, _operator, _rcheck, _rcheck_longest, _sigma0,
                      _suffixes_first, _swapped, _theta_piece_first,
                      rcheck_longest, tau_theta_n)
from .tensor import weight_space
from .weightmod import GEN_E, WeightModule, dual_factors


class BarAsymmetryError(ValueError):
    """Input to the bar-equation solver is not bar-antisymmetric."""


class NotReducedError(ValueError):
    """The supplied word is not a reduced expression of the reversal."""


class CountMismatchError(AssertionError):
    """A basis subset count disagrees with an independent rank bound."""


# ---------------------------------------------------------------------------
# ring and matrix helpers
# ---------------------------------------------------------------------------

def solve_bar_equation(rho: QScalar) -> QScalar:
    """The unique p in q^-1 Z[q^-1] with p - bar(p) = rho.

    Requires rho bar-antisymmetric with integer q-powers only.  The solution
    is the strictly-negative-exponent part of rho: antisymmetry kills the
    constant term and forces the positive part to mirror the negative one.
    """
    if any(e % 2 for e in rho._terms):
        raise OddExponentError(f"half-integer q-powers in {rho}")
    if rho.bar() != -rho:
        raise BarAsymmetryError(f"not bar-antisymmetric: {rho}")
    return QScalar._raw({e: c for e, c in rho._terms.items() if e < 0})


def dot(x: linalg.Vector, y: linalg.Vector) -> QScalar:
    """sum_i x[i] * y[i]."""
    acc: dict = {}  # handed to the result
    ys = y._cols[0]
    for i, xi in x._cols[0].items():
        yi = ys.get(i)
        if yi is not None:
            addmul(acc, xi, yi)
    return QScalar._raw(acc)


def rank_at_q1(a: linalg.Matrix) -> int:
    """Rank at v = 1, where each entry is the sum of its coefficients, by
    fraction-free (Bareiss) elimination over the integers; a division that
    leaves a remainder raises.  v -> 1 is a ring map, so this is at most the
    rank over the fraction field of Z[v, v^-1]."""
    nr, nc = a.shape
    m = [[0] * nc for _ in range(nr)]
    for j, col in enumerate(a._cols):
        for i, x in col.items():
            m[i][j] = sum(x._terms.values())
    rank, prev = 0, 1
    for c in range(nc):
        pivot_row = next((i for i in range(rank, nr) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        top = m[rank]
        for row in m[rank + 1:]:
            for j in range(c + 1, nc):
                row[j], rem = divmod(top[c] * row[j] - row[c] * top[j], prev)
                if rem:
                    raise InexactDivisionError(f"inexact division by {prev}")
            row[c] = 0
        prev = top[c]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# the coproduct action
# ---------------------------------------------------------------------------

def coproduct_target_level(level: int, gen: str) -> int:
    return level - 1 if gen == GEN_E else level + 1


def coproduct_matrix(factors: tuple[WeightModule, ...], level: int,
                     gen: str) -> linalg.Matrix:
    """Matrix of the iterated coproduct of E or F on one weight slice,

        E |-> sum_i  1 x ... x E_i x q^h x ... x q^h
        F |-> sum_i  q^-h x ... x q^-h x F_i x 1 x ... x 1

    where each q^h flank is the scalar v^(2 w) on a factor of weight w.
    Rows are indexed by the target slice (level-1 for E, level+1 for F).
    """
    src = weight_space(factors, level)
    tgt = weight_space(factors, coproduct_target_level(level, gen))
    cols = [{} for _ in range(src.dim)]
    for j, m in enumerate(src.indices):
        w = src.factor_weights(m)
        out = cols[j]
        for i in range(len(factors)):
            # E carries q^h on the factors after slot i, F carries q^-h on
            # the factors before it.
            flank = QScalar.v_power(2 * sum(w[i + 1:]) if gen == GEN_E
                                    else -2 * sum(w[:i]))
            # the term for slot i changes only m[i]: no two share a row
            for t, c in factors[i].ladder(gen, m[i]).items():
                out[tgt.pos[m[:i] + (t,) + m[i + 1:]]] = c * flank
    return linalg.Matrix((tgt.dim, src.dim), cols)


# ---------------------------------------------------------------------------
# R^(n), the longest braiding along a word, and the braid product
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _r_n(factors, level):
    """R^(n) by its own recursion, independent of the C^(n) Theta^(n) product."""
    n = len(factors)
    if n <= 1:
        return linalg.identity(weight_space(factors, level).dim)
    rest = factors[1:]
    # (1 x Delta^{n-2})(C) = q^{h_0 (h_1 + ... + h_{n-1}) / 2}
    cartan = _cartan_diagonal(factors, level, lambda w: w[0] * sum(w[1:]))
    piece = linalg.matmul(cartan, _theta_piece_first(factors, level))
    sub = _lift(factors, level, 1, n, lambda b: _r_n(rest, b))
    return linalg.matmul(sub, piece)


def r_n_matrix(factors, level) -> BraidOperator:
    return _operator(_suffixes_first, factors, level, _r_n)


def cartan_factor(factors, level) -> BraidOperator:
    """Diagonal multiplier v^(sum_{i<j} mu_i mu_j) on factor weights."""
    return _operator(_cartan, factors, level)


def sigma0_matrix(factors, level) -> BraidOperator:
    return _operator(_sigma0, factors, level, target=tuple(factors)[::-1])


def _reduced_word(word, n) -> tuple[int, ...]:
    """`word` as a tuple, checked to be a reduced expression of the
    order-reversing permutation."""
    word = tuple(word)
    if len(word) != n * (n - 1) // 2:
        raise NotReducedError(
            f"word of length {len(word)}, expected {n * (n - 1) // 2}")
    perm = list(range(n))
    for i in word:
        if not 0 <= i < n - 1:
            raise NotReducedError(f"position {i} out of range for {n} factors")
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    if perm != list(range(n))[::-1]:
        raise NotReducedError(f"word {word} does not reverse the factors")
    return word


def rcheck_word(factors, level, word) -> BraidOperator:
    """Rcheck_{i_L} ... Rcheck_{i_1} along the reduced word (i_1, ..., i_L),
    the default word too, with no recursion and no cache.

    The lifted pair operators are multiplied in balanced rounds, neighbours
    first: a product of a few lifted pair operators stays sparse, where a
    running left-to-right product turns dense after a handful of factors.
    The arithmetic is exact, so the bracketing does not change the result.
    """
    factors = tuple(factors)
    ops, swapped = [], factors
    for i in _reduced_word(word, len(factors)):
        ops.append(_rcheck(swapped, level, i))
        swapped = _swapped(swapped, i)
    if not ops:
        ops.append(linalg.identity(weight_space(factors, level).dim))
    while len(ops) > 1:
        ops = [linalg.matmul(ops[j + 1], ops[j]) if j + 1 < len(ops)
               else ops[j] for j in range(0, len(ops), 2)]
    return BraidOperator(weight_space(factors, level),
                         weight_space(swapped, level), ops[0])


def tau_theta_braid(factors, level) -> BraidOperator:
    """tau(Theta^(n)) = Rcheck^(n) (C^(n))^-1 sigma_0, built from the given
    factor matrices.  (C^(n))^-1 sigma_0 relabels columns: column m is
    column m[::-1] of Rcheck^(n) on the reversed factors, times
    v^(-sum_{i<k} w_i w_k), w the factor weights; that sum is
    (W^2 - sum_i w_i^2) / 2 for the slice weight W.  Uncached; `verify` and
    the tests compare it with `tau_theta_n` on plain and contragredient
    factors."""
    factors = tuple(factors)
    rev = factors[::-1]
    space = weight_space(factors, level)
    rcheck = rcheck_longest(rev, level).matrix
    pos = weight_space(rev, level).pos
    cols = []
    for m in space.indices:
        shift = (sum(w * w for w in space.factor_weights(m))
                 - space.weight ** 2) // 2
        cols.append({i: QScalar._raw({e + shift: c
                                      for e, c in x._terms.items()})
                     for i, x in rcheck.col(pos[m[::-1]]).items()})
    return BraidOperator(space, space, linalg.Matrix._wrap(
        (space.dim, space.dim), tuple(cols)))


#: The caches `verify` empties after each check.  A tuple, built at import,
#: so that it still reaches the caches when a profiler (perfbench's tracer)
#: rebinds the module names to wrappers.
CACHES = (_r_n, _rcheck_longest, _bubble)


# ---------------------------------------------------------------------------
# the dual canonical basis by forward substitution, and its singular vectors
# ---------------------------------------------------------------------------

def psi_c(lams, level) -> BraidOperator:
    """tau(Theta^(n)) on the contragredient slice; psi_c(x) = it . bar(x)."""
    return tau_theta_n(dual_factors(lams), level)


def is_involution(op: BraidOperator) -> bool:
    """True iff x -> op . bar(x) squares to the identity."""
    composed = linalg.matmul(op.matrix, linalg.mat_bar(op.matrix))
    return linalg.mat_eq(composed, linalg.identity(op.source.dim))


def _require_unitriangular(op: BraidOperator) -> None:
    """Raise unless the matrix has unit diagonal and no entry above it."""
    space = op.source
    for p in range(space.dim):
        col = op.matrix.col(p)
        wrong = [k for k, _ in col.items() if k < p]
        if col[p] != ONE:
            wrong.append(p)
        if wrong:
            raise TriangularityViolationError(
                f"defect of {space.indices[p]} touches "
                f"{space.indices[min(wrong)]} on {space!r}")


def _solve_triangular(op: BraidOperator) -> list[BasisVector]:
    """The fixed points b_m = e_m + sum_{r>m} c_r e_r of x -> op . bar(x),
    each by one forward substitution that scans the rows after m in
    ascending order, skipping each row whose running sum rho_r is zero, and
    each checked by a fresh product."""
    _require_unitriangular(op)
    space, a = op.source, op.matrix
    basis = []
    for m in range(space.dim):
        coeffs = {m: ONE}
        rho = {i: dict(x._terms) for i, x in a.col(m).items()}  # row -> terms
        for r in range(m + 1, space.dim):
            terms = rho.pop(r, None)
            if not terms:  # c_r = 0
                continue
            c = solve_bar_equation(QScalar._raw(terms))
            if not in_qinv_ideal(c):
                raise AssertionError(f"coefficient {c} of {space.indices[r]} "
                                     f"outside q^-1 Z[q^-1] on {space!r}")
            coeffs[r] = c
            bar_c = c.bar()
            for i, x in a.col(r).items():
                if i > r:
                    addmul(rho.setdefault(i, {}), x, bar_c)
        vec = linalg.Vector(space.dim, coeffs)
        if not linalg.mat_eq(apply_antilinear(op, vec), vec):
            raise TriangularityViolationError(
                f"fixed-point defect at {space.indices[m]} on {space!r}")
        basis.append(BasisVector(space.indices[m], space, vec))
    return basis


def singular_subset(basis: list[BasisVector]) -> list[BasisVector]:
    """The members killed by the coproduct E, their count certified by the
    rank of E at q = 1.  The counted vectors are independent and killed by E,
    so count <= dim ker E.  v -> 1 is a ring map: a minor that vanishes over
    Z[v, v^-1] vanishes at v = 1, so rank_at_q1(E) <= the generic rank and
    dim - rank_at_q1(E) >= dim ker E.  Equality proves count = dim ker E, so a
    wrong count never passes.  A lower count raises: it means a missed kernel
    vector or a rank drop at q = 1, which the classical Clebsch-Gordan count
    rules out for simple and contragredient factors; there is no retry."""
    if not basis:
        return []
    space = basis[0].space
    e = coproduct_matrix(space.factors, space.level, GEN_E)
    subset = [b for b in basis if linalg.is_zero(linalg.matmul(e, b.coords))]
    bound = space.dim - rank_at_q1(e)
    if len(subset) != bound:
        raise CountMismatchError(f"{len(subset)} singular elements, but E has "
                                 f"corank {bound} at q = 1 on {space!r}")
    return subset
