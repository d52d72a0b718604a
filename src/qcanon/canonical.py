"""Canonical and dual canonical bases via the bar-involution fixed point.

On a contragredient slice the involution is

    psi_c(x) = tau(Theta^(n)) . bar(x),

where bar acts coefficientwise on dual monomial coordinates (the dual
monomials are bar-fixed because divided powers have bar-invariant
coefficients).  The matrix of tau(Theta^(n)) is unipotent lower triangular in
ascending lexicographic index order, so psi_c(e_m) = e_m + (terms at k > m).

The dual canonical basis is the unique family b_m = e_m + sum_{r>m} c_r e_r
fixed by psi_c with every off-lead coefficient in q^-1 Z[q^-1].  Write A for
the matrix of psi_c.  Row r of A bar(b_m) = b_m reads

    c_r - bar(c_r) = rho_r,   rho_r = sum_{m <= k < r} A[r, k] bar(c_k),

so each b_m is one forward substitution: start from c_m = 1 and scan the
rows r > m in ascending order.  A row with rho_r = 0 has c_r = 0 and is
skipped; otherwise c_r = solve_bar_equation(rho_r) (the unique ideal element
with that difference, raising unless rho_r is bar-antisymmetric with integer
q-powers), and bar(c_r) A[:, r] is added into the running sums of the later
rows.  The checks are independent of that recursion: A must be unit lower
triangular before anything is solved, every b_m must satisfy psi_c(b_m) = b_m
by a fresh product, and every c_r must lie in q^-1 Z[q^-1].  A convention
error therefore surfaces as a loud failure, never as silent garbage.

The substitution and the fixed-point product run on Kronecker-packed ints
(`_pack`): each entry of A is evaluated once at q = 2^B and shifted so that
no exponent is negative, each running sum is a row -> int dict, and only the
rho_r that the substitution reads are decoded.  Every entry of A is a
polynomial in q and q^-1 (the Theta coefficients, the quantum integers and
the q^{+-h} flanks are all integer powers of q), and a half-integer q-power
raises OddExponentError before anything is packed.  Evaluation at 2^B is a
ring map, so the packed sums and products are the packed images of the true
ones, and balanced base-2^B digits recover a polynomial exactly when every
coefficient has |c| < 2^(B-1).  Every value decoded or compared is a sum of
products A[r, k] bar(c_k), so its coefficients are at most
l1(A) (1 + sum_k L1(c_k)), with l1(A) the largest L1 norm of an entry of A.
B starts a few bits above the bit length of l1(A), and a vector whose bound
reaches 2^(B-1) is redone with B doubled before anything is decoded past
it.  The fixed-point product A bar(b_m) is recomputed from the packed
columns and compared with packed b_m as ints, which under the same bound is
equality of polynomials.

On the plain (non-dual) side of a two-factor product the same construction
with psi(x) = bar(Theta) . bar(x) produces the canonical basis; there A is
unit upper triangular and the corrections run toward lexicographically
smaller indices, so the rows are scanned in descending order instead.

Each involution is the `BraidOperator` A that acts after bar: `psi_c` is
tau(Theta^(n)) itself and `psi_tensor2` is bar(Theta).

Singular vectors (killed by the coproduct E) are recognized exactly, and
`singular_subset` certifies its count by the integer rank of E at q = 1 -- a
disagreement is a falsification signal and raises.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .qring import (ONE, OddExponentError, QScalar, in_qinv_ideal,
                    solve_bar_equation)
from .rmatrix import BraidOperator, tau_theta_n, theta_matrix
from .tensor import WeightSpace, coproduct_matrix
from .weightmod import GEN_E, dual_factors, simple_factors


class TriangularityViolationError(AssertionError):
    """The involution is not unipotent triangular in the expected direction."""


class CountMismatchError(AssertionError):
    """A basis subset count disagrees with an independent rank bound."""


class BasisVector(linalg.Frozen):
    """One basis element, as exact coordinates over (dual) monomials."""

    __slots__ = ("index", "space", "coords")

    def __init__(self, index: tuple[int, ...], space: WeightSpace,
                 coords: linalg.Vector):
        self._freeze(index=index, space=space, coords=coords)

    def coeff(self, k: tuple[int, ...]) -> QScalar:
        return self.coords[self.space.pos[k]]

    def support(self) -> list[tuple[int, ...]]:
        """Indices with a nonzero coefficient, ascending."""
        return [self.space.indices[i] for i in self.coords.support()]

    def __repr__(self):
        parts = []
        for i in self.coords.support():
            text = str(self.coords[i])
            if " " in text:
                text = f"({text})"
            parts.append(f"{text}*{self.space.indices[i]}")
        return f"b{self.index} = " + " + ".join(parts)


def psi_c(lams: Sequence[int], level: int) -> BraidOperator:
    """tau(Theta^(n)) on the contragredient slice; psi_c(x) = it . bar(x)."""
    return tau_theta_n(dual_factors(lams), level)


def psi_tensor2(lams: Sequence[int], level: int) -> BraidOperator:
    """bar(Theta) on a plain two-factor slice; psi(x) = it . bar(x)."""
    if len(lams) != 2:
        raise ValueError("psi_tensor2 needs exactly two factors")
    theta = theta_matrix(simple_factors(lams), level)
    return BraidOperator(theta.source, theta.target,
                         linalg.mat_bar(theta.matrix))


def apply_antilinear(op: BraidOperator, vec: linalg.Vector) -> linalg.Vector:
    """x -> op . bar(x), the involution that `op` stands for."""
    return linalg.matmul(op.matrix, linalg.mat_bar(vec))


def is_involution(op: BraidOperator) -> bool:
    """True iff x -> op . bar(x) squares to the identity."""
    composed = linalg.matmul(op.matrix, linalg.mat_bar(op.matrix))
    return linalg.mat_eq(composed, linalg.identity(op.source.dim))


def _require_unitriangular(op: BraidOperator, upward: bool) -> None:
    """Raise unless the matrix has unit diagonal and no entry on the wrong
    side of it: below the diagonal row if `upward`, above it otherwise."""
    space = op.source
    for p in range(space.dim):
        col = op.matrix.col(p)
        wrong = [k for k, _ in col.items() if (k < p if upward else k > p)]
        if col[p] != ONE:
            wrong.append(p)
        if wrong:
            raise TriangularityViolationError(
                f"defect of {space.indices[p]} touches "
                f"{space.indices[min(wrong)]} on {space!r}")


#: Bits above the largest L1 norm of an entry of A in the first packing
#: width: room for the coefficients a solve adds before the width must grow.
_HEADROOM = 8


def _pack(x: QScalar, bits: int, off: int) -> int:
    """x evaluated at q = 2^bits, times 2^(bits*off): each term c q^k
    becomes c << bits*(k + off).

    A ring map, so sums and products of packed values are the packed sums
    and products (product offsets add).  Raises ValueError on a half-integer
    q-power or an exponent below q^-off.
    """
    n = 0
    for e, c in x._terms.items():
        k, odd = divmod(e, 2)
        if odd or k < -off:
            raise ValueError(f"{x} does not pack at offset {off}")
        n += c << bits * (k + off)
    return n


def _unpack(n: int, bits: int, off: int) -> QScalar:
    """The inverse of `_pack`, read as balanced base-2^bits digits: exact for
    every polynomial whose coefficients all have |c| < 2^(bits-1)."""
    terms = {}
    full, half = 1 << bits, 1 << (bits - 1)
    k = -off
    while n:
        d = n & (full - 1)
        if d >= half:
            d -= full
        if d:
            terms[2 * k] = d
        n = (n - d) >> bits
        k += 1
    return QScalar._raw(terms)


def _l1_norm(x: QScalar) -> int:
    """The sum of the absolute values of the coefficients."""
    return sum(map(abs, x._terms.values()))


def _pack_layout(a: linalg.Matrix) -> tuple[int, int]:
    """(l1, off) for packing every entry of `a`: the largest L1 norm of an
    entry, and the least offset in q-units.  Raises OddExponentError on a
    half-integer q-power."""
    l1, exps = 0, set()
    for p in range(a.shape[1]):
        for _, x in a.col(p).items():
            exps.update(x._terms)
            l1 = max(l1, _l1_norm(x))
    if any(e & 1 for e in exps):
        raise OddExponentError(f"half-integer q-powers in {a!r}")
    return l1, -(min(exps, default=0) // 2)


def _solve_triangular(op: BraidOperator, upward: bool) -> list[BasisVector]:
    """The fixed points b_m = e_m + sum_r c_r e_r, each by one forward
    substitution that scans the rows after m in ascending order (`upward`,
    the dual basis) or the rows before m in descending order (the canonical
    one), skipping each row whose running sum rho_r is zero.  The arithmetic
    runs on the Kronecker-packed entries of A (`_pack`); a vector whose
    coefficient bound outgrows the packing width is redone wider."""
    _require_unitriangular(op, upward)
    space = op.source
    dim = space.dim
    l1, off = _pack_layout(op.matrix)
    bits = l1.bit_length() + _HEADROOM
    cols = _pack_columns(op.matrix, bits, off)
    basis = []
    for m in range(dim):
        rows = range(m + 1, dim) if upward else range(m - 1, -1, -1)
        while (coeffs := _fixed_point(space, cols, m, rows, l1, bits,
                                      off)) is None:
            bits *= 2
            cols = _pack_columns(op.matrix, bits, off)
        basis.append(BasisVector(space.indices[m], space,
                                 linalg.Vector(dim, coeffs)))
    return basis


def _pack_columns(a: linalg.Matrix, bits: int, off: int) -> list[dict]:
    return [{i: _pack(x, bits, off) for i, x in a.col(p).items()}
            for p in range(a.shape[1])]


def _fixed_point(space: WeightSpace, cols: list[dict], m: int, rows,
                 l1: int, bits: int, off: int) -> dict | None:
    """The coefficients of b_m, found on packed columns and certified by a
    fresh packed product A . bar(b_m) = b_m; None as soon as the proven
    coefficient bound l1 * (1 + sum L1(c_r)) of everything still to be
    decoded or compared reaches 2^(bits-1)."""
    half = 1 << (bits - 1)
    coeffs = {m: ONE}
    terms = [(m, 1)]  # (k, packed bar(c_k)), at offset 0
    bound = l1
    rho = dict(cols[m])  # row -> packed running sum, at offset `off`
    for r in rows:
        rho_r = rho.get(r)
        if not rho_r:  # c_r = 0
            continue
        c = solve_bar_equation(_unpack(rho_r, bits, off))
        if not in_qinv_ideal(c):
            raise AssertionError(f"coefficient {c} of {space.indices[r]} "
                                 f"outside q^-1 Z[q^-1] on {space!r}")
        coeffs[r] = c
        bound += l1 * _l1_norm(c)
        if bound >= half:
            return None
        bar_c = _pack(c.bar(), bits, 0)
        terms.append((r, bar_c))
        for i, x in cols[r].items():
            rho[i] = rho.get(i, 0) + x * bar_c
    fresh = {}
    for k, bar_c in terms:
        for i, x in cols[k].items():
            fresh[i] = fresh.get(i, 0) + x * bar_c
    try:
        packed = {k: _pack(c, bits, off) for k, c in coeffs.items()}
    except ValueError:  # a term of b_m below every term of A . bar(b_m)
        packed = None
    if {i: x for i, x in fresh.items() if x} != packed:
        raise TriangularityViolationError(
            f"fixed-point defect at {space.indices[m]} on {space!r}")
    return coeffs


def dual_canonical_basis(lams: Sequence[int], level: int) -> list[BasisVector]:
    """The psi_c-fixed, lex-unipotent basis of the dual weight slice.

    Returned in ascending lexicographic index order.  Every off-lead
    coefficient lies in q^-1 Z[q^-1] and the support of b_m sits at indices
    >= m (with the factor bounds of the simple modules respected by
    construction).
    """
    return _solve_triangular(psi_c(lams, level), upward=True)


def canonical_basis_pair(lams: Sequence[int], level: int) -> list[BasisVector]:
    """The psi-fixed basis of a two-factor product of simple modules.

    Corrections to the leading monomial run toward lexicographically smaller
    indices, which for two factors means the anti-diagonal shifts
    (i, j) -> (i - k, j + k) with k > 0 only.
    """
    basis = _solve_triangular(psi_tensor2(lams, level), upward=False)
    for b in basis:
        i, j = b.index
        for k in b.support():
            if k == b.index:
                continue
            shift = b.index[0] - k[0]
            if shift <= 0 or k != (i - shift, j + shift):
                raise TriangularityViolationError(
                    f"support {k} of {b.index} outside the k>0 shift family")
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
    bound = space.dim - linalg.rank_at_q1(e)
    if len(subset) != bound:
        raise CountMismatchError(f"{len(subset)} singular elements, but E has "
                                 f"corank {bound} at q = 1 on {space!r}")
    return subset
