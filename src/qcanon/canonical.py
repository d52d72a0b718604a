"""Canonical and dual canonical bases via the bar-involution fixed point.

On a contragredient slice the involution is

    psi_c(x) = tau(Theta^(n)) . bar(x),

where bar acts coefficientwise on dual monomial coordinates (the dual
monomials are bar-fixed because divided powers have bar-invariant
coefficients).  Write A for the matrix of psi_c.  It is unipotent lower
triangular in ascending lexicographic index order, so psi_c(e_m) = e_m +
(terms at k > m).  The dual canonical basis is the unique family b_m = e_m +
sum_{r>m} c_r e_r fixed by psi_c with every off-lead coefficient in
q^-1 Z[q^-1]: if two such families differed, the first differing
coefficient would be bar-invariant and in q^-1 Z[q^-1], so zero.

`dual_canonical_basis` has one production route, and it never forms A:

* each b_m comes from the closed diagram formula of the source paper
  (`_closed_form`), evaluated on the unit-weight lift of m and collapsed
  onto the slice per cup bundle, with Gaussian-binomial weights, so it
  never lists the subsets of cups;
* `_certify` then proves it: A = P_0^T P_1^T ... P_{n-2}^T for the pieces
  P_i of Theta^(n) on the simple factors (`rmatrix.theta_n_pieces`); each
  P_i^T must be unit lower triangular, b_m must have lead 1 and its other
  coefficients in q^-1 Z[q^-1] at indices after m, and A bar(b_m) = b_m
  must hold, applied piece by piece.  By uniqueness that is the dual
  canonical element.  A failure raises (TriangularityViolationError, or
  AssertionError for a coefficient outside the ideal); there is no second
  route to fall back on.

The certificate's products run on Kronecker-packed ints (`_pack`): each
Laurent polynomial is evaluated at q = 2^B and shifted so that no exponent
is negative.  Evaluation at 2^B is a ring map, so packed sums and products
are the packed images of the true ones, and two polynomials whose
coefficients all have |c| < 2^(B-1) are equal exactly when their packed
images are.  Between pieces the vector keeps only its nonzero entries,
and the power of q common to them is divided out (`_through_pieces`), so
neither structural zeros nor the pieces' growing packing offsets ride
along to the next piece.
Every entry of A is a polynomial in q and q^-1 (the Theta coefficients, the
quantum integers and the q^{+-h} flanks are all integer powers of q), and a
half-integer q-power raises OddExponentError.

On the plain side of a two-factor product, psi(x) = bar(Theta) . bar(x)
fixes the canonical basis c_m = e_m + (terms at k < m, in q^-1 Z[q^-1]).
It is dual to the dual canonical basis: the c_m are the columns of D^-T,
for D the unit lower triangular matrix whose columns are the b_m (the dual
side's Theta^T bar(D) = D inverts to bar(Theta) bar(D^-T) = D^-T).
`canonical_basis_pair` has one production route: D from the certified
`dual_canonical_basis`, one descending scan per column of D^-T
(`_inverse_transpose`), and a certificate that guards the inversion.

The reference is the forward substitution `_solve_triangular`, which only
`verify` and the tests call, to compare production with it on every slice
they sweep.  Row r of A bar(b_m) = b_m reads

    c_r - bar(c_r) = rho_r,   rho_r = sum_{m <= k < r} A[r, k] bar(c_k),

so from c_m = 1 the rows r > m are scanned in ascending order, each c_r =
solve_bar_equation(rho_r) in plain QScalar arithmetic.  A must be unit
lower triangular, every c_r must lie in q^-1 Z[q^-1], and every b_m must
satisfy psi_c(b_m) = b_m by a fresh product.

Each involution is the `BraidOperator` A that acts after bar: `psi_c` is
tau(Theta^(n)) itself and `psi_tensor2` is bar(Theta).

Singular vectors (killed by the coproduct E) are recognized exactly, and
`singular_subset` certifies its count by the integer rank of E at q = 1 -- a
disagreement is a falsification signal and raises.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import or_
from typing import Sequence

from . import linalg
from .qring import (ONE, OddExponentError, QScalar, addmul, in_qinv_ideal,
                    solve_bar_equation)
from .rmatrix import BraidOperator, tau_theta_n, theta_matrix, theta_n_pieces
from .tensor import WeightSpace, coproduct_matrix, weight_space
from .weightmod import GEN_E, contragredient, dual_factors, simple_factors


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


def _l1_norm(x: QScalar) -> int:
    """The sum of the absolute values of the coefficients."""
    return sum(map(abs, x._terms.values()))


def _transposed_layout(a: linalg.Matrix, space: WeightSpace
                       ) -> tuple[list[dict], int, int]:
    """(cols, l1, off) for a block `a` of a piece of Theta^(n) on `space`:
    the columns of its transpose, checked unit lower triangular (else
    TriangularityViolationError), their largest L1 norm (the sum of the
    entries' L1 norms), and the least offset in q-units for packing every
    entry."""
    dim = space.dim
    cols, norms, low = [{} for _ in range(dim)], [0] * dim, 0
    for p in range(dim):
        for r, x in a.col(p).items():
            if r > p:
                raise TriangularityViolationError(
                    f"defect of {space.indices[r]} touches "
                    f"{space.indices[p]} on {space!r}")
            cols[r][p] = x
            norms[r] += _l1_norm(x)
            low = min(low, *x._terms)
    for p, col in enumerate(cols):
        if col.get(p) != ONE:
            raise TriangularityViolationError(
                f"diagonal entry of {space.indices[p]} is not 1 on {space!r}")
    return cols, max(norms, default=1), -(low // 2)


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


def dual_canonical_basis(lams: Sequence[int], level: int) -> list[BasisVector]:
    """The psi_c-fixed, lex-unipotent basis of the dual weight slice.

    Returned in ascending lexicographic index order.  Every off-lead
    coefficient lies in q^-1 Z[q^-1] and the support of b_m sits at indices
    >= m (with the factor bounds of the simple modules respected by
    construction).  Each b_m comes from the closed diagram formula
    (`_closed_form`) and is certified through the factors of Theta^(n)
    (`_certify`); nothing is solved.
    """
    space = weight_space(dual_factors(lams), level)
    coords = [_closed_form(space, a) for a in space.indices]
    _certify(space, coords)
    return [BasisVector(a, space, linalg.Vector._wrap((space.dim, 1), (c,)))
            for a, c in zip(space.indices, coords)]


def _cup_bundles(lam: Sequence[int], a: Sequence[int]) -> list[tuple]:
    """The cups of the diagram of index a, bundled: (i, j, c) for the c
    parallel chords from block i to block j (0-based, i < j), in the order
    the stack pass of `diagrams.diagram_of_index` closes them.  The pass
    pops a whole run of free units at a time, so its cost does not grow
    with the weights."""
    free, out = [], []  # (block, free units) runs; the origin lies below
    for j, (aj, cap) in enumerate(zip(a, lam)):
        need = aj
        while need and free:
            i, units = free.pop()
            c = min(need, units)
            out.append((i, j, c))
            need -= c
            if units > c:
                free.append((i, units - c))
        if cap > aj:
            free.append((j, cap - aj))
    return out


@lru_cache(maxsize=None)
def _gaussian_binomial(c: int, k: int) -> QScalar:
    """[c choose k] in q^-2: the sum, over the k-subsets S of c places, of
    q^-2 to the number of pairs r < r' with r in S and r' not in S.
    Cached: the q-Pascal recursion reads each smaller binomial many times.
    Its depth is c, never more than that of the `quantum_factorial` the
    same slice's Theta pieces compute, since a bundle of c cups needs
    level and weights of at least c."""
    if k in (0, c):
        return ONE
    return (_gaussian_binomial(c - 1, k - 1)
            + QScalar.q_power(-2 * k) * _gaussian_binomial(c - 1, k))


def _closed_form(space: WeightSpace, a: tuple[int, ...]) -> dict:
    """The coordinates {position: coefficient} of b_a by the closed diagram
    formula, collapsed per cup bundle.

    Lift a to the unit weights, left-packed (in block i the first a_i units
    are 1), and sum (-q^-1)^|S| q^-inv over the subsets S of the cups of the
    unit diagram: S moves the unit of each of its cups from the right end
    to the left one, and the term lands on the row of its block sums with
    the q^-inv of `cabling.dual_cabling_matrix` (inv counts the pairs of a
    0 before a 1 in one block).  The c unit cups of a bundle run nested
    between two blocks, so moving k of them lands on one row whatever the
    k, and a moved cup inside an unmoved one adds two inversions: the k
    outermost give the least inv, and the k-subsets together give
    [c choose k] in q^-2.  So one term per choice of k for each bundle.

    With the outermost cups moved, a block reads, left to right: per bundle
    ending there 1^(c-k) 0^k, then the units closed on the origin, then the
    free units, then per bundle starting there, last opened first, 1^k
    0^(c-k).  Every run length is affine in one k, so inv is a quadratic
    form in the k's, with no constant term (at k = 0 every block is 1s then
    0s); it is set up once per element and evaluated per term.
    """
    lam = [f.highest_weight for f in space.factors]
    bundles = _cup_bundles(lam, a)
    if not bundles:  # every arc ends on the origin: b_a = e_a
        return {space.pos[a]: ONE}
    ones, zeros = list(a), [x - y for x, y in zip(lam, a)]
    heads = [[] for _ in lam]  # block -> runs (is_one, const, bundle, sign)
    tails = [[] for _ in lam]  # block -> its bundle-opening runs, right first
    for u, (i, j, c) in enumerate(bundles):
        heads[j] += [(True, c, u, -1), (False, 0, u, 1)]
        ones[j] -= c
        tails[i] += [(False, c, u, -1), (True, 0, u, 1)]
        zeros[i] -= c
    lin, quad = [0] * len(bundles), {}  # inv = lin . k + sum quad k_u k_w
    for b in range(len(lam)):
        if not (heads[b] or tails[b]):
            continue
        before_c, before = 0, {}  # the 0s so far: before_c + before . k
        for is_one, const, u, sign in (
                heads[b] + [(True, ones[b], 0, 0), (False, zeros[b], 0, 0)]
                + tails[b][::-1]):
            if not is_one:
                before_c += const
                if sign:
                    before[u] = before.get(u, 0) + sign
                continue
            for w, z in before.items():
                lin[w] += z * const
                if sign:
                    key = (w, u) if w < u else (u, w)
                    quad[key] = quad.get(key, 0) + z * sign
            lin[u] += before_c * sign
    quad = [(u, w, z) for (u, w), z in quad.items() if z]
    pos, acc = space.pos, {}
    for ks in itertools.product(*[range(c + 1) for _, _, c in bundles]):
        row, moved, inv, weight = list(a), 0, 0, ONE
        for (i, j, c), k, x in zip(bundles, ks, lin):
            if k:
                row[i] += k
                row[j] -= k
                moved += k
                inv += x * k
                if k < c:
                    weight = weight * _gaussian_binomial(c, k)
        for u, w, z in quad:
            inv += z * ks[u] * ks[w]
        term = QScalar._raw({-2 * (inv + moved): -1 if moved & 1 else 1})
        addmul(acc.setdefault(pos[tuple(row)], {}), term, weight)
    return {p: QScalar._raw(t) for p, t in acc.items() if t}


def _certify(space: WeightSpace, coords: list[dict]) -> None:
    """Prove that coords[m] is the dual canonical element b_m of `space`,
    or raise.

    Each piece P_i of Theta^(n) on the simple factors (`theta_n_pieces`)
    must have a unit lower triangular transpose, so A = tau(Theta^(n)) =
    P_0^T ... P_{n-2}^T is unit lower triangular; each b_m must have lead
    coefficient 1 and every other coefficient in q^-1 Z[q^-1] at an index
    after m; and A bar(b_m) = b_m, applied piece by piece.  The fixed point
    with those properties is unique, so together they prove b_m.  A piece
    is block diagonal, so it is checked, laid out and packed block by block,
    once per distinct block.

    The fixed-point products run on Kronecker-packed ints (`_pack`), each
    piece packed at its own offset, so that the offsets add piece by piece
    (`_through_pieces`).  Every coefficient of A bar(b_m) is at most
    L1(b_m) times the product of the pieces' largest column L1 norms (the
    norm is submultiplicative), and so is every coefficient of b_m; B is
    taken above that bound, so the final packed ints are equal exactly when
    the polynomials are.  Each piece has unit diagonal, so each of those
    norms is at least 1, and every partial product P_i^T ... P_{n-2}^T
    bar(b_m) obeys the same bound: its packed entries determine their
    polynomials, and the common power of q that `_through_pieces` divides
    out of them is exact.
    """
    bound = 1
    for m, coeffs in enumerate(coords):
        if coeffs.get(m) != ONE:
            raise TriangularityViolationError(
                f"lead coefficient of {space.indices[m]} is not 1 on "
                f"{space!r}")
        for r, c in coeffs.items():
            if r < m:
                raise TriangularityViolationError(
                    f"support of {space.indices[m]} reaches "
                    f"{space.indices[r]} on {space!r}")
            if r != m and not in_qinv_ideal(c):
                raise AssertionError(f"coefficient {c} of {space.indices[r]} "
                                     f"outside q^-1 Z[q^-1] on {space!r}")
        bound = max(bound, sum(map(_l1_norm, coeffs.values())))
    pieces, layouts = [], {}  # layouts: block matrix -> (cols, l1, off)
    for blocks in theta_n_pieces(tuple(map(contragredient, space.factors)),
                                 space.level):
        for _, op in blocks:
            if op.matrix not in layouts:  # matrices hash by identity
                layouts[op.matrix] = _transposed_layout(op.matrix, op.source)
        bound *= max((layouts[op.matrix][1] for _, op in blocks), default=1)
        pieces.append((blocks, max((layouts[op.matrix][2] for _, op in blocks),
                                   default=0)))
    bits = bound.bit_length() + 1
    packed = []  # per piece: position -> (base, packed column)
    for blocks, off in pieces:
        cols, done = [], {}
        for base, op in blocks:
            if op.matrix not in done:
                try:
                    done[op.matrix] = [{i: _pack(x, bits, off)
                                        for i, x in col.items()}
                                       for col in layouts[op.matrix][0]]
                except ValueError:  # no exponent is below -off: a half power
                    raise OddExponentError(
                        f"half-integer q-powers in a piece on {op.source!r}")
            cols.extend((base, col) for col in done[op.matrix])
        packed.append(cols)
    total = sum(off for _, off in pieces)
    for m, coeffs in enumerate(coords):
        x, shift = _through_pieces(
            packed, {r: _pack(c.bar(), bits, 0) for r, c in coeffs.items()},
            bits)
        try:
            want = {r: _pack(c, bits, total - shift)
                    for r, c in coeffs.items()}
        except ValueError:  # a term of b_m below every term of A bar(b_m)
            want = None
        if x != want:
            raise TriangularityViolationError(
                f"fixed-point defect at {space.indices[m]} on {space!r}")


def _through_pieces(packed: list[list], x: dict, bits: int
                    ) -> tuple[dict, int]:
    """(y, shift): y = q^-shift P_0^T ... P_{n-2}^T x on packed ints, the
    pieces given as `packed` (per piece, position -> (base, packed column)).

    After each piece only the nonzero entries stay, and the common power of
    q is divided out: s = min over the entries of floor(tz / bits), tz the
    number of trailing zero bits (the least tz is that of the entries'
    bitwise or).  While every coefficient is below 2^(bits-1) in absolute
    value, floor(tz / bits) of an entry is its lowest q-exponent plus the
    packing offset, so the division is exact and leaves the entries packed
    at the offset less s.  `shift` sums the s.
    """
    shift = 0
    for cols in reversed(packed):  # P_{n-2}^T first
        y = {}
        for r, xr in x.items():
            base, col = cols[r]
            for p, v in col.items():
                p += base
                y[p] = y.get(p, 0) + v * xr
        low = reduce(or_, y.values(), 0)  # its lowest set bit: min tz
        s = ((low & -low).bit_length() - 1) // bits if low else 0
        x = {p: v >> bits * s for p, v in y.items() if v}
        shift += s
    return x, shift


def canonical_basis_pair(lams: Sequence[int], level: int) -> list[BasisVector]:
    """The psi-fixed basis of a two-factor product of simple modules: the
    columns c_m of D^-T, for D the certified dual canonical basis
    (`_inverse_transpose`).

    Corrections to the leading monomial run toward lexicographically smaller
    indices, which for two factors means the anti-diagonal shifts
    (i, j) -> (i - k, j + k) with k > 0 only.  Each c_m is certified by its
    lead 1, its support on that family, its other coefficients in
    q^-1 Z[q^-1], and psi(c_m) = c_m by a fresh product.
    """
    psi = psi_tensor2(lams, level)
    space = psi.source
    basis = []
    for m, coeffs in enumerate(
            _inverse_transpose(dual_canonical_basis(lams, level))):
        index = space.indices[m]
        if coeffs.get(m) != ONE:
            raise TriangularityViolationError(
                f"lead coefficient of {index} is not 1 on {space!r}")
        for r, c in coeffs.items():
            k = space.indices[r]
            if r != m and not (k[0] < index[0] and sum(k) == sum(index)):
                raise TriangularityViolationError(
                    f"support {k} of {index} outside the k>0 shift family")
            if r != m and not in_qinv_ideal(c):
                raise AssertionError(f"coefficient {c} of {k} outside "
                                     f"q^-1 Z[q^-1] on {space!r}")
        vec = linalg.Vector(space.dim, coeffs)
        if not linalg.mat_eq(apply_antilinear(psi, vec), vec):
            raise TriangularityViolationError(
                f"fixed-point defect at {index} on {space!r}")
        basis.append(BasisVector(index, space, vec))
    return basis


def _inverse_transpose(dual: list[BasisVector]) -> list[dict]:
    """The columns {position: coefficient} of D^-T, for D the unit lower
    triangular matrix whose columns are the coordinates of `dual`.  Column m
    is unit upper triangular, by one descending scan:

        c_m[k] = - sum_{k < r <= m} c_m[r] D[r, k].
    """
    cols = [dict(b.coords.items()) for b in dual]
    out = []
    for m in range(len(cols)):
        coeffs = {m: ONE}
        for k in range(m - 1, -1, -1):
            acc = {}
            for r, x in cols[k].items():
                if r in coeffs:
                    addmul(acc, coeffs[r], x)
            if acc:
                coeffs[k] = -QScalar._raw(acc)
        out.append(coeffs)
    return out


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
