"""Quasi-R-matrices, Cartan factors and braiding operators on weight slices.

The universal R-matrix factors as R = C Theta with C = q^{h x h / 2} acting
diagonally (multiplier v^{mu nu} on a vector of factor weights mu, nu) and

    Theta = sum_k  q^{k(k-1)/2} (q - q^-1)^k / [k]!  E^k x F^k.

The n-fold version has one production recursion,

    Theta^(n) = (1 x Theta^(n-1)) . (1 x Delta^{n-2})(Theta),

and C^(n) = q^{1/2 sum_{i<j} h_i h_j} stays diagonal.
Rcheck = P . C . Theta on factors (i, i+1) is one cached pair operator, lifted;
along a reduced word of the order-reversing permutation these compose into
the longest braiding Rcheck^(n), which is word-independent, so production
builds it along the default word only.

Unrolled, the recursion is a product of pieces, Theta^(n) = P_{n-2} ...
P_1 P_0, with P_i the lift of (1 x Delta^{n-i-2})(Theta) on factors[i:]
(`theta_n_pieces`).  The dual canonical basis reads Theta^(n) only through
these pieces and never multiplies them out; the product serves
`tau_theta_n` and `theta_n_matrix`.

`weightmod.contragredient` makes each generator g act on V^c by the
transpose of tau(g) on V, tau the antiautomorphism applied factorwise.  So
on any product, of either module kind, tau(Theta^(n)) is the transpose of
Theta^(n) on the contragredient factors (V^cc = V), and that transpose is
the one route by which `tau_theta_n` builds it.

The default word (0; 1, 0; 2, 1, 0; ...; n - 2, ..., 0) bubbles each
factor to the front in turn, and the longest braiding along it has a
recursion of its own: that word is the default word of the first n - 1
factors followed by n - 2, ..., 0, which bubble the last factor to the
front,

    Rcheck^(n)(F) = B(G) . (Rcheck^(n-1)(F[:-1]) x 1),
    G = F[:-1] reversed, then F[-1],

with the bubble B(G) = Rcheck_0 . (1 x B(G[1:])) (`_bubble`).  Both are
cached, so each (n-1)-factor product and each bubble is built once and
read by every longer product.  The routes that cross-check these
operators, among them the product along any other word, live in
`qcanon.reference`.

`_lift` builds the block operators only: the lifted tails of `_theta_n`,
`_rcheck_longest`, `_bubble` and `reference._r_n` and the lifted pair
operators of `_rcheck`, each block level once per call.  A result is cached
only if rebuilding it costs measurable ring work or other cache keys rest
on its identity.  Eleven caches meet that rule: here `_theta_piece_first`,
`_theta_n`, `_pair_rcheck`, `_rcheck_longest` and `_bubble`;
`tensor.weight_space` and the two `weightmod` constructors, whose
canonical instances key all the others (modules and slices hash by
identity); in `canonical` the certified dual canonical basis of each
slice, `_certified_basis`, and `_gaussian_binomial`; and `reference._r_n`.
All eleven stay.  `_rcheck_longest` and `_bubble` serve `rmatrix --op
rcheck` and the references; `verify` empties them after each check, with
`_r_n` (`reference.CACHES`), and it empties the basis cache when a run
starts and when it ends.

E on factor 0 and Delta^{n-2}(F) on the rest act on different legs, so
E^k x Delta^{n-2}(F)^k = T^k for the one square matrix T = E x
Delta^{n-2}(F) on the slice, and each piece (1 x Delta^{n-2})(Theta) is a
power series in T.  `_t_matrix` writes T in one pass over the slice from
the ladder formulas, with no lifted generator matrix and no product.  The
series is summed one term at a time: T^k / [k]! is T times the term before,
divided by [k], so only the terms k >= 2 divide, since [1] = 1.  Every
division is exact on monomial bases, because each T^k / [k]! is integral
(the entries carry the matching quantum-binomial numerators); `exact_div`
raising would indicate a genuine bug, not a rounding concern.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .qring import ONE, Q_MINUS_QINV, QScalar, quantum_int
from .tensor import WeightSpace, weight_space
from .weightmod import GEN_E, GEN_F, contragredient


class BraidOperator(linalg.Frozen):
    """An exact operator between two weight slices."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: WeightSpace, target: WeightSpace,
                 matrix: linalg.Matrix):
        self._freeze(source=source, target=target, matrix=matrix)


# ---------------------------------------------------------------------------
# the shared building blocks: lift and Cartan diagonal
# ---------------------------------------------------------------------------

def _lift(factors, level, lo, hi, sub_fn, out_block=None):
    """X on the block factors[lo:hi], identity on the other factors.

    sub_fn(b) is the matrix of X from the block's slice at level b to the
    slice of out_block (default: the block) at level b; the lift lands on
    the factors with the block replaced by out_block, at the same level.
    """
    block = factors[lo:hi]
    out_block = block if out_block is None else out_block
    src = weight_space(factors, level)
    tgt = weight_space(factors[:lo] + out_block + factors[hi:], level)
    per_level = {}  # b -> (sub_fn(b), block pos, out-block indices)
    cols = []
    for m in src.indices:
        head, part, tail = m[:lo], m[lo:hi], m[hi:]
        b = sum(part)
        if b not in per_level:
            per_level[b] = (sub_fn(b), weight_space(block, b).pos,
                            weight_space(out_block, b).indices)
        sub, pos, sub_indices = per_level[b]
        cols.append({tgt.pos[head + sub_indices[i] + tail]: x
                     for i, x in sub.col(pos[part]).items()})
    return linalg.Matrix((tgt.dim, src.dim), cols)


def _cartan_diagonal(factors, level, exponent):
    """The diagonal v^exponent(w) on a slice, w the tuple of factor weights."""
    src = weight_space(factors, level)
    return linalg.diagonal([QScalar.v_power(exponent(src.factor_weights(m)))
                            for m in src.indices])


# ---------------------------------------------------------------------------
# Theta, C and their n-fold recursions
# ---------------------------------------------------------------------------

def _t_matrix(factors, level):
    """T = E x Delta^{n-2}(F) on a slice, in one pass over its columns.

    E lowers slot 0 and Delta^{n-2}(F) raises one later slot j, under the
    q^-h flank v^(-2 w_i) of each slot 1 <= i < j; E touches none of those,
    so column m holds one entry per such j."""
    space = weight_space(factors, level)
    head, rest = factors[0], factors[1:]
    cols = []
    for m in space.indices:
        col = {}
        for top, e in head.ladder(GEN_E, m[0]).items():
            flank = 0
            for j, f in enumerate(rest, 1):
                for raised, c in f.ladder(GEN_F, m[j]).items():
                    row = (top,) + m[1:j] + (raised,) + m[j + 1:]
                    col[space.pos[row]] = e * c * QScalar.v_power(flank)
                flank -= 2 * f.weight(m[j])
        cols.append(col)
    return linalg.Matrix((space.dim, space.dim), cols)


@lru_cache(maxsize=None)
def _theta_piece_first(factors, level):
    """(1 x Delta^{n-2})(Theta) = sum_k q^{k(k-1)/2} (q - q^-1)^k T^k / [k]!,
    T = E x Delta^{n-2}(F) (`_t_matrix`), each T^k / [k]! as T times the
    term before, divided by [k]."""
    out = linalg.identity(weight_space(factors, level).dim)  # k = 0
    kmax = min(level, factors[0].size - 1)
    if kmax == 0:
        return out
    t = _t_matrix(factors, level)
    piece = t  # the k = 1 term: [1] = 1
    for k in range(1, kmax + 1):
        if k >= 2:
            piece = linalg.mat_div(linalg.matmul(t, piece), quantum_int(k))
        out = linalg.mat_add(out, piece, QScalar.q_power(k * (k - 1) // 2)
                             * Q_MINUS_QINV ** k)
    return out


@lru_cache(maxsize=None)
def _theta_n(factors, level):
    """Theta^(n) = (1 x Theta^(n-1)) . (1 x Delta^{n-2})(Theta)."""
    n = len(factors)
    if n <= 1:
        return linalg.identity(weight_space(factors, level).dim)
    rest = factors[1:]
    return linalg.matmul(
        _lift(factors, level, 1, n, lambda b: _theta_n(rest, b)),
        _theta_piece_first(factors, level))


def _suffixes_first(factors, level, fn):
    """fn(factors, level) for a cached n-fold recursion that lifts
    fn(factors[1:], b).  Each proper suffix factors[i:] is evaluated first,
    shortest first, at every level a lift reads, so each call finds its tail
    cached and no call recurses more than one factor deep."""
    caps = [f.size - 1 for f in factors]
    head, tail = sum(caps), 0
    for i in range(len(factors) - 1, 0, -1):
        head, tail = head - caps[i], tail + caps[i]
        for b in range(max(0, level - head), min(level, tail) + 1):
            fn(factors[i:], b)
    return fn(factors, level)


def _cartan(factors, level):
    n = len(factors)
    return _cartan_diagonal(factors, level, lambda w: sum(
        w[i] * w[k] for i in range(n) for k in range(i + 1, n)))


# ---------------------------------------------------------------------------
# permutations and the commutativity isomorphisms
# ---------------------------------------------------------------------------

def _sigma0(factors, level):
    src = weight_space(factors, level)
    tgt = weight_space(factors[::-1], level)
    return linalg.Matrix((tgt.dim, src.dim),
                         [{tgt.pos[m[::-1]]: ONE} for m in src.indices])


def _swapped(factors, i):
    """The factor sequence with entries i and i+1 exchanged."""
    return factors[:i] + (factors[i + 1], factors[i]) + factors[i + 2:]


@lru_cache(maxsize=None)
def _pair_rcheck(pair, level):
    """P . C . Theta on a two-factor slice, onto the reversed pair."""
    return linalg.matmul(_sigma0(pair, level),
                         linalg.matmul(_cartan(pair, level),
                                       _theta_piece_first(pair, level)))


def _rcheck(factors, level, i):
    """The pair operator on factors (i, i+1): maps onto the swapped sequence."""
    pair = factors[i:i + 2]
    return _lift(factors, level, i, i + 2, lambda b: _pair_rcheck(pair, b),
                 out_block=pair[::-1])


@lru_cache(maxsize=None)
def _rcheck_longest(factors, level):
    """Rcheck_{i_L} ... Rcheck_{i_1} along the default word (i_1, ...,
    i_L) of n factors.

    On at most two factors that is the bubble (`_bubble`).  The default
    word of n >= 3 factors is the default word of the first n - 1 followed
    by n - 2, ..., 0, which bubble the last factor to the front: the
    product is the bubble times the lifted (n-1)-factor product, read from
    the cache.
    """
    n = len(factors)
    if n <= 2:
        return _bubble(factors, level)
    head = factors[:-1]
    return linalg.matmul(
        _suffixes_first(head[::-1] + factors[-1:], level, _bubble),
        _lift(factors, level, 0, n - 1, lambda b: _rcheck_longest(head, b),
              out_block=head[::-1]))


@lru_cache(maxsize=None)
def _bubble(factors, level):
    """Rcheck_0 ... Rcheck_{n-2} on n factors: moves the last factor to the
    front, by the bubble of factors[1:] and then Rcheck_0."""
    n = len(factors)
    if n <= 2:  # one factor is already in front
        return (_rcheck(factors, level, 0) if n == 2
                else linalg.identity(weight_space(factors, level).dim))
    rest = factors[1:]
    moved = rest[-1:] + rest[:-1]
    return linalg.matmul(
        _rcheck(factors[:1] + moved, level, 0),
        _lift(factors, level, 1, n, lambda b: _bubble(rest, b),
              out_block=moved))


def _tau_theta_n_dual(factors, level):
    """tau(Theta^(n)) on a slice of either kind: Theta^(n)'s transpose on the
    contragredient slice, the dual side of `factors`."""
    return linalg.transpose(_suffixes_first(
        tuple(map(contragredient, factors)), level, _theta_n))


# ---------------------------------------------------------------------------
# public wrappers
# ---------------------------------------------------------------------------

def _operator(fn, factors, level, *args, target=None) -> BraidOperator:
    """fn(factors, level, *args) as an operator onto the slice of `target`
    (by default the same factors)."""
    factors = tuple(factors)
    target = factors if target is None else target
    return BraidOperator(weight_space(factors, level),
                         weight_space(target, level),
                         fn(factors, level, *args))


def theta_matrix(factors, level) -> BraidOperator:
    """Theta on a two-factor slice."""
    if len(factors) != 2:
        raise ValueError("theta_matrix needs exactly two factors")
    return _operator(_theta_piece_first, factors, level)


def theta_n_matrix(factors, level) -> BraidOperator:
    return _operator(_suffixes_first, factors, level, _theta_n)


def theta_n_pieces(factors, level) -> list[list[tuple[int, BraidOperator]]]:
    """The factors P_0, ..., P_{n-2} of Theta^(n) = P_{n-2} ... P_1 P_0,
    unrolled from its recursion: P_i is (1 x Delta^{n-i-2})(Theta) on
    factors[i:], lifted.  The slice lists its indices in lex order, so the
    indices that share a head m[:i] are consecutive and run through the
    slice of factors[i:] at the level the head leaves, in its order: P_i is
    block diagonal.  Each P_i is given as its blocks (base, piece): the
    piece acts on the positions base, base + 1, ... of the head's run."""
    factors = tuple(factors)
    space = weight_space(factors, level)
    pieces = []
    for i in range(len(factors) - 1):
        rest, blocks, base = factors[i:], [], 0
        while base < space.dim:
            sub = weight_space(rest, level - sum(space.indices[base][:i]))
            blocks.append((base, BraidOperator(sub, sub, _theta_piece_first(
                rest, sub.level))))
            base += sub.dim
        pieces.append(blocks)
    return pieces


def rcheck_matrix(factors, level, i) -> BraidOperator:
    factors = tuple(factors)
    n = len(factors)
    if not 0 <= i < n - 1:
        need = (f"0 <= pos < {n - 1} for {n} factors" if n > 1
                else "at least two factors")
        raise ValueError(f"position {i} out of range: need {need}")
    return _operator(_rcheck, factors, level, i, target=_swapped(factors, i))


def rcheck_longest(factors, level) -> BraidOperator:
    """The longest braiding along the default word (module docstring)."""
    factors = tuple(factors)
    # each proper prefix first: the reversal's suffixes
    _suffixes_first(factors[::-1], level,
                    lambda rev, b: _rcheck_longest(rev[::-1], b))
    return _operator(_rcheck_longest, factors, level, target=factors[::-1])


def tau_theta_n(factors, level) -> BraidOperator:
    """tau(Theta^(n)) on a slice of either module kind, by its one route:
    the transpose of Theta^(n) on the contragredients.
    `reference.tau_theta_braid` is the reference."""
    return _operator(_tau_theta_n_dual, factors, level)
