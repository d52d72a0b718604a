"""Quasi-R-matrices, Cartan factors and braiding operators on weight slices.

The universal R-matrix factors as R = C Theta with C = q^{h x h / 2} acting
diagonally (multiplier v^{mu nu} on a vector of factor weights mu, nu) and

    Theta = sum_k  q^{k(k-1)/2} (q - q^-1)^k / [k]!  E^k x F^k.

The n-fold version has one production recursion,

    Theta^(n) = (1 x Theta^(n-1)) . (1 x Delta^{n-2})(Theta),

and C^(n) = q^{1/2 sum_{i<j} h_i h_j} stays diagonal.
Rcheck = P . C . Theta on factors (i, i+1) is one cached pair operator, lifted;
along a reduced word of the order-reversing permutation these compose into
the longest braiding Rcheck^(n), which is word-independent.

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

The longest braiding along the default word has a recursion of its own:
that word is the default word of the first n - 1 factors followed by
n - 2, ..., 0, and those last letters bubble the last factor to the front,

    Rcheck^(n)(F) = B(G) . (Rcheck^(n-1)(F[:-1]) x 1),
    G = F[:-1] reversed, then F[-1],

with the bubble B(G) = Rcheck_0 . (1 x B(G[1:])) (`_bubble`).  Both are
cached, so each (n-1)-factor product and each bubble is built once and
read by every longer product; any other word multiplies its pair
operators out.

The references that only `verify` and the tests call are R^(n) by its own
recursion `_r_n` and the braid-product identity

    tau(Theta^(n)) = Rcheck^(n) (C^(n))^-1 sigma_0

evaluated with the given factor matrices (`tau_theta_braid`); C^(n) is a
diagonal of monomials v^e, so its inverse is its bar, and (C^(n))^-1
sigma_0 is applied as a relabelling of Rcheck^(n)'s columns, each shifted
by one monomial.

`_lift` builds the block operators only: the lifted tails of `_theta_n`,
`_r_n`, `_rcheck_longest` and `_bubble` and the lifted pair operators of
`_rcheck`, each block level once per call.  A result is cached only if
rebuilding it costs measurable ring work or other cache keys rest on its
identity.  Eleven caches meet that rule: here `_theta_piece_first`,
`_theta_n`, `_r_n`, `_pair_rcheck`, `_rcheck_longest` and `_bubble`;
`tensor.weight_space` and the two `weightmod` constructors, whose
canonical instances key all the others (modules and slices hash by
identity); `qring.quantum_factorial`; and `canonical._gaussian_binomial`.
All eleven stay; `_r_n`, `_rcheck_longest` and `_bubble` serve only the
references, and `verify` empties them after each check
(`_REFERENCE_CACHES`).

E on factor 0 and Delta^{n-2}(F) on the rest act on different legs, so
E^k x Delta^{n-2}(F)^k = T^k for the one square matrix T = E x
Delta^{n-2}(F) on the slice, and each piece (1 x Delta^{n-2})(Theta) is a
power series in T.  `_t_matrix` writes T in one pass over the slice from
the ladder formulas, with no lifted generator matrix and no product.  Only
the series' terms k >= 2 divide, since [0]! = [1]! = 1.
Every division by [k]! is exact on monomial bases (the entries carry the
matching quantum-binomial numerators); `exact_div` raising would indicate
a genuine bug, not a rounding concern.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .common import NotReducedError
from .qring import ONE, Q_MINUS_QINV, QScalar, quantum_factorial
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

def _lift(factors, level, lo, hi, sub_fn, shift, out_block=None):
    """X on the block factors[lo:hi], identity on the other factors.

    sub_fn(b) is the matrix of X from the block's slice at level b to the
    slice of out_block (default: the block) at level b + shift; the lift
    lands on the factors with the block replaced by out_block, at level +
    shift.
    """
    block = factors[lo:hi]
    out_block = block if out_block is None else out_block
    src = weight_space(factors, level)
    tgt = weight_space(factors[:lo] + out_block + factors[hi:], level + shift)
    per_level = {}  # b -> (sub_fn(b), block pos, out-block indices)
    cols = []
    for m in src.indices:
        head, part, tail = m[:lo], m[lo:hi], m[hi:]
        b = sum(part)
        if b not in per_level:
            per_level[b] = (sub_fn(b), weight_space(block, b).pos,
                            weight_space(out_block, b + shift).indices)
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
    T = E x Delta^{n-2}(F) (`_t_matrix`)."""
    out = linalg.identity(weight_space(factors, level).dim)  # k = 0
    kmax = min(level, factors[0].size - 1)
    if kmax == 0:
        return out
    t = _t_matrix(factors, level)
    power = piece = t  # the k = 1 term: [1]! = 1
    for k in range(1, kmax + 1):
        if k >= 2:
            power = linalg.matmul(t, power)
            piece = linalg.mat_div(power, quantum_factorial(k))
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
        _lift(factors, level, 1, n, lambda b: _theta_n(rest, b), 0),
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
    sub = _lift(factors, level, 1, n, lambda b: _r_n(rest, b), 0)
    return linalg.matmul(sub, piece)


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
    return _lift(factors, level, i, i + 2, lambda b: _pair_rcheck(pair, b), 0,
                 out_block=pair[::-1])


def default_longest_word(n: int) -> tuple[int, ...]:
    """A reduced expression of the order-reversing permutation: bubble each
    factor to the front in turn."""
    word = []
    for a in range(1, n):
        word.extend(range(a - 1, -1, -1))
    return tuple(word)


def _reduced_word(word, n) -> tuple[int, ...] | None:
    """`word` as a tuple, checked to be a reduced expression of the
    order-reversing permutation; None for `default_longest_word(n)`, given
    or by default, which `_rcheck_longest` keys as None."""
    if word is None:
        return None
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
    return None if word == default_longest_word(n) else word


@lru_cache(maxsize=None)
def _rcheck_longest(factors, level, word):
    """Rcheck_{i_L} ... Rcheck_{i_1} along the reduced word (i_1, ..., i_L),
    None standing for `default_longest_word(n)`.

    The default word of n >= 3 factors is the default word of the first
    n - 1 followed by n - 2, ..., 0, which bubble the last factor to the
    front: the product is the bubble (`_bubble`) times the lifted
    (n-1)-factor product, read from the cache.  A word given as a tuple
    multiplies its pair operators in balanced rounds, neighbours first: a
    product of a few lifted pair operators stays sparse, where a running
    left-to-right product turns dense after a handful of factors.  The
    arithmetic is exact, so neither the recursion nor the bracketing
    changes the result.
    """
    n = len(factors)
    if word is None and n >= 3:
        head = factors[:-1]
        return linalg.matmul(
            _suffixes_first(head[::-1] + factors[-1:], level, _bubble),
            _lift(factors, level, 0, n - 1,
                  lambda b: _rcheck_longest(head, b, None), 0,
                  out_block=head[::-1]))
    ops = []
    for i in default_longest_word(n) if word is None else word:
        ops.append(_rcheck(factors, level, i))
        factors = _swapped(factors, i)
    if not ops:
        return linalg.identity(weight_space(factors, level).dim)
    while len(ops) > 1:
        ops = [linalg.matmul(ops[j + 1], ops[j]) if j + 1 < len(ops)
               else ops[j] for j in range(0, len(ops), 2)]
    return ops[0]


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
        _lift(factors, level, 1, n, lambda b: _bubble(rest, b), 0,
              out_block=moved))


#: The caches that only the references fill; `verify` empties them after each
#: check.  A tuple, built at import, so that it still reaches the caches when
#: a profiler (perfbench's tracer) rebinds the module names to wrappers.
_REFERENCE_CACHES = (_r_n, _rcheck_longest, _bubble)


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


def cartan_factor(factors, level) -> BraidOperator:
    """Diagonal multiplier v^(sum_{i<j} mu_i mu_j) on factor weights."""
    return _operator(_cartan, factors, level)


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


def r_n_matrix(factors, level) -> BraidOperator:
    return _operator(_suffixes_first, factors, level, _r_n)


def sigma0_matrix(factors, level) -> BraidOperator:
    return _operator(_sigma0, factors, level, target=tuple(factors)[::-1])


def rcheck_matrix(factors, level, i) -> BraidOperator:
    factors = tuple(factors)
    if not 0 <= i < len(factors) - 1:
        raise ValueError(f"position {i} out of range: need 0 <= pos < "
                         f"{len(factors) - 1} for {len(factors)} factors")
    return _operator(_rcheck, factors, level, i, target=_swapped(factors, i))


def rcheck_longest(factors, level, word=None) -> BraidOperator:
    """The longest braiding along `word` (default: `default_longest_word`)."""
    factors = tuple(factors)
    word = _reduced_word(word, len(factors))
    if word is None:  # each proper prefix first: the reversal's suffixes
        _suffixes_first(factors[::-1], level, lambda rev, b:
                        _rcheck_longest(rev[::-1], b, None))
    return _operator(_rcheck_longest, factors, level, word,
                     target=factors[::-1])


def tau_theta_braid(factors, level) -> BraidOperator:
    """Reference: tau(Theta^(n)) = Rcheck^(n) (C^(n))^-1 sigma_0, built from
    the given factor matrices.  (C^(n))^-1 sigma_0 relabels columns: column
    m is column m[::-1] of Rcheck^(n) on the reversed factors, times
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


def tau_theta_n(factors, level) -> BraidOperator:
    """tau(Theta^(n)) on a slice of either module kind, by its one route:
    the transpose of Theta^(n) on the contragredients.  `tau_theta_braid`
    is the reference."""
    return _operator(_tau_theta_n_dual, factors, level)
