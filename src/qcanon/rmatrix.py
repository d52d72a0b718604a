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

`weightmod.contragredient` makes each generator g act on V^c by the
transpose of tau(g) on V, tau the antiautomorphism applied factorwise.  So
on any product, of either module kind, tau(Theta^(n)) is the transpose of
Theta^(n) on the contragredient factors (V^cc = V), and that transpose is
the one route by which `tau_theta_n` builds it.

The references that only `verify` and the tests call are R^(n) by its own
recursion `_r_n` and the braid-product identity

    tau(Theta^(n)) = Rcheck^(n) (C^(n))^-1 sigma_0

evaluated with the given factor matrices (`tau_theta_braid`); C^(n) is a
diagonal of monomials v^e, so its inverse is its bar.

`_lift` builds each block operator once per block level, per call.  A result
is cached only if rebuilding it costs measurable ring work or other cache
keys rest on its identity.  Nine caches meet that rule: here
`_theta_piece_first`, `_theta_n`, `_r_n`, `_pair_rcheck` and
`_rcheck_longest`; `tensor.weight_space` and the two `weightmod`
constructors, whose canonical instances key all the others (modules and
slices hash by identity); and `qring.quantum_factorial`.  All nine stay;
`_r_n` and `_rcheck_longest` serve only the references, and `verify`
empties them after each check (`_REFERENCE_CACHES`).

E on factor 0 and Delta^{n-2}(F) on the rest act on different legs, so
E^k x Delta^{n-2}(F)^k = T^k for the one square matrix T = E x
Delta^{n-2}(F) on the slice, and each piece (1 x Delta^{n-2})(Theta) is a
power series in T.  Only its terms k >= 2 divide, since [0]! = [1]! = 1.
Every division by [k]! is exact on monomial bases (the entries carry the
matching quantum-binomial numerators); `exact_div` raising would indicate
a genuine bug, not a rounding concern.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .common import NotReducedError
from .qring import ONE, Q_MINUS_QINV, QScalar, quantum_factorial
from .tensor import WeightSpace, coproduct_matrix, weight_space
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

@lru_cache(maxsize=None)
def _theta_piece_first(factors, level):
    """(1 x Delta^{n-2})(Theta) = sum_k q^{k(k-1)/2} (q - q^-1)^k T^k / [k]!,
    T = E x Delta^{n-2}(F): E on factor 0, the coproducted F on the rest."""
    out = linalg.identity(weight_space(factors, level).dim)  # k = 0
    kmax = min(level, factors[0].size - 1)
    if kmax == 0:
        return out
    head, rest = factors[:1], factors[1:]
    e = _lift(factors, level, 0, 1,
              lambda b: coproduct_matrix(head, b, GEN_E), -1)
    f = _lift(factors, level - 1, 1, len(factors),
              lambda b: coproduct_matrix(rest, b, GEN_F), 1)
    t = linalg.matmul(f, e)
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


def _reduced_word(word, n) -> tuple[int, ...]:
    """`word` (by default `default_longest_word(n)`) as a tuple, checked to
    be a reduced expression of the order-reversing permutation."""
    word = default_longest_word(n) if word is None else tuple(word)
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


@lru_cache(maxsize=None)
def _rcheck_longest(factors, level, word):
    """Rcheck_{i_L} ... Rcheck_{i_1} along the reduced word (i_1, ..., i_L).

    The pair operators are multiplied in balanced rounds, neighbours first:
    a product of a few lifted pair operators stays sparse, where a running
    left-to-right product turns dense after a handful of factors.  The
    arithmetic is exact, so the bracketing does not change the result.
    """
    ops = []
    for i in word:
        ops.append(_rcheck(factors, level, i))
        factors = _swapped(factors, i)
    if not ops:
        return linalg.identity(weight_space(factors, level).dim)
    while len(ops) > 1:
        ops = [linalg.matmul(ops[j + 1], ops[j]) if j + 1 < len(ops)
               else ops[j] for j in range(0, len(ops), 2)]
    return ops[0]


#: The caches that only the references fill; `verify` empties them after each
#: check.  A tuple, built at import, so that it still reaches the caches when
#: a profiler (perfbench's tracer) rebinds the module names to wrappers.
_REFERENCE_CACHES = (_r_n, _rcheck_longest)


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
    return _operator(_rcheck_longest, factors, level,
                     _reduced_word(word, len(factors)), target=factors[::-1])


def tau_theta_braid(factors, level) -> BraidOperator:
    """Reference: tau(Theta^(n)) = Rcheck^(n) (C^(n))^-1 sigma_0, built from
    the given factor matrices.  Uncached; `verify` and the tests compare it
    with `tau_theta_n` on plain and contragredient factors."""
    factors = tuple(factors)
    rev = factors[::-1]
    space = weight_space(factors, level)
    return BraidOperator(space, space, linalg.matmul(
        rcheck_longest(rev, level).matrix,
        linalg.matmul(linalg.mat_bar(_cartan(rev, level)),
                      _sigma0(factors, level))))


def tau_theta_n(factors, level) -> BraidOperator:
    """tau(Theta^(n)) on a slice of either module kind, by its one route:
    the transpose of Theta^(n) on the contragredients.  `tau_theta_braid`
    is the reference."""
    return _operator(_tau_theta_n_dual, factors, level)
