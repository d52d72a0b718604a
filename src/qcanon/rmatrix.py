"""Quasi-R-matrices, Cartan factors and braiding operators on weight slices.

The universal R-matrix factors as R = C Theta with C = q^{h x h / 2} acting
diagonally (multiplier v^{mu nu} on a vector of factor weights mu, nu) and

    Theta = sum_k  q^{k(k-1)/2} (q - q^-1)^k / [k]!  E^k x F^k.

The n-fold versions are built by the coproduct recursions

    Theta^(n) = (1 x Theta^(n-1)) . (1 x Delta^{n-2})(Theta)
              = (Theta^(n-1) x 1) . (Delta^{n-2} x 1)(Theta)

and likewise for R^(n); C^(n) = q^{1/2 sum_{i<j} h_i h_j} stays diagonal.
The commutativity isomorphism Rcheck = P . R on an adjacent pair of factors
composes along a reduced word of the order-reversing permutation into the
longest braiding Rcheck^(n), which is word-independent.

Applying the antiautomorphism tau factorwise reverses products and swaps the
legs of Theta (tau(E) = F q^h, tau(F) = q^-h E), giving a parallel recursion
for tau(Theta^(n)).  On a contragredient product, tau(Theta^(n)) acts by the
transpose of Theta^(n) downstairs; `tau_theta_n` computes that transpose and
cross-checks it against the independent braid-product identity

    tau(Theta^(n)) = Rcheck^(n) (C^(n))^-1 sigma_0

evaluated directly with the contragredient factor matrices.

Every division by [k]! is exact on monomial bases (the entries carry the
matching quantum-binomial numerators); `exact_div` raising would indicate a
genuine bug, not a rounding concern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .qring import ONE, Q_MINUS_QINV, QScalar, exact_div, quantum_factorial
from .tensor import WeightSpace, coproduct_matrix, weight_space
from .weightmod import (GEN_E, GEN_F, GEN_QH, GEN_QH_INV, WeightModule)


class NotReducedError(ValueError):
    """The supplied word is not a reduced expression of the reversal."""


class CrossCheckFailureError(AssertionError):
    """Two independent computations of the same operator disagree."""


@dataclass(frozen=True)
class BraidOperator:
    """An exact operator between two weight slices, with a provenance tag."""
    source: WeightSpace
    target: WeightSpace
    matrix: linalg.Matrix
    tag: str


# ---------------------------------------------------------------------------
# lifting single-factor and sub-product operators into the full slice
# ---------------------------------------------------------------------------

def _lift_single(factors, level, pos, single_mat, slot_shift):
    """single_mat on factor `pos` (slot m -> m + slot_shift), identity
    elsewhere: W(factors, level) -> W(factors, level + slot_shift)."""
    src = weight_space(factors, level)
    tgt = weight_space(factors, level + slot_shift)
    cols = [{} for _ in range(src.dim)]
    size = factors[pos].size
    for j, m in enumerate(src.indices):
        t = m[pos] + slot_shift
        if not 0 <= t < size:
            continue
        c = single_mat[t, m[pos]]
        if c:
            cols[j][tgt.pos[m[:pos] + (t,) + m[pos + 1:]]] = c
    return linalg.Matrix((tgt.dim, src.dim), cols)


def _lift_rest(factors, level, sub_fn, sub_shift):
    """1 x X on factors[1:], where sub_fn(b) gives the matrix of X from the
    sub-product slice at level b to level b + sub_shift."""
    src = weight_space(factors, level)
    tgt = weight_space(factors, level + sub_shift)
    cols = [{} for _ in range(src.dim)]
    rest = factors[1:]
    for j, m in enumerate(src.indices):
        b = level - m[0]
        sub_src = weight_space(rest, b)
        sub_tgt = weight_space(rest, b + sub_shift)
        out = cols[j]
        for i, x in sub_fn(b).col(sub_src.pos[m[1:]]).items():
            out[tgt.pos[(m[0],) + sub_tgt.indices[i]]] = x
    return linalg.Matrix((tgt.dim, src.dim), cols)


def _lift_init(factors, level, sub_fn, sub_shift):
    """X x 1 on factors[:-1], mirror of `_lift_rest`."""
    src = weight_space(factors, level)
    tgt = weight_space(factors, level + sub_shift)
    cols = [{} for _ in range(src.dim)]
    init = factors[:-1]
    for j, m in enumerate(src.indices):
        b = level - m[-1]
        sub_src = weight_space(init, b)
        sub_tgt = weight_space(init, b + sub_shift)
        out = cols[j]
        for i, x in sub_fn(b).col(sub_src.pos[m[:-1]]).items():
            out[tgt.pos[sub_tgt.indices[i] + (m[-1],)]] = x
    return linalg.Matrix((tgt.dim, src.dim), cols)


@lru_cache(maxsize=None)
def _single_power(module: WeightModule, gen: str, k: int) -> linalg.Matrix:
    if k == 0:
        return linalg.identity(module.size)
    return linalg.matmul(module.matrix(gen), _single_power(module, gen, k - 1))


@lru_cache(maxsize=None)
def _tau_e_matrix(module: WeightModule) -> linalg.Matrix:
    # tau(E) = F q^h on a single factor
    return linalg.matmul(module.matrix(GEN_F), module.matrix(GEN_QH))


@lru_cache(maxsize=None)
def _tau_e_power(module: WeightModule, k: int) -> linalg.Matrix:
    if k == 0:
        return linalg.identity(module.size)
    return linalg.matmul(_tau_e_matrix(module), _tau_e_power(module, k - 1))


@lru_cache(maxsize=None)
def _coproduct_power(factors, level, gen, k):
    """(Delta^{n-1} gen)^k as a chained product of adjacent-slice matrices."""
    step = -1 if gen == GEN_E else 1
    src = weight_space(factors, level)
    mat = linalg.identity(src.dim)
    cur = level
    for _ in range(k):
        mat = linalg.matmul(coproduct_matrix(factors, cur, gen), mat)
        cur += step
    return mat


@lru_cache(maxsize=None)
def _coproduct_tau_f_power(factors, level, k):
    """(Delta^{n-1} (q^-h E))^k; each step applies E then the diagonal q^-h."""
    src = weight_space(factors, level)
    mat = linalg.identity(src.dim)
    cur = level
    for _ in range(k):
        step = linalg.matmul(coproduct_matrix(factors, cur - 1, GEN_QH_INV),
                             coproduct_matrix(factors, cur, GEN_E))
        mat = linalg.matmul(step, mat)
        cur -= 1
    return mat


def _theta_coefficient(k: int) -> QScalar:
    return QScalar.q_power(k * (k - 1) // 2) * Q_MINUS_QINV ** k


# ---------------------------------------------------------------------------
# Theta, C and their n-fold recursions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _theta_piece_first(factors, level):
    """(1 x Delta^{n-2})(Theta): E^k on factor 0, coproducted F^k on the rest."""
    src = weight_space(factors, level)
    out = linalg.zeros(src.dim, src.dim)
    rest = factors[1:]
    kmax = min(level, factors[0].size - 1)
    for k in range(kmax + 1):
        mid = weight_space(factors, level - k)
        if mid.dim == 0:
            continue
        e_big = _lift_single(factors, level, 0,
                             _single_power(factors[0], GEN_E, k), -k)
        f_big = _lift_rest(factors, level - k,
                           lambda b, k=k: _coproduct_power(rest, b, GEN_F, k), k)
        term = linalg.mat_scale(linalg.matmul(f_big, e_big),
                                _theta_coefficient(k))
        out = linalg.mat_add(out, linalg.mat_div(term, quantum_factorial(k)))
    return out


@lru_cache(maxsize=None)
def _theta_piece_last(factors, level):
    """(Delta^{n-2} x 1)(Theta): coproducted E^k on the front, F^k on the last."""
    src = weight_space(factors, level)
    out = linalg.zeros(src.dim, src.dim)
    init = factors[:-1]
    kmax = min(level, factors[-1].size - 1)
    for k in range(kmax + 1):
        mid = weight_space(factors, level + k)
        if mid.dim == 0:
            continue
        f_big = _lift_single(factors, level, len(factors) - 1,
                             _single_power(factors[-1], GEN_F, k), k)
        e_big = _lift_init(factors, level + k,
                           lambda b, k=k: _coproduct_power(init, b, GEN_E, k), -k)
        term = linalg.mat_scale(linalg.matmul(e_big, f_big),
                                _theta_coefficient(k))
        out = linalg.mat_add(out, linalg.mat_div(term, quantum_factorial(k)))
    return out


@lru_cache(maxsize=None)
def _theta_n(factors, level, form="left"):
    if len(factors) == 1:
        return linalg.identity(weight_space(factors, level).dim)
    if form == "left":
        rest = factors[1:]
        return linalg.matmul(
            _lift_rest(factors, level,
                       lambda b: _theta_n(rest, b, "left"), 0),
            _theta_piece_first(factors, level))
    init = factors[:-1]
    return linalg.matmul(
        _lift_init(factors, level,
                   lambda b: _theta_n(init, b, "right"), 0),
        _theta_piece_last(factors, level))


@lru_cache(maxsize=None)
def _tau_theta_direct(factors, level):
    """tau(Theta^(n)) evaluated as an element, by the reversed recursion

    tau(Theta^(n)) = (1 x Delta^{n-2})(tau Theta) . (1 x tau(Theta^(n-1)))
    with tau(Theta) = sum_k c_k (F q^h)^k x (q^-h E)^k.
    """
    src = weight_space(factors, level)
    if len(factors) == 1:
        return linalg.identity(src.dim)
    rest = factors[1:]
    piece = linalg.zeros(src.dim, src.dim)
    kmax = min(level, factors[0].size - 1)
    for k in range(kmax + 1):
        mid = weight_space(factors, level + k)
        if mid.dim == 0:
            continue
        taue_big = _lift_single(factors, level, 0,
                                _tau_e_power(factors[0], k), k)
        tauf_big = _lift_rest(factors, level + k,
                              lambda b, k=k: _coproduct_tau_f_power(rest, b, k),
                              -k)
        term = linalg.mat_scale(linalg.matmul(tauf_big, taue_big),
                                _theta_coefficient(k))
        piece = linalg.mat_add(piece,
                               linalg.mat_div(term, quantum_factorial(k)))
    sub = _lift_rest(factors, level,
                     lambda b: _tau_theta_direct(rest, b), 0)
    return linalg.matmul(piece, sub)


@lru_cache(maxsize=None)
def _cartan(factors, level):
    src = weight_space(factors, level)
    n = len(factors)
    entries = []
    for m in src.indices:
        w = src.factor_weights(m)
        expo = sum(w[i] * w[k] for i in range(n) for k in range(i + 1, n))
        entries.append(QScalar.v_power(expo))
    return linalg.diagonal(entries)


@lru_cache(maxsize=None)
def _cartan_piece_first(factors, level):
    # (1 x Delta^{n-2})(C) = q^{h_0 (h_1 + ... + h_{n-1}) / 2}
    src = weight_space(factors, level)
    entries = []
    for m in src.indices:
        w = src.factor_weights(m)
        entries.append(QScalar.v_power(w[0] * sum(w[1:])))
    return linalg.diagonal(entries)


@lru_cache(maxsize=None)
def _r_n(factors, level):
    """R^(n) by its own recursion, independent of the C^(n) Theta^(n) product."""
    if len(factors) == 1:
        return linalg.identity(weight_space(factors, level).dim)
    rest = factors[1:]
    piece = linalg.matmul(_cartan_piece_first(factors, level),
                          _theta_piece_first(factors, level))
    sub = _lift_rest(factors, level, lambda b: _r_n(rest, b), 0)
    return linalg.matmul(sub, piece)


# ---------------------------------------------------------------------------
# permutations and the commutativity isomorphisms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sigma0(factors, level):
    src = weight_space(factors, level)
    tgt = weight_space(factors[::-1], level)
    return linalg.Matrix((tgt.dim, src.dim),
                         [{tgt.pos[m[::-1]]: ONE} for m in src.indices])


@lru_cache(maxsize=None)
def _rcheck(factors, level, i):
    """P . C . Theta on factors (i, i+1): maps onto the swapped sequence."""
    src = weight_space(factors, level)
    swapped = factors[:i] + (factors[i + 1], factors[i]) + factors[i + 2:]
    tgt = weight_space(swapped, level)
    cols = [{} for _ in range(src.dim)]
    a, b = factors[i], factors[i + 1]
    kmax = min(level, a.size - 1, b.size - 1)
    for j, m in enumerate(src.indices):
        out = cols[j]
        for k in range(kmax + 1):
            ta = m[i] - k
            tb = m[i + 1] + k
            if ta < 0 or tb >= b.size:
                continue
            c = _single_power(a, GEN_E, k)[ta, m[i]] \
                * _single_power(b, GEN_F, k)[tb, m[i + 1]]
            if not c:
                continue
            coeff = exact_div(_theta_coefficient(k) * c, quantum_factorial(k))
            # Cartan factor at the Theta output, then swap the pair
            coeff = coeff * QScalar.v_power(a.weight(ta) * b.weight(tb))
            p = tgt.pos[m[:i] + (tb, ta) + m[i + 2:]]
            out[p] = out[p] + coeff if p in out else coeff
    return linalg.Matrix((tgt.dim, src.dim), cols)


def default_longest_word(n: int) -> tuple[int, ...]:
    """A reduced expression of the order-reversing permutation: bubble each
    factor to the front in turn."""
    word = []
    for a in range(1, n):
        word.extend(range(a - 1, -1, -1))
    return tuple(word)


def _validate_reduced(word, n):
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


@lru_cache(maxsize=None)
def _rcheck_longest(factors, level, word=None):
    n = len(factors)
    if word is None:
        word = default_longest_word(n)
    _validate_reduced(word, n)
    cur_factors = factors
    src = weight_space(factors, level)
    mat = linalg.identity(src.dim)
    for i in word:
        mat = linalg.matmul(_rcheck(cur_factors, level, i), mat)
        cur_factors = cur_factors[:i] + (cur_factors[i + 1], cur_factors[i]) \
            + cur_factors[i + 2:]
    return mat


@lru_cache(maxsize=None)
def _tau_theta_n_dual(dual_factors, level):
    """Matrix of tau(Theta^(n)) on a contragredient slice, two ways.

    (a) factorwise transposes: the transpose of Theta^(n) downstairs;
    (b) the braid product Rcheck^(n) (C^(n))^-1 sigma_0 built entirely from
        the contragredient factor matrices.
    """
    for f in dual_factors:
        if f.kind != "contragredient":
            raise ValueError(f"expected contragredient factors, got {f!r}")
    underlying = tuple(f.base for f in dual_factors)
    transpose_route = linalg.transpose(_theta_n(underlying, level))
    rev = dual_factors[::-1]
    braid_route = linalg.matmul(
        _rcheck_longest(rev, level),
        linalg.matmul(linalg.diagonal_inverse(_cartan(rev, level)),
                      _sigma0(dual_factors, level)))
    if not linalg.mat_eq(transpose_route, braid_route):
        raise CrossCheckFailureError(
            f"tau(Theta^(n)) transpose route disagrees with the braid route "
            f"on {dual_factors!r} at level {level}")
    return transpose_route


# ---------------------------------------------------------------------------
# public wrappers
# ---------------------------------------------------------------------------

def theta_matrix(factors, level) -> BraidOperator:
    """Theta on a two-factor slice."""
    factors = tuple(factors)
    if len(factors) != 2:
        raise ValueError("theta_matrix needs exactly two factors")
    ws = weight_space(factors, level)
    return BraidOperator(ws, ws, _theta_piece_first(factors, level), "theta")


def cartan_factor(factors, level) -> BraidOperator:
    """Diagonal multiplier v^(sum_{i<j} mu_i mu_j) on factor weights."""
    factors = tuple(factors)
    ws = weight_space(factors, level)
    return BraidOperator(ws, ws, _cartan(factors, level), "cartan")


def theta_n_matrix(factors, level, form="left") -> BraidOperator:
    factors = tuple(factors)
    ws = weight_space(factors, level)
    return BraidOperator(ws, ws, _theta_n(factors, level, form), "theta")


def r_n_matrix(factors, level) -> BraidOperator:
    factors = tuple(factors)
    ws = weight_space(factors, level)
    return BraidOperator(ws, ws, _r_n(factors, level), "r")


def sigma0_matrix(factors, level) -> BraidOperator:
    factors = tuple(factors)
    return BraidOperator(weight_space(factors, level),
                         weight_space(factors[::-1], level),
                         _sigma0(factors, level), "rcheck")


def rcheck_matrix(factors, level, i) -> BraidOperator:
    factors = tuple(factors)
    swapped = factors[:i] + (factors[i + 1], factors[i]) + factors[i + 2:]
    return BraidOperator(weight_space(factors, level),
                         weight_space(swapped, level),
                         _rcheck(factors, level, i), "rcheck")


def rcheck_longest(factors, level, word=None) -> BraidOperator:
    factors = tuple(factors)
    if word is not None:
        word = tuple(word)
    return BraidOperator(weight_space(factors, level),
                         weight_space(factors[::-1], level),
                         _rcheck_longest(factors, level, word), "rcheck")


def tau_theta_direct(factors, level) -> BraidOperator:
    """tau(Theta^(n)) acting on the given product, evaluated as an element."""
    factors = tuple(factors)
    ws = weight_space(factors, level)
    return BraidOperator(ws, ws, _tau_theta_direct(factors, level), "tau_theta")


def tau_theta_n(dual_factors, level) -> BraidOperator:
    """tau(Theta^(n)) on a contragredient slice, with the built-in cross-check."""
    dual_factors = tuple(dual_factors)
    ws = weight_space(dual_factors, level)
    return BraidOperator(ws, ws, _tau_theta_n_dual(dual_factors, level),
                         "tau_theta")
