"""Tensor products of weight modules and their weight-space matrices.

The n-fold product is never materialized: all computation happens inside one
weight slice at a time.  A slice at level l (total weight sum(lam) - 2l) is
indexed by the tuples m = (m_1, ..., m_n) with sum(m) = l and each m_i inside
its factor, listed in ascending lexicographic order.  For simple factors this
index list is exactly the set of tuples bounded by the highest weights.

Generator actions are the iterated comultiplication

    E |-> sum_i  1 x ... x E_i x q^h x ... x q^h
    F |-> sum_i  q^-h x ... x q^-h x F_i x 1 x ... x 1

where each q^h flank is the scalar v^(2 w) on a factor of weight w.  E maps
level l to l-1 and F to l+1, so their matrices are rectangular between
adjacent slices.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from . import linalg
from .common import enumerate_P
from .qring import QScalar
from .weightmod import GEN_E, WeightModule


class WeightSpace(linalg.Frozen):
    """One immutable weight slice of a tensor product, with its monomial
    index list and the read-only map `pos` from index to position."""

    __slots__ = ("factors", "level", "weight", "indices", "pos")

    def __init__(self, factors: tuple[WeightModule, ...], level: int):
        indices = tuple(enumerate_P([f.size - 1 for f in factors], level))
        self._freeze(
            factors=factors, level=level, indices=indices,
            weight=sum(f.highest_weight for f in factors) - 2 * level,
            pos=MappingProxyType({m: i for i, m in enumerate(indices)}))

    @property
    def dim(self) -> int:
        return len(self.indices)

    def factor_weights(self, m: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(f.weight(mi) for f, mi in zip(self.factors, m))

    def __reduce__(self):  # a copy is the cached slice: slices hash by id
        return weight_space, (self.factors, self.level)

    def __repr__(self):
        return f"WeightSpace({list(self.factors)!r}, l={self.level}, dim={self.dim})"


@lru_cache(maxsize=None)
def weight_space(factors: tuple[WeightModule, ...], level: int) -> WeightSpace:
    return WeightSpace(factors, level)


def coproduct_target_level(level: int, gen: str) -> int:
    return level - 1 if gen == GEN_E else level + 1


def coproduct_matrix(factors: tuple[WeightModule, ...], level: int,
                     gen: str) -> linalg.Matrix:
    """Matrix of the iterated coproduct of E or F on one weight slice.

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
