"""Weight slices of tensor products of weight modules.

The n-fold product is never materialized: all computation happens inside one
weight slice at a time.  A slice at level l (total weight sum(lam) - 2l) is
indexed by the tuples m = (m_1, ..., m_n) with sum(m) = l and each m_i inside
its factor, listed in ascending lexicographic order.  For simple factors this
index list is exactly the set of tuples bounded by the highest weights.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from . import linalg
from .common import enumerate_P
from .weightmod import WeightModule


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
