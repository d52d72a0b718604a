"""Single-factor weight modules for quantum sl2.

A module here is a finite ordered basis of weight vectors together with exact
matrices for the generators E, F and q^{+-h}.  Basis slot m stands
for the divided-power vector F^(m) applied to the highest-weight vector (or
its dual functional, for contragredients), so slot m has weight lam - 2m.

Two kinds are supported:

* ``simple``: the (lam+1)-dimensional irreducible with highest weight lam >= 0.
  The ladder action on divided powers is

      E . slot m = [lam - m + 1] slot (m-1)        (slot 0 -> 0)
      F . slot m = [m + 1] slot (m+1)              (slot lam -> 0)
      q^h . slot m = q^(lam - 2m) slot m

  These coefficients follow from commuting E past F^m with
  [E, F] = (q^h - q^-h)/(q - q^-1) and dividing by [m]!; the expansion is
  re-derived symbolically in the test suite and frozen here.

* ``contragredient``: the restricted dual of another module, with the action
  twisted by the antiautomorphism tau (e <-> f, q^h fixed).  On the rewritten
  generators, tau(E) = F q^h and tau(F) = q^-h E, so the matrix of a generator
  g on the dual basis is the transpose of the matrix of tau(g) downstairs.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Sequence

from . import linalg
from .qring import QScalar, quantum_int

GEN_E = "E"
GEN_F = "F"
GEN_QH = "qh"
GEN_QH_INV = "qh_inv"

# Each Cartan generator as a v-exponent per unit of weight: q^h acts on a
# weight-w vector by v^(2w).
CARTAN_EXPONENT = {GEN_QH: 2, GEN_QH_INV: -2}


class NegativeWeightError(ValueError):
    """Simple modules need a nonnegative integer highest weight."""


class WeightModule(linalg.Frozen):
    """Immutable single factor with cached generator matrices."""

    __slots__ = ("kind", "highest_weight", "size", "base", "_mats")

    def __init__(self, kind: str, highest_weight: int, size: int,
                 mats: dict, base: "WeightModule | None" = None):
        self._freeze(kind=kind, highest_weight=highest_weight, size=size,
                     base=base, _mats=MappingProxyType(mats))

    def matrix(self, gen: str) -> linalg.Matrix:
        return self._mats[gen]

    def weight(self, slot: int) -> int:
        return self.highest_weight - 2 * slot

    def __reduce__(self):  # a copy is the cached instance, as for slices
        if self.kind == "contragredient":
            return contragredient, (self.base,)
        return make_simple, (self.highest_weight,)

    def __repr__(self):
        if self.kind == "contragredient":
            return f"({self.base!r})^c"
        return f"V({self.highest_weight})"


def _ladder_matrices(lam: int) -> dict:
    size = lam + 1
    e = [{} for _ in range(size)]
    f = [{} for _ in range(size)]
    for m in range(size):
        if m >= 1:
            e[m][m - 1] = quantum_int(lam - m + 1)
        if m + 1 < size:
            f[m][m + 1] = quantum_int(m + 1)
    mats = {gen: linalg.diagonal([QScalar.v_power(c * (lam - 2 * m))
                                  for m in range(size)])
            for gen, c in CARTAN_EXPONENT.items()}
    mats[GEN_E] = linalg.Matrix((size, size), e)
    mats[GEN_F] = linalg.Matrix((size, size), f)
    return mats


@lru_cache(maxsize=None)
def make_simple(lam: int) -> WeightModule:
    if lam < 0:
        raise NegativeWeightError(f"highest weight must be >= 0, got {lam}")
    return WeightModule("simple", lam, lam + 1, _ladder_matrices(lam))


@lru_cache(maxsize=None)
def contragredient(module: WeightModule) -> WeightModule:
    if module.kind == "contragredient":
        return module.base
    mats = module._mats
    # tau(E) = F q^h, tau(F) = q^-h E; the dual action of g is the transpose
    # of tau(g).  tau fixes the Cartan part, whose diagonals are symmetric.
    dual = {gen: mats[gen] for gen in CARTAN_EXPONENT}
    dual[GEN_E] = linalg.transpose(linalg.matmul(mats[GEN_F], mats[GEN_QH]))
    dual[GEN_F] = linalg.transpose(linalg.matmul(mats[GEN_QH_INV], mats[GEN_E]))
    return WeightModule("contragredient", module.highest_weight, module.size,
                        dual, base=module)


def simple_factors(lams: Sequence[int]) -> tuple[WeightModule, ...]:
    """V_{lam_1}, ..., V_{lam_n}."""
    return tuple(make_simple(x) for x in lams)


def dual_factors(lams: Sequence[int]) -> tuple[WeightModule, ...]:
    """The contragredients, carrying the dual monomial coordinates."""
    return tuple(contragredient(make_simple(x)) for x in lams)
