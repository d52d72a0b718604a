"""Single-factor weight modules for quantum sl2.

A module here is a finite ordered basis of weight vectors together with exact
matrices for the generators E, F, q^{+-h} and q^{+-h/2}.  Basis slot m stands
for the divided-power vector F^(m) applied to the highest-weight vector (or
its dual functional, for contragredients), so slot m has weight lam - 2m.

Three kinds are supported:

* ``simple``: the (lam+1)-dimensional irreducible with highest weight lam >= 0.
  The ladder action on divided powers is

      E . slot m = [lam - m + 1] slot (m-1)        (slot 0 -> 0)
      F . slot m = [m + 1] slot (m+1)              (slot lam -> 0)
      q^h . slot m = q^(lam - 2m) slot m

  These coefficients follow from commuting E past F^m with
  [E, F] = (q^h - q^-h)/(q - q^-1) and dividing by [m]!; the expansion is
  re-derived symbolically in the test suite and frozen here.

* ``verma``: the same formulas on slots 0..L for any integer highest weight,
  with F truncated past slot L.  Truncation is lossless for computations that
  never push past level L; callers size L to the levels they need.

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
from .qring import QScalar, quantum_factorial, quantum_int

GEN_E = "E"
GEN_F = "F"
GEN_QH = "qh"
GEN_QH_INV = "qh_inv"
GEN_QHALF = "qh2"
GEN_QHALF_INV = "qh2_inv"

# Each Cartan generator as a v-exponent per unit of weight: q^h acts on a
# weight-w vector by v^(2w), q^{h/2} by v^w.
CARTAN_EXPONENT = {GEN_QH: 2, GEN_QH_INV: -2, GEN_QHALF: 1, GEN_QHALF_INV: -1}


class NegativeWeightError(ValueError):
    """Simple modules need a nonnegative integer highest weight."""


class DimensionMismatchError(ValueError):
    """Vector length does not match the module dimension."""


class TruncationTooSmallError(ValueError):
    """A computation needs levels beyond the Verma truncation bound."""


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
        if self.kind == "simple":
            return make_simple, (self.highest_weight,)
        return make_verma_truncated, (self.highest_weight, self.size - 1)

    def __repr__(self):
        if self.kind == "contragredient":
            return f"({self.base!r})^c"
        tag = "V" if self.kind == "simple" else "M"
        extra = "" if self.kind == "simple" else f";L={self.size - 1}"
        return f"{tag}({self.highest_weight}{extra})"


def _ladder_matrices(lam: int, size: int) -> dict:
    e = [{} for _ in range(size)]
    f = [{} for _ in range(size)]
    for m in range(size):
        if m >= 1:
            e[m][m - 1] = quantum_int(lam - m + 1) if lam - m + 1 >= 0 \
                else -quantum_int(m - 1 - lam)
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
    return WeightModule("simple", lam, lam + 1, _ladder_matrices(lam, lam + 1))


@lru_cache(maxsize=None)
def make_verma_truncated(lam: int, level: int) -> WeightModule:
    if level < 0:
        raise ValueError(f"truncation level must be >= 0, got {level}")
    return WeightModule("verma", lam, level + 1, _ladder_matrices(lam, level + 1))


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


def apply_generator(module: WeightModule, word: Sequence,
                    vec: linalg.Vector) -> linalg.Vector:
    """Apply a word of generators right-to-left to an exact coordinate vector.

    Word items are either a generator name or a pair ``(name, k)`` meaning the
    divided power E^(k) = E^k/[k]! (likewise for F).
    """
    if vec.shape != (module.size, 1):
        raise DimensionMismatchError(
            f"vector of length {vec.shape[0]} on module of size {module.size}")
    for item in reversed(word):
        if isinstance(item, tuple):
            gen, k = item
            if gen not in (GEN_E, GEN_F) or k < 0:
                raise ValueError(f"bad divided power {item!r}")
            mat = module.matrix(gen)
            for _ in range(k):
                vec = linalg.matmul(mat, vec)
            vec = linalg.mat_div(vec, quantum_factorial(k))
        else:
            vec = linalg.matmul(module.matrix(item), vec)
    return vec


def shapovalov_embed(lam: int, level: int) -> linalg.Matrix:
    """The map V_lam -> (M_lam)^c fixed by sending the top vector to its dual.

    Column m is F^(m) applied to the top dual functional in the contragredient
    truncated Verma; the matrix has shape (level+1, lam+1).
    """
    if lam < 0:
        raise NegativeWeightError(f"highest weight must be >= 0, got {lam}")
    if level < lam:
        raise TruncationTooSmallError(
            f"need truncation level >= {lam}, got {level}")
    dual = contragredient(make_verma_truncated(lam, level))
    cols = []
    vec = linalg.unit_vector(level + 1, 0)
    fmat = dual.matrix(GEN_F)
    for m in range(lam + 1):
        cols.append(dict(linalg.mat_div(vec, quantum_factorial(m)).items()))
        if m < lam:
            vec = linalg.matmul(fmat, vec)
    return linalg.Matrix((level + 1, lam + 1), cols)
