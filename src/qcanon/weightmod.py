"""Single-factor weight modules for quantum sl2.

A module here is its kind and its highest weight lam; it acts by closed
ladder formulas, so nothing is stored per slot.  Basis slot m stands for the
divided-power vector F^(m) applied to the highest-weight vector (or its dual
functional, for contragredients), so slot m has weight lam - 2m and q^h acts
on it by q^(lam - 2m).  `ladder` returns one column of E or F.

Two kinds are supported:

* ``simple``: the (lam+1)-dimensional irreducible with highest weight lam >= 0.
  The ladder action on divided powers is

      E . slot m = [lam - m + 1] slot (m-1)        (slot 0 -> 0)
      F . slot m = [m + 1] slot (m+1)              (slot lam -> 0)

  These coefficients follow from commuting E past F^m with
  [E, F] = (q^h - q^-h)/(q - q^-1) and dividing by [m]!; the expansion is
  re-derived symbolically in the test suite and frozen here.

* ``contragredient``: the restricted dual of a simple module, with the action
  twisted by the antiautomorphism tau (e <-> f, q^h fixed).  On the rewritten
  generators, tau(E) = F q^h and tau(F) = q^-h E, and a generator g acts on
  the dual basis by the transpose of tau(g) downstairs:

      E . slot m = [m] q^(lam - 2m + 2) slot (m-1)     (slot 0 -> 0)
      F . slot m = [lam - m] q^(2m - lam) slot (m+1)   (slot lam -> 0)

  The tests rebuild these as the transposes of F q^h and q^-h E.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .common import Frozen
from .qring import QScalar

GEN_E = "E"
GEN_F = "F"


class NegativeWeightError(ValueError):
    """Simple modules need a nonnegative integer highest weight."""


def _shifted_quantum_int(k: int, e: int) -> QScalar:
    """[k] q^e, built as one dict: v-exponents 2(k - 1 - 2i + e), i < k."""
    top = 2 * (k - 1 + e)
    return QScalar._raw({top - 4 * i: 1 for i in range(k)})


class WeightModule(Frozen):
    """Immutable single factor: its kind and highest weight."""

    __slots__ = ("kind", "highest_weight")

    def __init__(self, kind: str, highest_weight: int):
        self._freeze(kind=kind, highest_weight=highest_weight)

    @property
    def size(self) -> int:
        return self.highest_weight + 1

    def weight(self, slot: int) -> int:
        return self.highest_weight - 2 * slot

    def ladder(self, gen: str, slot: int) -> dict:
        """Column `slot` of E or F as {target slot: coefficient}."""
        lam, dual = self.highest_weight, self.kind == "contragredient"
        if gen == GEN_E:
            if slot == 0:
                return {}
            k, e = (slot, lam - 2 * slot + 2) if dual else (lam - slot + 1, 0)
            return {slot - 1: _shifted_quantum_int(k, e)}
        if slot == lam:
            return {}
        k, e = (lam - slot, 2 * slot - lam) if dual else (slot + 1, 0)
        return {slot + 1: _shifted_quantum_int(k, e)}

    def __reduce__(self):  # a copy is the cached instance, as for slices
        if self.kind == "contragredient":
            return contragredient, (make_simple(self.highest_weight),)
        return make_simple, (self.highest_weight,)

    def __repr__(self):
        if self.kind == "contragredient":
            return f"(V({self.highest_weight}))^c"
        return f"V({self.highest_weight})"


@lru_cache(maxsize=None)
def make_simple(lam: int) -> WeightModule:
    if lam < 0:
        raise NegativeWeightError(f"highest weight must be >= 0, got {lam}")
    return WeightModule("simple", lam)


@lru_cache(maxsize=None)
def contragredient(module: WeightModule) -> WeightModule:
    if module.kind == "contragredient":  # V^cc = V
        return make_simple(module.highest_weight)
    return WeightModule("contragredient", module.highest_weight)


def simple_factors(lams: Sequence[int]) -> tuple[WeightModule, ...]:
    """V_{lam_1}, ..., V_{lam_n}."""
    return tuple(make_simple(x) for x in lams)


def dual_factors(lams: Sequence[int]) -> tuple[WeightModule, ...]:
    """The contragredients, carrying the dual monomial coordinates."""
    return tuple(contragredient(make_simple(x)) for x in lams)
