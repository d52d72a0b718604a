"""Pieces shared by the command line, the diagram model and the ring layers.

This module imports nothing from qcanon, so the front end and `diagrams` can
use it without loading the ring code.  It holds the immutable base class,
the index tuples of a weight slice and their count, the exceptions the
command line maps to exit code 1, and the suite names and bound that
`verify --help` shows.
"""

from __future__ import annotations

from math import comb
from typing import Sequence


class InexactDivisionError(ArithmeticError):
    """A division that was expected to be exact left a remainder."""


class BarAsymmetryError(ValueError):
    """Input to the bar-equation solver is not bar-antisymmetric."""


class OddExponentError(ValueError):
    """Input has half-integer q-powers where only integer powers are legal."""


class NotReducedError(ValueError):
    """The supplied word is not a reduced expression of the reversal."""


class InvalidDiagramError(ValueError):
    """The chord multiset violates one of the diagram conditions."""


class Frozen:
    """Base of the immutable objects: matrices, weight slices, modules, arc
    diagrams, basis vectors, braid operators, cabling outcomes and reports,
    and check results.  ``_freeze`` sets each attribute once, in the
    constructor or when copy and pickle restore the slot state, and
    assigning or deleting one afterwards raises."""

    __slots__ = ()

    def _freeze(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state):  # (None, {slot: value})
        self._freeze(**state[1])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def enumerate_P(lam: Sequence[int], l: int) -> list[tuple[int, ...]]:
    """All tuples a with 0 <= a_i <= lam_i and sum(a) = l, in lex order.

    The prefixes grow one factor at a time, each entry at least what the
    later factors cannot hold, so every prefix kept has a completion."""
    if l == 0:  # the one tuple, without a copy per factor
        return [(0,) * len(lam)]
    rooms, room = [], 0  # sum(lam[i+1:]), for i from the last factor down
    for cap in reversed(lam):
        rooms.append(room)
        room += cap
    prefixes = [((), l)] if 0 <= l <= room else []
    for cap, after in zip(lam, reversed(rooms)):
        prefixes = [(p + (a,), rest - a) for p, rest in prefixes
                    for a in range(max(0, rest - after), min(cap, rest) + 1)]
    return [p for p, _ in prefixes]


def slice_dim(lam: Sequence[int], l: int) -> int:
    """len(enumerate_P(lam, l)), without listing the tuples.

    The count is the coefficient of x^l in prod_i (1 + x + ... + x^lam_i)
    = prod_i (1 - x^(lam_i + 1)) / (1 - x)^n.  The numerator is expanded
    only up to x^l, and x^m in 1/(1 - x)^n has coefficient C(m + n - 1,
    n - 1), so the cost depends on the factors with lam_i < l, not on the
    size of the slice.  The slice at l and at sum(lam) - l have the same
    size (a -> lam - a), so l is taken as the smaller of the two."""
    room = sum(lam)
    if not 0 <= l <= room:
        return 0
    l, n = min(l, room - l), len(lam)
    if n == 0:
        return 1
    numerator = {0: 1}  # exponent -> coefficient, exponents at most l
    for cap in lam:
        for e, c in list(numerator.items()):
            if e + cap < l:
                numerator[e + cap + 1] = numerator.get(e + cap + 1, 0) - c
    return sum(c * comb(l - e + n - 1, n - 1) for e, c in numerator.items())


#: The named suites of `verify`; "all" lists every check in run order, and
#: `verify.ALL_CHECKS` maps each of its names to `check_<name>`.
SUITE_ALIASES = {
    "all": ("golden_dual_basis", "yang_baxter", "braid_factorizations",
            "involutions", "solver_contract", "bijection_counts",
            "singular_bases", "catalan", "cabling", "duality"),
    "ybe": ("yang_baxter",),
    "braiding": ("yang_baxter", "braid_factorizations"),
    "basis": ("golden_dual_basis", "involutions", "solver_contract",
              "duality"),
    "diagrams": ("bijection_counts", "singular_bases", "catalan"),
    "cabling": ("cabling",),
}

#: The largest weight-sum bound a suite accepts: each step up costs about 4x.
MAX_WEIGHT_SUM = 8
