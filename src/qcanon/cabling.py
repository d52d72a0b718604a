"""Weight cabling: reduce arbitrary capacities to the unit-capacity case.

Refine each highest weight lam_i into lam_i copies of 1.  On modules this is
the embedding M_lam -> M_1^(x lam) sending the top vector to the pure tensor
of top vectors; its transpose on dual coordinates collapses the unit-weight
dual slice onto the lam-weight one, read from F^(a) on the top tensor of a
power of V_1.  On diagrams it is the blockwise projection of `cable_diagram`.

`cabling_report` runs both sides over every unit-weight dual canonical
element and insists they tell the same story: an element dies under the
algebraic collapse exactly when its diagram has an intra-block chord, and a
surviving element lands on the dual canonical element indexed by the
collapsed diagram, up to a scalar.  The expected scalar is 1; any other value
would signal a normalization subtlety, so scalars are recorded in the report
rather than assumed (a non-monomial-unit scalar is flagged).  A kill-pattern
or target-index disagreement is a hard failure.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

from . import linalg
from .canonical import BasisVector, dual_canonical_basis
from .diagrams import (ZeroBlockError, block_map, cable_diagram,
                       diagram_of_index, index_of_diagram)
from .qring import ONE, QScalar, quantum_factorial
from .rmatrix import BraidOperator, _coproduct_power
from .tensor import dual_factors, simple_factors, weight_space
from .weightmod import GEN_F


class StructuralMismatchError(AssertionError):
    """The algebraic collapse disagrees with the diagram collapse."""


def dual_cabling_matrix(lam: Sequence[int], level: int) -> BraidOperator:
    """The dual collapse from the unit-weight slice onto the lam-weight slice.

    Unit tuple mt reaches one row, the tuple a of its block sums, with the
    product over blocks of the block's coefficient in F^(a_i) on the top
    tensor of V_1^(x lam_i): F only raises slots and is [1] on slot 0 of V_1
    as of M_1, so these are the Verma coefficients of 0/1 tuples.
    """
    lam = tuple(lam)
    block_map(lam)  # validates positivity
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    total = sum(lam)
    if total < level:
        raise ValueError(f"level {level} exceeds the unit point count {total}")
    source = weight_space(dual_factors((1,) * total), level)
    target = weight_space(dual_factors(lam), level)
    starts = [0, *accumulate(lam)]
    columns = {}  # (x, a) -> F^(a) on the top tensor of V_1^(x x), its pos
    cols = []
    for mt in source.indices:
        blocks = [mt[s:t] for s, t in zip(starts, starts[1:])]
        a = tuple(map(sum, blocks))
        val = ONE
        for x, ai, block in zip(lam, a, blocks):
            if (x, ai) not in columns:
                units = simple_factors((1,) * x)
                col = _coproduct_power(units, 0, (GEN_F,), ai).col(0)
                if ai >= 2:  # [0]! = [1]! = 1
                    col = linalg.mat_div(col, quantum_factorial(ai))
                columns[x, ai] = (col, weight_space(units, ai).pos)
            col, pos = columns[x, ai]
            val = val * col[pos[block]]
        cols.append({target.pos[a]: val})  # Matrix drops a zero entry
    return BraidOperator(source, target,
                         linalg.Matrix((target.dim, source.dim), cols))


def is_monomial_unit(s: QScalar) -> bool:
    """The units of Z[v, v^-1] are the s with s * bar(s) = 1: +-v^e."""
    return s * s.bar() == ONE


class CablingOutcome(linalg.Frozen):
    __slots__ = ("source", "killed", "target", "scalar")

    def __init__(self, source: tuple[int, ...], killed: bool,
                 target: tuple[int, ...] | None = None,
                 scalar: QScalar | None = None):
        self._freeze(source=source, killed=killed, target=target, scalar=scalar)

    def to_json_dict(self) -> dict:
        if self.killed:
            return {"source": list(self.source), "killed": True}
        return {"source": list(self.source), "killed": False,
                "target": list(self.target),
                "scalar": self.scalar.to_pairs()}


class CablingReport(linalg.Frozen):
    __slots__ = ("lam", "level", "outcomes", "all_unit_scalars",
                 "all_scalars_one")

    def __init__(self, lam: tuple[int, ...], level: int,
                 outcomes: tuple[CablingOutcome, ...], all_unit_scalars: bool,
                 all_scalars_one: bool):
        self._freeze(lam=lam, level=level, outcomes=outcomes,
                     all_unit_scalars=all_unit_scalars,
                     all_scalars_one=all_scalars_one)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "level": self.level,
            "outcomes": [o.to_json_dict() for o in self.outcomes],
            "all_unit_scalars": self.all_unit_scalars,
            "all_scalars_one": self.all_scalars_one,
        }


def cabling_report(lam: Sequence[int], level: int,
                   solve: Callable[[Sequence[int], int],
                                   Sequence[BasisVector]] | None = None
                   ) -> CablingReport:
    """Collapse every unit-weight dual canonical element and compare with the
    diagram collapse; raises StructuralMismatchError on any disagreement.

    `solve(lams, level)` gives a slice's dual canonical basis; it defaults to
    `dual_canonical_basis`, and a caller that has solved the slices already
    passes its own reader.
    """
    if solve is None:
        solve = dual_canonical_basis
    lam = tuple(lam)
    dcm = dual_cabling_matrix(lam, level)  # first: it rejects empty blocks
    unit = (1,) * sum(lam)
    source = solve(unit, level)
    target = {b.index: b for b in solve(lam, level)}
    outcomes = []
    for b in source:
        x = linalg.matmul(dcm.matrix, b.coords)
        diagram = diagram_of_index(unit, b.index)
        collapsed = cable_diagram(diagram, lam)
        if collapsed is None:
            if not linalg.is_zero(x):
                raise StructuralMismatchError(
                    f"diagram of {b.index} dies under cabling but the "
                    f"algebraic image is nonzero on {lam} at level {level}")
            outcomes.append(CablingOutcome(b.index, killed=True))
            continue
        a = index_of_diagram(collapsed)
        s = x[target[a].space.pos[a]]
        if not s:
            raise StructuralMismatchError(
                f"diagram of {b.index} survives cabling but the algebraic "
                f"image misses its target {a} on {lam} at level {level}")
        expected = linalg.mat_scale(target[a].coords, s)
        if not linalg.mat_eq(x, expected):
            raise StructuralMismatchError(
                f"image of {b.index} is not proportional to the dual "
                f"canonical element {a} on {lam} at level {level}")
        outcomes.append(CablingOutcome(b.index, killed=False, target=a,
                                       scalar=s))
    mapped = [o for o in outcomes if not o.killed]
    return CablingReport(
        lam, level, tuple(outcomes),
        all_unit_scalars=all(is_monomial_unit(o.scalar) for o in mapped),
        all_scalars_one=all(o.scalar == ONE for o in mapped))
