"""Weight cabling: reduce arbitrary capacities to the unit-capacity case.

Refine each highest weight lam_i into lam_i copies of 1.  On modules this is
the embedding M_lam -> M_1^(x lam) sending the top vector to the pure tensor
of top vectors; on dual coordinates it transposes to a collapse map from the
unit-weight dual slice onto the lam-weight dual slice.  On diagrams it is the
blockwise projection of `cable_diagram`.

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
from typing import Sequence

from . import linalg
from .canonical import dual_canonical_basis
from .diagrams import (ZeroBlockError, block_map, cable_diagram,
                       diagram_of_index, index_of_diagram)
from .qring import ONE, QScalar, quantum_factorial
from .rmatrix import _coproduct_power
from .tensor import enumerate_P, weight_space
from .weightmod import GEN_F, make_verma_truncated


class StructuralMismatchError(AssertionError):
    """The algebraic collapse disagrees with the diagram collapse."""


class UnitEmbedding(linalg.Frozen):
    """M_lam -> M_1^(x lam) on levels 0..level, one column per level.

    Column m holds the coordinates of the image of F^(m) applied to the top
    vector, i.e. the divided coproduct power applied to the pure top tensor.
    """

    __slots__ = ("factor_weight", "level", "columns")

    def __init__(self, factor_weight: int, level: int,
                 columns: tuple[linalg.Vector, ...]):
        self._freeze(factor_weight=factor_weight, level=level, columns=columns)

    def target_space(self, m: int):
        unit = make_verma_truncated(1, self.level)
        return weight_space((unit,) * self.factor_weight, m)


def verma_unit_embedding(factor_weight: int, level: int) -> UnitEmbedding:
    if factor_weight < 1:
        raise ZeroBlockError(f"factor weight must be >= 1, got {factor_weight}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    factors = (make_verma_truncated(1, level),) * factor_weight
    # column 0 of the chain F^m from level 0 is F^m on the pure top tensor
    return UnitEmbedding(factor_weight, level, tuple(
        linalg.mat_div(_coproduct_power(factors, 0, (GEN_F,), m).col(0),
                       quantum_factorial(m)) for m in range(level + 1)))


class DualCablingMatrix(linalg.Frozen):
    """The transposed embedding between dual weight slices at one level.

    Rows run over the index tuples of the lam-weight slice, enumerate_P(lam,
    level): each column lands on the tuple of its block sums, which is
    componentwise <= lam.  Columns run over the unit-capacity index tuples.
    """

    __slots__ = ("lam", "level", "rows", "cols", "matrix")

    def __init__(self, lam: tuple[int, ...], level: int,
                 rows: tuple[tuple[int, ...], ...],
                 cols: tuple[tuple[int, ...], ...], matrix: linalg.Matrix):
        self._freeze(lam=lam, level=level, rows=rows, cols=cols, matrix=matrix)


def dual_cabling_matrix(lam: Sequence[int], level: int) -> DualCablingMatrix:
    lam = tuple(lam)
    block_map(lam)  # validates positivity
    total = sum(lam)
    if total < level:
        raise ValueError(f"level {level} exceeds the unit point count {total}")
    rows = tuple(enumerate_P(lam, level))
    cols = tuple(enumerate_P((1,) * total, level))
    embeddings = {x: verma_unit_embedding(x, level) for x in set(lam)}
    spaces = {x: [emb.target_space(m) for m in range(level + 1)]
              for x, emb in embeddings.items()}
    row_pos = {a: r for r, a in enumerate(rows)}
    out = [{} for _ in cols]
    starts = [0, *accumulate(lam)]
    for c, mt in enumerate(cols):
        # column mt reaches one row only: the tuple of its block sums
        blocks = [mt[s:t] for s, t in zip(starts, starts[1:])]
        a = tuple(sum(block) for block in blocks)
        val = ONE
        for x, ai, block in zip(lam, a, blocks):
            val = val * embeddings[x].columns[ai][spaces[x][ai].pos[block]]
        if val:
            out[c][row_pos[a]] = val
    return DualCablingMatrix(lam, level, rows, cols,
                             linalg.Matrix((len(rows), len(cols)), out))


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


def cabling_report(lam: Sequence[int], level: int) -> CablingReport:
    """Collapse every unit-weight dual canonical element and compare with the
    diagram collapse; raises StructuralMismatchError on any disagreement."""
    lam = tuple(lam)
    dcm = dual_cabling_matrix(lam, level)  # first: it rejects empty blocks
    unit = (1,) * sum(lam)
    source = dual_canonical_basis(unit, level)
    target = {b.index: b for b in dual_canonical_basis(lam, level)}
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
