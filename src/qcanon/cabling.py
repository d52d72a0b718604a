"""Weight cabling: reduce arbitrary capacities to the unit-capacity case.

Refine each highest weight lam_i into lam_i copies of 1.  On modules this is
the embedding M_lam -> M_1^(x lam) sending the top vector to the pure tensor
of top vectors; its transpose on dual coordinates collapses the unit-weight
dual slice onto the lam-weight one by the monomials q^-inv that F^(a) gives
on the top tensor of V_1^(x x).  On diagrams: the blockwise `cable_diagram`.

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

from typing import Callable, Sequence

from . import linalg
from .canonical import BasisVector, dual_canonical_basis
from .diagrams import (ZeroBlockError, block_map, cable_diagram,
                       diagram_of_index, index_of_diagram)
from .qring import ONE, QScalar
from .rmatrix import BraidOperator
from .tensor import weight_space
from .weightmod import dual_factors


class StructuralMismatchError(AssertionError):
    """The algebraic collapse disagrees with the diagram collapse."""


def dual_cabling_matrix(lam: Sequence[int], level: int) -> BraidOperator:
    """The dual collapse from the unit-weight slice onto the lam-weight slice.

    Unit tuple mt reaches one row, the tuple a of its block sums, with entry
    q^-inv: inv counts the pairs j < i in one block with mt_j = 0, mt_i = 1.
    Per block, that is mt's coefficient in F^(a_i) on the top tensor of
    V_1^(x lam_i): F passes q^-h on the slots before it, so the slots left on
    top give q^-inv, and the orders of lowering give the [a_i]! divided out.
    """
    lam = tuple(lam)
    blocks = block_map(lam)  # validates positivity
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    total = sum(lam)
    if total < level:
        raise ValueError(f"level {level} exceeds the unit point count {total}")
    source = weight_space(dual_factors((1,) * total), level)
    target = weight_space(dual_factors(lam), level)
    cols = []
    for mt in source.indices:
        a, tops, inv = [0] * (len(lam) + 1), [0] * (len(lam) + 1), 0
        for b, t in zip(blocks, mt):  # b: the 1-based block of the point
            a[b] += t
            inv += t * tops[b]  # the top slots before it in its block
            tops[b] += 1 - t
        cols.append({target.pos[tuple(a[1:])]: QScalar.q_power(-inv)})
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


class CablingReport(linalg.Frozen):
    __slots__ = ("lam", "level", "outcomes", "all_unit_scalars",
                 "all_scalars_one")

    def __init__(self, lam: tuple[int, ...], level: int,
                 outcomes: tuple[CablingOutcome, ...], all_unit_scalars: bool,
                 all_scalars_one: bool):
        self._freeze(lam=lam, level=level, outcomes=outcomes,
                     all_unit_scalars=all_unit_scalars,
                     all_scalars_one=all_scalars_one)


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
