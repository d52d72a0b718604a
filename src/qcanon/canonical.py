"""Canonical and dual canonical bases via the bar-involution fixed point.

On a contragredient slice the involution is

    psi_c(x) = tau(Theta^(n)) . bar(x),

where bar acts coefficientwise on dual monomial coordinates (the dual
monomials are bar-fixed because divided powers have bar-invariant
coefficients).  The matrix of tau(Theta^(n)) is unipotent lower triangular in
ascending lexicographic index order, so psi_c(e_m) = e_m + (terms at k > m).

The dual canonical basis is the unique family b_m = e_m + sum_{k>m} c_k e_k
fixed by psi_c with every off-lead coefficient in q^-1 Z[q^-1].  The solver
walks the indices in decreasing lexicographic order: the defect
psi_c(e_m) - e_m re-expressed over the already-built b_k has bar-antisymmetric
coefficients rho_k, and c_k = solve_bar_equation(rho_k) is the unique ideal
element with c_k - bar(c_k) = rho_k.  Triangularity is asserted, not assumed:
a defect at an index <= m aborts the run, so a convention error surfaces as a
loud failure instead of silent garbage.

On the plain (non-dual) side of a two-factor product the same construction
with psi(x) = bar(Theta) . bar(x) produces the canonical basis; there the
corrections run toward lexicographically smaller indices, so the solver walks
upward instead.

Singular vectors (killed by the coproduct E) are recognized exactly, and
`singular_subset` checks its count against an independent fraction-free rank
computation -- a disagreement is a falsification signal and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .qring import ONE, QScalar, in_qinv_ideal, solve_bar_equation
from .rmatrix import tau_theta_n, theta_matrix
from .tensor import (WeightSpace, coproduct_matrix, dual_factors,
                     simple_factors, weight_space)
from .weightmod import GEN_E


class TriangularityViolationError(AssertionError):
    """The involution is not unipotent triangular in the expected direction."""


class CountMismatchError(AssertionError):
    """A basis subset count disagrees with an independent rank computation."""


@dataclass(frozen=True)
class AntilinearMap:
    """x -> matrix . bar(x) on a fixed weight slice."""
    space: WeightSpace
    matrix: linalg.Matrix

    def apply(self, vec: linalg.Vector) -> linalg.Vector:
        return linalg.matmul(self.matrix, linalg.mat_bar(vec))

    def is_involution(self) -> bool:
        composed = linalg.matmul(self.matrix, linalg.mat_bar(self.matrix))
        return linalg.mat_eq(composed, linalg.identity(self.space.dim))


@dataclass(frozen=True)
class BasisVector:
    """One basis element, as exact coordinates over (dual) monomials."""
    index: tuple[int, ...]
    space: WeightSpace
    coords: linalg.Vector

    def coeff(self, k: tuple[int, ...]) -> QScalar:
        return self.coords[self.space.pos[k]]

    def support(self) -> list[tuple[int, ...]]:
        """Indices with a nonzero coefficient, ascending."""
        return [self.space.indices[i] for i in self.coords.support()]

    def __repr__(self):
        parts = []
        for i in self.coords.support():
            text = str(self.coords[i])
            if " " in text:
                text = f"({text})"
            parts.append(f"{text}*{self.space.indices[i]}")
        return f"b{self.index} = " + " + ".join(parts)


def psi_c(lams: Sequence[int], level: int) -> AntilinearMap:
    """The involution tau(Theta^(n)) . bar on the contragredient slice."""
    fs = dual_factors(lams)
    return AntilinearMap(weight_space(fs, level),
                         tau_theta_n(fs, level).matrix)


def psi_tensor2(lams: Sequence[int], level: int) -> AntilinearMap:
    """The involution bar(Theta) . bar on a plain two-factor slice."""
    if len(lams) != 2:
        raise ValueError("psi_tensor2 needs exactly two factors")
    fs = simple_factors(lams)
    return AntilinearMap(weight_space(fs, level),
                         linalg.mat_bar(theta_matrix(fs, level).matrix))


def _solve_triangular(anti: AntilinearMap, descending: bool) -> list[BasisVector]:
    """Shared fixed-point recursion; `descending` picks the processing order
    (decreasing lex for the dual basis, increasing for the canonical one)."""
    space = anti.space
    dim = space.dim
    order = range(dim - 1, -1, -1) if descending else range(dim)
    built: dict[int, linalg.Vector] = {}
    for p in order:
        lead = space.unit_vector(space.indices[p])
        delta = linalg.Accumulator(anti.matrix.col(p))
        delta.add(-ONE, lead)
        for k in delta.support():
            if (k <= p) if descending else (k >= p):
                raise TriangularityViolationError(
                    f"defect of {space.indices[p]} touches "
                    f"{space.indices[k]} on {space!r}")
        peel = range(p + 1, dim) if descending else range(p - 1, -1, -1)
        vec = linalg.Accumulator(lead)
        for k in peel:
            # a fresh scalar: the update below zeroes row k of delta itself
            rho = delta[k]
            if not rho:
                continue
            c = solve_bar_equation(rho)
            delta.add(-rho, built[k])
            vec.add(c, built[k])
        assert not delta.support()
        vec = vec.freeze()
        if not linalg.mat_eq(anti.apply(vec), vec):
            raise TriangularityViolationError(
                f"fixed-point defect at {space.indices[p]} on {space!r}")
        assert all(in_qinv_ideal(c) for k, c in vec.items() if k != p)
        built[p] = vec
    return [BasisVector(space.indices[p], space, built[p])
            for p in range(dim)]


def dual_canonical_basis(lams: Sequence[int], level: int) -> list[BasisVector]:
    """The psi_c-fixed, lex-unipotent basis of the dual weight slice.

    Returned in ascending lexicographic index order.  Every off-lead
    coefficient lies in q^-1 Z[q^-1] and the support of b_m sits at indices
    >= m (with the factor bounds of the simple modules respected by
    construction).
    """
    return _solve_triangular(psi_c(lams, level), descending=True)


def canonical_basis_pair(lams: Sequence[int], level: int) -> list[BasisVector]:
    """The psi-fixed basis of a two-factor product of simple modules.

    Corrections to the leading monomial run toward lexicographically smaller
    indices, which for two factors means the anti-diagonal shifts
    (i, j) -> (i - k, j + k) with k > 0 only.
    """
    basis = _solve_triangular(psi_tensor2(lams, level), descending=False)
    for b in basis:
        i, j = b.index
        for k in b.support():
            if k == b.index:
                continue
            shift = b.index[0] - k[0]
            if shift <= 0 or k != (i - shift, j + shift):
                raise TriangularityViolationError(
                    f"support {k} of {b.index} outside the k>0 shift family")
    return basis


def is_singular(b: BasisVector) -> bool:
    """True iff the coproduct E annihilates the basis vector."""
    e = coproduct_matrix(b.space.factors, b.space.level, GEN_E)
    return linalg.is_zero(linalg.matmul(e, b.coords))


def singular_subset(basis: list[BasisVector]) -> list[BasisVector]:
    """The singular members, with an independent E-kernel dimension check."""
    if not basis:
        return []
    space = basis[0].space
    subset = [b for b in basis if is_singular(b)]
    e = coproduct_matrix(space.factors, space.level, GEN_E)
    expected = linalg.kernel_dimension(e)
    if len(subset) != expected:
        raise CountMismatchError(
            f"{len(subset)} singular basis elements but ker E has dimension "
            f"{expected} on {space!r}")
    return subset
