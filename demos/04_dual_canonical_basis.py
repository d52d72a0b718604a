"""The bar-involution fixed point: canonical and dual canonical bases.

The involution psi_c = tau(Theta^(n)) . bar is unipotent triangular on dual
monomials, so each basis vector is the monomial plus corrections at larger
indices, with every correction coefficient in q^-1 Z[q^-1].  The dual basis
comes from the closed diagram formula and is certified as that fixed point
through the factors of Theta^(n).  The canonical basis on the plain side is
dual to it: the inverse transpose of the dual basis, one descending scan
per element, certified as the fixed point of bar(Theta) . bar.
"""

from qcanon.canonical import (canonical_basis_pair, dual_canonical_basis,
                              is_involution, psi_c, singular_subset)

print("dual canonical basis of (V_1 x V_1) at level 1:")
for b in dual_canonical_basis((1, 1), 1):
    print(f"  {b}")

print("\nthe canonical basis on the plain side pairs to the identity:")
for b in canonical_basis_pair((1, 1), 1):
    print(f"  {b}")

print("\na richer slice, (V_2 x V_2) at level 2:")
basis = dual_canonical_basis((2, 2), 2)
singular = singular_subset(basis)
for b in basis:
    marker = "  <- singular" if b in singular else ""
    print(f"  {b}{marker}")

print("\nsingular members (E-kernel), count certified by rank at q = 1:")
print("  indices:", [b.index for b in singular])

print("\npsi_c really is an involution here:",
      is_involution(psi_c((2, 2), 2)))
