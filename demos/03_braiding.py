"""Quasi-R-matrices and the braiding operators, verified identities included.

R = C Theta with a diagonal Cartan factor and a unipotent Theta; the
commutativity isomorphism Rcheck = P R braids adjacent factors, and composing
along any reduced word of the order-reversing permutation gives the same
longest braiding.
"""

from qcanon import linalg
from qcanon.reference import (cartan_factor, r_n_matrix, rcheck_word,
                              sigma0_matrix)
from qcanon.rmatrix import (rcheck_longest, rcheck_matrix, theta_matrix,
                            theta_n_matrix)
from qcanon.weightmod import make_simple

fs = (make_simple(1), make_simple(1))
op = theta_matrix(fs, 1)
print("Theta on (V_1 x V_1) at level 1 (columns = source indices):")
for j, col_idx in enumerate(op.source.indices):
    column = op.matrix.col(j)  # sparse: only the stored nonzeros
    terms = {op.target.indices[i]: str(column[i]) for i in column.support()}
    print(f"  {col_idx} -> {terms}")

print("\nCartan factor on the top slice multiplies by v^(mu1 mu2):")
print("  C(u0 x u0) =", cartan_factor(fs, 0).matrix[0, 0], "* (u0 x u0)")

print("\nRcheck on a 1-dimensional slice is a monomial:")
print("  Rcheck at level 2:", rcheck_matrix(fs, 2, 0).matrix[0, 0])

fs3 = (make_simple(1), make_simple(1), make_simple(1))
print("\nthe braid relation on V_1 x V_1 x V_1 (two reduced words):")
for l in range(4):
    a = rcheck_word(fs3, l, (0, 1, 0)).matrix
    b = rcheck_word(fs3, l, (1, 0, 1)).matrix
    print(f"  level {l}: words (1,2,1) and (2,1,2) agree: {linalg.mat_eq(a, b)}")

print("\nfactorizations of the longest braiding at level 2:")
lhs = rcheck_longest(fs3, 2).matrix
rhs = linalg.matmul(sigma0_matrix(fs3, 2).matrix, r_n_matrix(fs3, 2).matrix)
print("  Rcheck^(3) = sigma0 . R^(3):", linalg.mat_eq(lhs, rhs))
rhs2 = linalg.matmul(cartan_factor(fs3, 2).matrix,
                     theta_n_matrix(fs3, 2).matrix)
print("  R^(3) = C^(3) . Theta^(3):",
      linalg.mat_eq(r_n_matrix(fs3, 2).matrix, rhs2))
