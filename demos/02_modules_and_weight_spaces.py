"""Weight modules, their contragredients, and tensor-product slices.

A simple module V_lam has basis slots 0..lam (slot m = divided power F^(m)
applied to the top vector, weight lam - 2m).  Tensor products are never
materialized: each weight slice carries its own index list and exact
generator matrices through the iterated coproduct.  A module stores no
matrix: `ladder(gen, m)` gives column m of E or F from a closed formula.
"""

from qcanon.common import enumerate_P
from qcanon.qring import ZERO
from qcanon.reference import coproduct_matrix
from qcanon.tensor import weight_space
from qcanon.weightmod import (GEN_E, GEN_F, contragredient, make_simple,
                              simple_factors)



def entry(module, gen, row, slot):
    """Row `row` of the ladder column that `gen` sends `slot` to."""
    return str(module.ladder(gen, slot).get(row, ZERO))


v2 = make_simple(2)
print("V_2 ladder matrices (columns act on slots 0, 1, 2):")
print("  E:", [[entry(v2, GEN_E, i, j) for j in range(3)] for i in range(3)])
print("  F:", [[entry(v2, GEN_F, i, j) for j in range(3)] for i in range(3)])

dual = contragredient(v2)
print("\nthe contragredient twists the action through tau (e <-> f):")
print("  E on (V_2)^c lifts dual slots:",
      entry(dual, GEN_E, 0, 1), ",", entry(dual, GEN_E, 1, 2))

lams = (2, 1)
fs = simple_factors(lams)
print("\nV_2 x V_1, slice by slice (level l has weight sum(lam) - 2l):")
for l in range(sum(lams) + 1):
    ws = weight_space(fs, l)
    print(f"  level {l}: weight {ws.weight:+d}, dim {ws.dim}, "
          f"indices {list(ws.indices)}")

print("\nindex sets agree with the bounded-tuple enumeration:")
print("  enumerate_P((2,1), 2) =", enumerate_P((2, 1), 2))

print("\nthe coproduct spreads F with q^-h tails (here on the top vector):")
f = coproduct_matrix(fs, 0, GEN_F)
tgt = weight_space(fs, 1)
for m in tgt.indices:
    print(f"  coefficient on {m}: {f[tgt.pos[m], 0]}")
