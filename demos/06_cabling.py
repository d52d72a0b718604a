"""Cabling: reduce arbitrary capacities to unit capacities and back.

Refining each weight lam_i into lam_i units embeds M_lam into a power of
M_1; the dual collapse map must kill exactly the unit-weight dual canonical
elements whose diagram joins two points of the same block, and send every
survivor onto the matching dual canonical element downstairs with scalar 1.
The report checks this element by element.
"""

from qcanon.cabling import cabling_report, dual_cabling_matrix
from qcanon.diagrams import block_map

print("block structure for capacities (2, 1):", block_map((2, 1)))

report = cabling_report((2,), 1)
print("\ncollapse of the unit model of V_2 at level 1:")
for o in report.outcomes:
    if o.killed:
        print(f"  {o.source}: killed (intra-block arc)")
    else:
        print(f"  {o.source}: -> b{o.target} with scalar {o.scalar}")

dcm = dual_cabling_matrix((2,), 1)
print("\nthe underlying dual collapse matrix (rows x cols):")
print("  rows:", list(dcm.target.indices),
      " cols:", list(dcm.source.indices))
print("  entries:", [[str(dcm.matrix[r, c]) for c in range(dcm.source.dim)]
                     for r in range(dcm.target.dim)])

print("\na mixed case, capacities (2, 2) at level 2:")
report = cabling_report((2, 2), 2)
killed = [o.source for o in report.outcomes if o.killed]
mapped = [(o.source, o.target) for o in report.outcomes if not o.killed]
print(f"  {len(killed)} killed, {len(mapped)} mapped, "
      f"all scalars 1: {report.all_scalars_one}")
for src, tgt in mapped:
    print(f"  {src} -> {tgt}")
