"""The combinatorial model: non-crossing arc diagrams with capacities.

Diagrams on the points 0, z_1, ..., z_n biject with the index tuples of the
dual canonical basis; origin-avoiding diagrams pick out the singular basis
elements, and fully saturated unit-capacity diagrams are Catalan-counted
matchings.
"""

from qcanon.common import enumerate_P
from qcanon.diagrams import (diagram_of_index, enumerate_B, filter_invariant,
                             filter_singular, index_of_diagram, render_ascii)

lam, l = (2, 1), 2
print(f"all diagrams for capacities {lam} with {l} arcs:")
for d in enumerate_B(lam, l):
    print(f"  chords {list(d.chords)}  ->  index {index_of_diagram(d)}")

print("\nindex -> diagram is the inverse (greedy strip/re-attach):")
for a in enumerate_P(lam, l):
    print(f"  {a} -> {list(diagram_of_index(lam, a).chords)}")

print("\nascii rendering (one dot per arc):")
print(render_ascii(diagram_of_index((1, 1, 1, 1), (0, 1, 0, 1))))

print("origin-avoiding (singular) diagrams for (1,1,1,1) at level 2:")
for d in filter_singular(enumerate_B((1, 1, 1, 1), 2)):
    print(f"  {list(d.chords)}")

print("\nsaturated diagrams of weight zero are Catalan-counted:")
for ll in range(1, 5):
    count = len(filter_invariant(enumerate_B((1,) * (2 * ll), ll)))
    print(f"  2l = {2 * ll} points: {count}")
