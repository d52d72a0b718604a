"""Non-crossing arc diagrams with capacities: the combinatorial model.

A diagram lives on the marked points 0, z_1, ..., z_n on a line, with chords
drawn in the upper half plane.  Each chord carries one marked point, so a
diagram with l chords models a degree-l object.  The defining conditions are:

* chords do not cross (shared endpoints and parallel copies are fine, so the
  chord collection is a multiset);
* each z_p is an endpoint of at most lam_p chords; the origin is unbounded;
* if z_p is unsaturated (fewer than lam_p chords end there), no chord may
  pass over it.

A diagram's index is the tuple a with a_i = number of chords joining z_i to
any point on its left (the origin counts as a left endpoint; every chord's
right endpoint is some z_i, which is what makes the indices sum to l).  On
diagrams satisfying the conditions above this is a bijection onto the tuples
a with a_i <= lam_i and sum(a) = l, and the inverse is forced.  Sweep left
to right: z_j must close its a_j arcs on the nearest points that still have
free capacity, and only then on the origin; any other choice leaves an
unsaturated point under an arc, and no later chord can fill it without
crossing.  So one stack pass, `common.cup_bundles`, builds the diagram of an
index, and a slice is listed as the image of its index tuples.

Cabling refines every capacity into units: a diagram on sum(lam)
unit-capacity points collapses blockwise onto the lam-capacity points, dying
if any chord joins two points of the same block.

Only the chord multiset is identity: embeddings differing by nesting order of
parallel arcs are the same diagram, and marked points are never labeled.

The conditions are an invariant of the type: `ArcDiagram` checks them once,
in its constructor, and raises `InvalidDiagramError` on a violation, so every
function here may assume the diagram it is given is valid.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .common import Frozen, InvalidDiagramError, cup_bundles, enumerate_P


class NotInPError(ValueError):
    """The requested index tuple is outside the admissible set."""


class WeightMismatchError(ValueError):
    """Invariant filtering needs capacities summing to twice the arc count."""


class ZeroBlockError(ValueError):
    """Cabling blocks must have positive size."""


class ArcDiagram(Frozen):
    """Chords as a sorted tuple of (left, right) pairs on points 0..n,
    where n = len(capacities).  Valid by construction: the constructor raises
    `InvalidDiagramError` if the chords violate a diagram condition."""

    __slots__ = ("capacities", "chords")

    def __init__(self, capacities: Sequence[int],
                 chords: Iterable[tuple[int, int]]):
        self._freeze(capacities=tuple(capacities),
                     chords=tuple(sorted(tuple(c) for c in chords)))
        reason = validate_diagram(self.capacities, self.chords)
        if reason is not None:
            raise InvalidDiagramError(reason)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.capacities, self.chords) == (other.capacities, other.chords)

    def __hash__(self):
        return hash((self.capacities, self.chords))

    @property
    def n(self) -> int:
        return len(self.capacities)

    @property
    def arcs(self) -> int:
        return len(self.chords)

    def degree(self, p: int) -> int:
        return sum((i == p) + (j == p) for i, j in self.chords)

    def __repr__(self):
        return f"ArcDiagram(caps={self.capacities}, chords={list(self.chords)})"


def _crossing(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    (i, j), (k, l) = c1, c2
    return i < k < j < l or k < i < l < j


def validate_diagram(capacities: Sequence[int],
                     chords: Sequence[tuple[int, int]]) -> str | None:
    """The first violated condition, or None if the chords form a diagram."""
    n = len(capacities)
    degree = [0] * (n + 1)
    for i, j in chords:
        if not (0 <= i < j <= n):
            return f"bad chord endpoints ({i}, {j})"
        degree[i] += 1
        degree[j] += 1
    for p, cap in enumerate(capacities, start=1):
        if degree[p] > cap:
            return f"point z{p} exceeds its capacity {cap}"
    for a in range(len(chords)):
        for b in range(a + 1, len(chords)):
            if _crossing(chords[a], chords[b]):
                return f"chords {chords[a]} and {chords[b]} cross"
    for p, cap in enumerate(capacities, start=1):
        if degree[p] < cap:
            for i, j in chords:
                if i < p < j:
                    return f"chord ({i}, {j}) passes over unsaturated z{p}"
    return None


def enumerate_B(lam: Sequence[int], l: int) -> list[ArcDiagram]:
    """All valid diagrams with l chords, sorted by chords: the image of the
    index tuples `enumerate_P(lam, l)` under `diagram_of_index`."""
    return sorted((diagram_of_index(lam, a) for a in enumerate_P(lam, l)),
                  key=lambda d: d.chords)


def index_of_diagram(d: ArcDiagram) -> tuple[int, ...]:
    """a_i = number of chords joining z_i to a point on its left."""
    a = [0] * d.n
    for _, j in d.chords:
        a[j - 1] += 1
    return tuple(a)


def diagram_of_index(lam: Sequence[int], a: Sequence[int]) -> ArcDiagram:
    """The unique valid diagram with the given index tuple: the chord
    bundles of the stack pass `common.cup_bundles`, each expanded into its
    parallel copies."""
    lam = tuple(lam)
    a = tuple(a)
    if len(a) != len(lam) or any(x < 0 or x > c for x, c in zip(a, lam)):
        raise NotInPError(f"{a} is not an admissible index for {lam}")
    chords = []
    for i, j, c in cup_bundles(lam, a):
        chords += [(i, j)] * c
    return ArcDiagram(lam, chords)


def filter_singular(diagrams: Iterable[ArcDiagram]) -> list[ArcDiagram]:
    """Diagrams with no chord incident to the origin."""
    return [d for d in diagrams if all(i != 0 for i, _ in d.chords)]


def filter_invariant(diagrams: Iterable[ArcDiagram]) -> list[ArcDiagram]:
    """Diagrams with every point saturated; needs sum(lam) = 2l.

    Saturation forces every endpoint onto the z-points, so these are exactly
    the singular diagrams of a weight-zero slice: non-crossing perfect
    matchings with multiplicities.
    """
    out = []
    for d in diagrams:
        if sum(d.capacities) != 2 * d.arcs:
            raise WeightMismatchError(
                f"need sum(capacities) = 2*arcs, got {sum(d.capacities)} "
                f"vs {2 * d.arcs}")
        if all(d.degree(p) == d.capacities[p - 1] for p in range(1, d.n + 1)):
            out.append(d)
    return out


def block_map(lam: Sequence[int]) -> tuple[int, ...]:
    """Point p in 1..sum(lam) -> 1-based block index, in consecutive blocks."""
    out = []
    for b, size in enumerate(lam, start=1):
        if size <= 0:
            raise ZeroBlockError(f"block {b} has size {size}")
        out.extend([b] * size)
    return tuple(out)


def cable_diagram(d: ArcDiagram, lam: Sequence[int]) -> ArcDiagram | None:
    """Collapse a unit-capacity diagram blockwise; None if a chord dies.

    A chord joining two points of the same block has no image; otherwise
    chords map through the block projection (origin to origin) and the result
    is a valid diagram on the collapsed points.
    """
    lam = tuple(lam)
    if any(c != 1 for c in d.capacities):
        raise InvalidDiagramError("cabling input must have unit capacities")
    if d.n != sum(lam):
        raise InvalidDiagramError(
            f"diagram on {d.n} points cannot collapse to blocks of {lam}")
    blocks = (0,) + block_map(lam)  # the origin maps to the origin
    mapped = []
    for i, j in d.chords:
        bi, bj = blocks[i], blocks[j]
        if i >= 1 and bi == bj:
            return None
        mapped.append((bi, bj))
    return ArcDiagram(lam, tuple(mapped))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _sorted_instances(d: ArcDiagram) -> list[tuple[int, int, int]]:
    """Chord instances (i, j, copy); copies of a chord are numbered from 0."""
    seen: dict[tuple[int, int], int] = {}
    out = []
    for c in d.chords:
        k = seen.get(c, 0)
        seen[c] = k + 1
        out.append((c[0], c[1], k))
    return out


def _labels(n: int) -> list[str]:
    return ["0"] + [f"z{p}" for p in range(1, n + 1)]


def render_ascii(d: ArcDiagram) -> str:
    """Label line, then one row per chord: widest span first, dot at apex."""
    width = 5
    cols = [width * p for p in range(d.n + 1)]
    header = ""
    for p, lab in enumerate(_labels(d.n)):
        header = header.ljust(cols[p]) + lab
    rows = [header]
    order = sorted(_sorted_instances(d),
                   key=lambda t: (-(t[1] - t[0]), t[0], t[1], t[2]))
    for i, j, _ in order:
        left, right = cols[i], cols[j]
        mid = (left + right) // 2
        row = [" "] * (right + 1)
        row[left] = row[right] = "+"
        for x in range(left + 1, right):
            row[x] = "-"
        row[mid] = "*"
        rows.append("".join(row))
    return "\n".join(rows) + "\n"


def _svg_panel(d: ArcDiagram) -> tuple[int, int, list[str]]:
    step, margin = 60, 40
    base_y = 30 + 16 * (max((j - i) for i, j in d.chords) if d.chords else 1) \
        + 10 * max((d.chords.count(c) for c in d.chords), default=1)
    width = 2 * margin + step * d.n
    height = base_y + 30
    x = [margin + step * p for p in range(d.n + 1)]
    parts = [
        f'<line x1="{x[0] - 20}" y1="{base_y}" x2="{x[-1] + 20}" '
        f'y2="{base_y}" stroke="#888" stroke-width="1"/>',
    ]
    for p, lab in enumerate(_labels(d.n)):
        parts.append(f'<circle cx="{x[p]}" cy="{base_y}" r="3" fill="#000"/>')
        parts.append(f'<text x="{x[p]}" y="{base_y + 18}" font-size="12" '
                     f'text-anchor="middle">{lab}</text>')
    for i, j, copy in _sorted_instances(d):
        rx = (x[j] - x[i]) / 2
        ry = 14 * (j - i) + 9 * copy
        apex_x = (x[i] + x[j]) / 2
        apex_y = base_y - ry
        parts.append(
            f'<path d="M {x[i]} {base_y} A {rx} {ry} 0 0 1 {x[j]} {base_y}" '
            f'fill="none" stroke="#000" stroke-width="1.5"/>')
        parts.append(
            f'<circle cx="{apex_x}" cy="{apex_y}" r="3" fill="#c00"/>')
    return width, height, parts


def render_svg_many(diagrams: Sequence[ArcDiagram]) -> str:
    """Stack several diagrams vertically inside one SVG document: baseline
    points, elliptical arcs, one dot per arc."""
    panels = [_svg_panel(d) for d in diagrams]
    width = max((w for w, _, _ in panels), default=120)
    total = sum(h for _, h, _ in panels) or 40
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width}" height="{total}" viewBox="0 0 {width} {total}">']
    y = 0
    for _, h, parts in panels:
        out.append(f'<g transform="translate(0,{y})">')
        out.extend(parts)
        out.append("</g>")
        y += h
    out.append("</svg>")
    return "\n".join(out) + "\n"
