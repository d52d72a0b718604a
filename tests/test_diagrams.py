import itertools

import pytest

from qcanon.common import cup_bundles
from qcanon.diagrams import (ArcDiagram, InvalidDiagramError, NotInPError,
                             WeightMismatchError, ZeroBlockError, _crossing,
                             cable_diagram, diagram_of_index, enumerate_B,
                             filter_invariant, filter_singular,
                             index_of_diagram, render_ascii, render_svg_many,
                             validate_diagram)
from qcanon.tensor import enumerate_P
from qcanon.verify import search_diagrams, weight_slices


def diag(lam, chords):
    return ArcDiagram(tuple(lam), tuple(chords))


def small_lams(max_sum):
    for n in range(1, max_sum + 1):
        for lam in itertools.product(range(1, max_sum + 1), repeat=n):
            if sum(lam) <= max_sum:
                yield lam


def capacities_with_zeros(max_n=4):
    """Every capacity tuple over {0, 1, 2} with at most max_n points."""
    for n in range(max_n + 1):
        yield from itertools.product(range(3), repeat=n)


class TestValidate:
    def test_pass_over_unsaturated(self):
        assert "passes over" in validate_diagram((1, 1), [(0, 2)])

    def test_simple_valid(self):
        assert validate_diagram((1, 1), [(1, 2)]) is None

    def test_nesting_at_origin_allowed(self):
        assert validate_diagram((1, 1), [(0, 1), (0, 2)]) is None

    def test_capacity(self):
        assert "capacity" in validate_diagram((1, 1), [(0, 1), (0, 1)])

    def test_crossing(self):
        assert "cross" in validate_diagram((1, 1, 1, 1), [(1, 3), (2, 4)])

    def test_crossing_matches_sorted_definition(self):
        # the chords sorted first, then one interleaving test
        def reference(c1, c2):
            (i, j), (k, l) = sorted((c1, c2))
            return i < k < j < l

        chords = list(itertools.combinations(range(9), 2))
        for c1, c2 in itertools.product(chords, repeat=2):
            assert _crossing(c1, c2) == reference(c1, c2), (c1, c2)

    def test_doubled_arc_allowed(self):
        assert validate_diagram((2, 2), [(1, 2), (1, 2)]) is None

    def test_zero_capacity_is_transparent(self):
        # a saturated-by-zero point may be passed over
        assert validate_diagram((1, 0, 1), [(1, 3)]) is None

    def test_constructor_rejects_crossing(self):
        with pytest.raises(InvalidDiagramError, match="cross"):
            ArcDiagram((1, 1, 1, 1), ((1, 3), (2, 4)))

    def test_constructor_rejects_pass_over(self):
        with pytest.raises(InvalidDiagramError, match="passes over"):
            ArcDiagram((1, 1), ((0, 2),))

    @pytest.mark.parametrize("caps, chords, message", [
        ((1, 1), ((2, 1),), "bad chord endpoints (2, 1)"),
        ((1, 1), ((0, 1), (0, 1)), "point z1 exceeds its capacity 1"),
        ((1, 1, 1, 1), ((2, 4), (1, 3)), "chords (1, 3) and (2, 4) cross"),
        ((1, 1), ((0, 2),), "chord (0, 2) passes over unsaturated z1"),
    ])
    def test_constructor_messages(self, caps, chords, message):
        with pytest.raises(InvalidDiagramError) as info:
            ArcDiagram(caps, chords)
        assert str(info.value) == message


class TestValueSemantics:
    def test_chord_order_does_not_matter(self):
        a = ArcDiagram((2, 2, 2), ((0, 1), (1, 2), (2, 3)))
        b = ArcDiagram([2, 2, 2], [[2, 3], (0, 1), (1, 2)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.chords == ((0, 1), (1, 2), (2, 3))
        assert a.capacities == (2, 2, 2)

    def test_capacities_count(self):
        assert ArcDiagram((1, 1), ((1, 2),)) != ArcDiagram((1, 2), ((1, 2),))

    def test_unequal_to_other_types(self):
        d = ArcDiagram((1, 1), ((1, 2),))
        assert d != ((1, 1), ((1, 2),))
        assert d != d.chords


class TestEnumerate:
    def test_l1(self):
        got = enumerate_B((1, 1), 1)
        assert {d.chords for d in got} == {((0, 1),), ((1, 2),)}

    def test_l2(self):
        got = enumerate_B((1, 1), 2)
        assert [d.chords for d in got] == [((0, 1), (0, 2))]

    def test_unit_four(self):
        assert len(enumerate_B((1, 1, 1, 1), 2)) == 6

    def test_deterministic_order(self):
        a = enumerate_B((2, 1, 1), 2)
        b = enumerate_B((2, 1, 1), 2)
        assert a == b and a == sorted(a, key=lambda d: d.chords)

    def test_counts_match_index_sets(self):
        for lam in small_lams(6):
            for l in range(sum(lam) + 1):
                assert len(search_diagrams(lam, l)) == \
                    len(enumerate_P(lam, l))


def search_by_pairwise_crossings(lam, l):
    """The chord search as it was before the crossing bitmasks: every node
    tests the next chord against each chosen one, and each complete
    candidate is validated, then built."""
    lam = tuple(lam)
    n = len(lam)
    alphabet = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    out = []
    degrees = [0] * (n + 1)

    def chord_cap(c):
        i, j = c
        cap = lam[j - 1] - degrees[j]
        if i >= 1:
            cap = min(cap, lam[i - 1] - degrees[i])
        return cap

    def rec(pos, remaining, chosen):
        if remaining == 0:
            if validate_diagram(lam, chosen) is None:
                out.append(ArcDiagram(lam, tuple(chosen)))
            return
        if pos == len(alphabet):
            return
        c = alphabet[pos]
        crosses = any(_crossing(c, other) for other in chosen)
        top = 0 if crosses else min(remaining, chord_cap(c))
        rec(pos + 1, remaining, chosen)
        for mult in range(1, top + 1):
            chosen.extend([c] * mult)
            degrees[c[0]] += mult
            degrees[c[1]] += mult
            rec(pos + 1, remaining - mult, chosen)
            degrees[c[0]] -= mult
            degrees[c[1]] -= mult
            del chosen[len(chosen) - mult:]

    rec(0, l, [])
    return sorted(out, key=lambda d: d.chords)


def test_search_matches_pairwise_crossing_search():
    for lam, l in itertools.chain(
            weight_slices(6),
            ((lam, l) for lam in capacities_with_zeros()
             for l in range(sum(lam) + 1))):
        assert search_diagrams(lam, l) == search_by_pairwise_crossings(lam, l)


class TestIndexBijection:
    def test_examples(self):
        assert index_of_diagram(diag((1, 1), [(0, 1)])) == (1, 0)
        assert index_of_diagram(diag((1, 1), [(1, 2)])) == (0, 1)
        assert index_of_diagram(diag((1, 1), [(0, 1), (0, 2)])) == (1, 1)

    def test_inverse_examples(self):
        assert diagram_of_index((1, 1), (0, 1)).chords == ((1, 2),)
        assert diagram_of_index((2,), (1,)).chords == ((0, 1),)

    def test_capacity_far_beyond_memory(self):
        # the free units are kept as runs: a capacity of 10^15 costs no more
        # than a capacity of 3
        big = 10**15
        assert diagram_of_index((big,), (2,)).chords == ((0, 1), (0, 1))
        d = diagram_of_index((big, 3, big), (0, 3, 2))
        assert d.chords == ((1, 2), (1, 2), (1, 2), (1, 3), (1, 3))
        assert index_of_diagram(d) == (0, 3, 2)

    @pytest.mark.parametrize("lam, a, bundles", [
        # one run split over two later points
        ((10**15, 3, 10**15), (0, 3, 2), [(1, 2, 3), (1, 3, 2)]),
        # no free unit anywhere: every arc closes on the origin, one bundle
        # per point
        ((1, 2), (1, 2), [(0, 1, 1), (0, 2, 2)])],
        ids=["split_run", "origin_runs"])
    def test_cup_bundles(self, lam, a, bundles):
        assert cup_bundles(lam, a) == bundles

    def test_round_trip_and_bijectivity(self):
        for lam in itertools.chain(small_lams(6), capacities_with_zeros()):
            for l in range(sum(lam) + 1):
                diagrams = search_diagrams(lam, l)
                indices = [index_of_diagram(d) for d in diagrams]
                assert sorted(indices) == enumerate_P(lam, l)
                for d, a in zip(diagrams, indices):
                    assert diagram_of_index(lam, a) == d
                assert enumerate_B(lam, l) == diagrams

    def test_not_in_p(self):
        with pytest.raises(NotInPError):
            diagram_of_index((1, 1), (2, 0))
        with pytest.raises(NotInPError):
            diagram_of_index((1, 1), (1,))

    def test_invalid_diagram_rejected(self):
        with pytest.raises(InvalidDiagramError):
            index_of_diagram(diag((1, 1), [(0, 2)]))


class TestFilters:
    def test_singular_examples(self):
        assert [d.chords for d in filter_singular(enumerate_B((1, 1), 1))] \
            == [((1, 2),)]
        assert filter_singular(enumerate_B((1, 1), 2)) == []
        doubled = filter_singular(enumerate_B((2, 2), 2))
        assert diag((2, 2), [(1, 2), (1, 2)]) in doubled

    def test_invariant_examples(self):
        assert len(filter_invariant(enumerate_B((1, 1), 1))) == 1
        assert {d.chords for d in filter_invariant(enumerate_B((1,) * 4, 2))} \
            == {((1, 2), (3, 4)), ((1, 4), (2, 3))}
        assert len(filter_invariant(enumerate_B((1,) * 6, 3))) == 5

    def test_invariant_weight_guard(self):
        with pytest.raises(WeightMismatchError):
            filter_invariant(enumerate_B((1, 1), 1) + enumerate_B((1, 1), 0))

    def test_catalan(self):
        for l, cat in [(1, 1), (2, 2), (3, 5), (4, 14)]:
            assert len(filter_invariant(enumerate_B((1,) * (2 * l), l))) == cat


class TestCabling:
    def test_intra_block_dies(self):
        assert cable_diagram(diag((1, 1), [(1, 2)]), (2,)) is None

    def test_origin_arc_survives(self):
        out = cable_diagram(diag((1, 1), [(0, 1)]), (2,))
        assert out == diag((2,), [(0, 1)])

    def test_crossing_input_rejected(self):
        with pytest.raises(InvalidDiagramError):
            cable_diagram(diag((1, 1, 1, 1), [(1, 3), (2, 4)]), (2, 2))

    def test_non_unit_input_rejected(self):
        with pytest.raises(InvalidDiagramError):
            cable_diagram(diag((2,), [(0, 1)]), (2,))
        with pytest.raises(ZeroBlockError):
            cable_diagram(diag((1, 1), [(0, 1)]), (2, 0))

    def test_surjective_onto_targets(self):
        for lam in [(2,), (2, 1), (1, 2), (2, 2), (3, 1)]:
            unit = (1,) * sum(lam)
            for l in range(sum(lam) + 1):
                images = set()
                for d in enumerate_B(unit, l):
                    out = cable_diagram(d, lam)
                    if out is not None:
                        assert validate_diagram(out.capacities,
                                                out.chords) is None
                        images.add(out)
                assert images == set(enumerate_B(lam, l))


class TestRender:
    def test_ascii_stable_and_shaped(self):
        d = diag((1, 1), [(1, 2)])
        text = render_ascii(d)
        assert text == render_ascii(d)
        assert "z1" in text and "z2" in text and "*" in text

    def test_svg_nested(self):
        d = diag((1, 1), [(0, 1), (0, 2)])
        svg = render_svg_many([d])
        assert svg.count("<path") == 2
        assert svg.count('fill="#c00"') == 2  # one marked point per arc
        assert svg == render_svg_many([d])
