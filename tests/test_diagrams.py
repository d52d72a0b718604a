import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcanon.common import cup_bundles
from qcanon.diagrams import (ArcDiagram, InvalidDiagramError, NotInPError,
                             WeightMismatchError, ZeroBlockError,
                             cable_diagram, diagram_of_index, enumerate_B,
                             filter_invariant, filter_singular,
                             index_of_diagram, render_ascii, render_svg_many,
                             validate_diagram)
from qcanon.tensor import enumerate_P
from qcanon.verify import _crossing, search_diagrams, weight_slices


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


def searched_tuples():
    """The tuples of `weight_slices(6)`, then every capacity tuple over
    {0, 1, 2} with at most 4 points, the empty tuple among them."""
    yield from dict.fromkeys(lam for lam, _ in weight_slices(6))
    yield from capacities_with_zeros()


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


def pairwise_validator(capacities, chords):
    """`validate_diagram` as it was when each chord pair went through a
    separate crossing test: the reference for its verdicts and messages."""
    def crossing(c1, c2):
        (i, j), (k, l) = c1, c2
        return i < k < j < l or k < i < l < j

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
            if crossing(chords[a], chords[b]):
                return f"chords {chords[a]} and {chords[b]} cross"
    for p, cap in enumerate(capacities, start=1):
        if degree[p] < cap:
            for i, j in chords:
                if i < p < j:
                    return f"chord ({i}, {j}) passes over unsaturated z{p}"
    return None


@st.composite
def chord_lists(draw):
    """(capacities, chords, want): a valid diagram's chords in any order,
    or chords broken in one way (a bad endpoint, one point over its
    capacity, a crossing pair among chords with room to spare, or a point
    under an arc left unsaturated).  `want` is the start of the message the
    break must give, or None if the chords are still valid."""
    kind = draw(st.sampled_from(["valid", "endpoints", "capacity",
                                 "crossing", "pass_over"]))
    if kind == "crossing":
        n = draw(st.integers(4, 6))
        a, b, c, d = sorted(draw(st.lists(st.integers(0, n), min_size=4,
                                          max_size=4, unique=True)))
        chords = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(1, n))
                               .filter(lambda c: c[0] < c[1]), max_size=3))
        chords += [(a, c), (b, d)]
        return (6,) * n, draw(st.permutations(chords)), "chords "
    caps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    n = len(caps)
    index = draw(st.sampled_from(enumerate_P(
        caps, draw(st.integers(0, sum(caps))))))
    chords = list(diagram_of_index(caps, index).chords)
    want = None
    if kind == "endpoints":
        i = draw(st.integers(-1, n + 1))
        j = draw(st.integers(-1, n + 1).filter(
            lambda j: not 0 <= i < j <= n))
        chords.insert(draw(st.integers(0, len(chords))), (i, j))
        want = f"bad chord endpoints ({i}, {j})"
    elif kind == "capacity" and chords:
        p = draw(st.sampled_from(sorted({q for c in chords for q in c} - {0})))
        caps[p - 1] = sum(c.count(p) for c in chords) - 1
        want = f"point z{p} exceeds its capacity {caps[p - 1]}"
    elif kind == "pass_over":
        p = draw(st.integers(1, n))
        caps[p - 1] += 1
        if any(i < p < j for i, j in chords):
            want = "chord ("
    return tuple(caps), draw(st.permutations(chords)), want


@given(chord_lists())
def test_validator_matches_the_pairwise_validator(case):
    caps, chords, want = case
    got = validate_diagram(caps, chords)
    assert got == pairwise_validator(caps, chords)
    assert got is None if want is None else got.startswith(want)


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
        for lam in searched_tuples():
            found = search_diagrams(lam)
            assert list(found) == list(range(sum(lam) + 1))
            for l, diagrams in found.items():
                assert len(diagrams) == len(enumerate_P(lam, l))


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
    # one search per tuple gives every level, the empty tuple too
    for lam in searched_tuples():
        found = search_diagrams(lam)
        assert list(found) == list(range(sum(lam) + 1))
        for l in range(sum(lam) + 1):
            assert found[l] == search_by_pairwise_crossings(lam, l)


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
            for l, diagrams in search_diagrams(lam).items():
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
