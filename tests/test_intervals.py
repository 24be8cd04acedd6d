"""Interval-set algebra on half-open rational subintervals of [0, 1)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersched.errors import InsufficientRoom
from hypersched.intervals import IntervalSet, earliest_fit, union_all

F = Fraction


def iset(*pairs):
    return IntervalSet(tuple(pairs))


UNIT = iset((0, 1))


def union(a, b):
    return union_all([a, b])


def complement(a):
    """[0, 1) minus ``a``, from the gaps between its pieces."""
    out = []
    cursor = F(0)
    for lo, hi in a.intervals:
        out.append((cursor, lo))
        cursor = hi
    out.append((cursor, F(1)))
    return IntervalSet(tuple(out))


def minus(a, b):
    return a.intersect(complement(b))


# Endpoints drawn from a small rational grid keep the search space dense.
fractions_01 = st.integers(0, 24).map(lambda k: F(k, 24))


@st.composite
def interval_sets(draw):
    points = draw(st.lists(fractions_01, min_size=0, max_size=8, unique=True))
    points.sort()
    pairs = list(zip(points[::2], points[1::2]))
    return IntervalSet(tuple(pairs))


class TestConstruction:
    def test_merges_touching(self):
        assert iset((0, F(1, 2)), (F(1, 2), 1)) == UNIT

    def test_merges_overlap(self):
        assert iset((0, F(1, 2)), (F(1, 4), F(3, 4))).intervals == ((F(0), F(3, 4)),)

    def test_drops_empty(self):
        assert iset((F(1, 3), F(1, 3))) == IntervalSet.empty()

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            iset((F(1, 2), F(1, 4)))

    def test_rejects_outside_unit(self):
        with pytest.raises(ValueError):
            iset((F(1, 2), F(3, 2)))

    def test_sorts(self):
        assert iset((F(1, 2), 1), (0, F(1, 4))).intervals == (
            (F(0), F(1, 4)),
            (F(1, 2), F(1)),
        )


class TestAlgebra:
    def test_intersect(self):
        got = iset((0, F(1, 2))).intersect(iset((F(1, 4), 1)))
        assert got == iset((F(1, 4), F(1, 2)))

    def test_measure_of_union(self):
        s = iset((0, F(1, 3)), (F(1, 2), F(5, 6)))
        assert s.measure == F(2, 3)

    def test_complement(self):
        assert complement(iset((0, F(1, 2)))) == iset((F(1, 2), 1))

    def test_touching_intervals_have_empty_intersection(self):
        assert not iset((0, F(1, 2))).intersect(iset((F(1, 2), 1)))

    @settings(max_examples=200, deadline=None)
    @given(interval_sets(), interval_sets())
    def test_inclusion_exclusion(self, a, b):
        assert union(a, b).measure + a.intersect(b).measure == a.measure + b.measure

    @settings(max_examples=200, deadline=None)
    @given(interval_sets())
    def test_complement_measure(self, a):
        assert complement(a).measure == 1 - a.measure
        assert a.intersect(complement(a)) == IntervalSet.empty()
        assert union(a, complement(a)) == UNIT

    @settings(max_examples=100, deadline=None)
    @given(interval_sets(), interval_sets())
    def test_commutativity(self, a, b):
        assert union(a, b) == union(b, a)
        assert a.intersect(b) == b.intersect(a)

    @settings(max_examples=100, deadline=None)
    @given(interval_sets(), interval_sets())
    def test_minus(self, a, b):
        d = minus(a, b)
        assert d.intersect(b) == IntervalSet.empty()
        assert union(d, a.intersect(b)) == a

    def test_union_all(self):
        got = union_all([iset((0, F(1, 4))), iset((F(1, 4), F(1, 2))), IntervalSet.empty()])
        assert got == iset((0, F(1, 2)))


class TestEarliestFit:
    def test_after_forbidden(self):
        got = earliest_fit(F(1, 2), iset((0, F(1, 2))))
        assert got == iset((F(1, 2), 1))

    def test_leftmost_split(self):
        got = earliest_fit(F(1, 2), iset((F(1, 4), F(1, 2))))
        assert got == iset((0, F(1, 4)), (F(1, 2), F(3, 4)))

    def test_insufficient_room(self):
        with pytest.raises(InsufficientRoom) as err:
            earliest_fit(F(3, 4), iset((0, F(1, 2))))
        assert err.value.length == F(3, 4)
        assert err.value.available == F(1, 2)

    def test_zero_length(self):
        assert earliest_fit(0, UNIT) == IntervalSet.empty()

    def test_exact_fill(self):
        got = earliest_fit(F(1, 2), iset((0, F(1, 2))))
        assert got.measure == F(1, 2)

    @settings(max_examples=200, deadline=None)
    @given(interval_sets(), fractions_01)
    def test_fit_properties(self, forbidden, length):
        free = 1 - forbidden.measure
        if length > free:
            with pytest.raises(InsufficientRoom):
                earliest_fit(length, forbidden)
        else:
            got = earliest_fit(length, forbidden)
            assert got.measure == length
            assert got.intersect(forbidden) == IntervalSet.empty()

    @settings(max_examples=200, deadline=None)
    @given(interval_sets())
    def test_fit_of_all_free_time_is_the_complement(self, forbidden):
        free = 1 - forbidden.measure
        assert earliest_fit(free, forbidden) == complement(forbidden)
        with pytest.raises(InsufficientRoom) as err:
            earliest_fit(free + F(1, 48), forbidden)
        assert err.value.available == free
