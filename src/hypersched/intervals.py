"""Exact set algebra on finite unions of half-open subintervals of [0, 1).

Half-open pieces [a, b) make "disjoint except at endpoints" literal: touching
intervals have empty intersection, so measure identities become exact set
statements with rational endpoints.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import cached_property

from .errors import InsufficientRoom
from .lp import _as_fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclasses.dataclass(frozen=True)
class IntervalSet:
    """Union of disjoint half-open intervals [a, b) with 0 <= a < b <= 1.

    The constructor normalizes: pieces are sorted, overlapping or touching
    pieces are merged, empty pieces are dropped.
    """

    intervals: tuple = ()

    def __post_init__(self):
        pieces = []
        for a, b in self.intervals:
            a, b = _as_fraction(a), _as_fraction(b)
            if a > b:
                raise ValueError(f"interval [{a},{b}) has negative length")
            if not (_ZERO <= a and b <= _ONE):
                raise ValueError(f"interval [{a},{b}) lies outside [0,1]")
            if a < b:
                pieces.append((a, b))
        pieces.sort()
        merged: list = []
        for a, b in pieces:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def _of_normalized(cls, pieces) -> "IntervalSet":
        """The set of ``pieces``: Fraction pairs already sorted, nonempty,
        inside [0, 1] and neither overlapping nor touching, as the
        constructor would leave them, so its checks and merge are skipped."""
        s = object.__new__(cls)
        object.__setattr__(s, "intervals", tuple(pieces))
        return s

    @cached_property
    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), _ZERO)

    def __bool__(self):
        return bool(self.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))


def union_all(sets) -> IntervalSet:
    pieces = ()
    for s in sets:
        pieces = pieces + s.intervals
    return IntervalSet(pieces)


def intersect_all(sets) -> IntervalSet:
    sets = list(sets)
    if not sets:
        raise ValueError("intersection of no interval sets is undefined here")
    acc = sets[0]
    for s in sets[1:]:
        acc = acc.intersect(s)
    return acc


def earliest_fit(length, forbidden: IntervalSet) -> IntervalSet:
    """A subset of [0,1) \\ forbidden of measure exactly ``length``, taken
    greedily from the left.  Deterministic; raises InsufficientRoom when the
    free time cannot accommodate ``length``."""
    length = Fraction(length)
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    if length == 0:
        return IntervalSet.empty()
    free = _ONE - forbidden.measure
    if free < length:
        raise InsufficientRoom(length, free)
    out = []
    todo = length
    cursor = _ZERO
    # The gaps of ``forbidden``, left to right: before each piece, then after
    # the last one up to 1.
    for a, b in forbidden.intervals + ((_ONE, _ONE),):
        if cursor < a:
            take = min(a - cursor, todo)
            out.append((cursor, cursor + take))
            todo -= take
            if todo == 0:
                break
        cursor = b
    return IntervalSet(tuple(out))
