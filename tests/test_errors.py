"""Fault messages name links by 1-based labels; the attributes stay 0-based."""

from fractions import Fraction as F

import pytest

from hypersched import (
    DemandUnmet,
    EdgeRowSumTooSmall,
    EdgeTooSmall,
    EntryOutOfRange,
    LinkOutOfRange,
    NonNeighborNonzero,
    NonzeroDiagonal,
    NotAntichain,
    NotIndependent,
    NotSymmetric,
    ScheduleStuck,
)

CASES = [
    (EdgeTooSmall((0,)), "edge 1 has fewer than 2 links", {"edge": (0,)}),
    (
        NotAntichain((0, 1), (0, 1, 2)),
        "edge 1 2 is contained in edge 1 2 3",
        {"edge": (0, 1), "superset": (0, 1, 2)},
    ),
    (
        LinkOutOfRange((0, 5), 5, 3),
        "edge 1 6 mentions link 6; labels are 1..3",
        {"edge": (0, 5), "link": 5, "num_links": 3},
    ),
    (
        NotIndependent({0, 1, 2}),
        "set 1 2 3 contains a forbidden edge",
        {"links": frozenset({0, 1, 2})},
    ),
    (
        DemandUnmet(2, F(1, 4), F(1, 2)),
        "link 3 covered for 1/4, demand is 1/2",
        {"link": 2, "covered": F(1, 4), "required": F(1, 2)},
    ),
    (NotSymmetric(0, 1), "W[1][2] != W[2][1]", {"i": 0, "j": 1}),
    (
        EntryOutOfRange(0, 1, F(3, 2)),
        "W[1][2] = 3/2 is outside [0, 1]",
        {"i": 0, "j": 1, "value": F(3, 2)},
    ),
    (
        NonzeroDiagonal(2, F(1, 2)),
        "W[3][3] = 1/2, diagonal must be zero",
        {"i": 2, "value": F(1, 2)},
    ),
    (
        NonNeighborNonzero(0, 3, F(1, 2)),
        "W[1][4] = 1/2 but links 1 and 4 share no edge",
        {"i": 0, "j": 3, "value": F(1, 2)},
    ),
    (
        EdgeRowSumTooSmall((0, 1, 2), 1, F(1, 2)),
        "sum of W[2][j] over edge 1 2 3 is 1/2, must be >= 1",
        {"edge": (0, 1, 2), "link": 1, "total": F(1, 2)},
    ),
    (
        ScheduleStuck(1, F(1, 2), F(1, 4)),
        "cannot place link 2: demand 1/2, free time 1/4",
        {"link": 1, "demanded": F(1, 2), "available": F(1, 4)},
    ),
]


@pytest.mark.parametrize(
    "error, message, attributes", CASES, ids=[type(c[0]).__name__ for c in CASES]
)
def test_message_is_1_based_and_attributes_0_based(error, message, attributes):
    assert str(error) == message
    assert vars(error) == attributes
