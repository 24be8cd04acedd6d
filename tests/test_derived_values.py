"""Values a library object can work out from what it holds are read-only
properties, not constructor arguments that could disagree with its data."""

import dataclasses
from fractions import Fraction as F

import pytest

from hypersched import (
    Hypergraph,
    LinearProgram,
    LinkMetric,
    MetricsReport,
    StarProfile,
    WeightMatrix,
    interference_metrics,
)


@pytest.mark.parametrize(
    "cls, fields",
    [
        (WeightMatrix, ("den", "ints")),
        (LinearProgram, ("objective", "constraints")),
        (StarProfile, ("center", "size_counts")),
        (MetricsReport, ("per_link_prime", "per_link_doubleprime")),
    ],
)
def test_stored_fields(cls, fields):
    assert tuple(f.name for f in dataclasses.fields(cls)) == fields


def test_report_aggregates_follow_the_per_link_values():
    rep = interference_metrics(Hypergraph(5, ((0, 1, 2), (0, 3, 4))))
    high = rep.sigma + 1
    prime = list(rep.per_link_prime)
    prime[3] = LinkMetric(high, frozenset())
    raised = dataclasses.replace(rep, per_link_prime=tuple(prime))
    assert (raised.delta_prime, raised.sigma, raised.delta) == (high, high, high)
    assert raised.delta_doubleprime == rep.delta_doubleprime < high


def test_weight_matrix_size_is_its_row_count():
    for rows in ([[0]], [[0, 1], [1, 0]], [{}, {2: F(1, 2)}, {1: F(1, 2)}, {}]):
        assert WeightMatrix.from_rows(rows).n == len(rows)


def test_program_size_is_its_objective_length():
    assert LinearProgram(()).num_vars == 0
    assert LinearProgram((1, 2, 3), (((1, 0, 1), "<=", 1),)).num_vars == 3


@pytest.mark.parametrize(
    "size_counts, vacuous",
    [(((3, 1),), True), (((2, 2),), False), (((2, 1), (3, 1)), False)],
)
def test_vacuous_center_is_a_single_edge(size_counts, vacuous):
    assert StarProfile(0, size_counts).vacuous_center is vacuous

