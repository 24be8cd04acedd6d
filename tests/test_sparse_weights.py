"""Sparse weight matrices against dense N x N references written here.

The references follow the definitions literally: full row scans for the
weighted sums, every edge scanned for the blocked time, and the row-major
admissibility scan (diagonal, range and symmetry, then support, then edge
row sums) whose first fault is the one reported.
"""

import random
from fractions import Fraction

import pytest

from hypersched import (
    EdgeRowSumTooSmall,
    EntryOutOfRange,
    NonNeighborNonzero,
    NonzeroDiagonal,
    NotSymmetric,
    ScheduleStuck,
    WeightMatrix,
    b_bound,
    check_delta_condition,
    check_weighted_condition,
    delta_matrix,
    greedy_schedule,
    greedy_step_bound,
    validate_weight_matrix,
)
from hypersched.intervals import intersect_all, union_all
from conftest import random_demand, random_hypergraph

F = Fraction


def dense_neighbors(h, i):
    return {j for es in h.edge_sets if i in es for j in es} - {i}


def dense_delta(h):
    n = h.num_links
    rows = [[F(0)] * n for _ in range(n)]
    for es in h.edge_sets:
        for i in es:
            for j in es:
                if i != j:
                    rows[i][j] = max(rows[i][j], F(1, len(es) - 1))
    return rows


def dense_sums(rows, tau):
    n = len(rows)
    return tuple(tau[i] + sum(rows[i][j] * tau[j] for j in range(n) if j != i) for i in range(n))


def dense_validate(h, rows):
    n = h.num_links
    for i in range(n):
        if rows[i][i] != 0:
            raise NonzeroDiagonal(i, rows[i][i])
        for j in range(n):
            v = rows[i][j]
            if not 0 <= v <= 1:
                raise EntryOutOfRange(i, j, v)
            if v != rows[j][i]:
                raise NotSymmetric(i, j)
    for i in range(n):
        nbr = dense_neighbors(h, i)
        for j in range(n):
            if i != j and rows[i][j] != 0 and j not in nbr:
                raise NonNeighborNonzero(i, j, rows[i][j])
    for edge in h.edges:
        for i in edge:
            total = sum((rows[i][j] for j in edge), F(0))
            if total < 1:
                raise EdgeRowSumTooSmall(edge, i, total)


def dense_blocked(h, assigned, link):
    pieces = [
        intersect_all([assigned[j] for j in es if j != link])
        for es in h.edge_sets
        if link in es and all(assigned[j] is not None for j in es if j != link)
    ]
    return union_all(pieces)


def random_admissible(rng, h):
    """Dense rows at or above the delta matrix on neighbor pairs (so every
    edge row sum stays >= 1), symmetric, zero elsewhere."""
    rows = dense_delta(h)
    for i in range(h.num_links):
        for j in range(i + 1, h.num_links):
            if rows[i][j] and rng.random() < 0.5:
                rows[i][j] = rows[j][i] = max(rows[i][j], rng.choice([F(2, 3), F(3, 4), F(1)]))
    return rows


def instances(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        h = random_hypergraph(rng, max_links=9, max_edges=6)
        if h.edges:
            out.append((rng, h))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_entries_and_sums_match_dense(seed):
    for rng, h in instances(seed, 25):
        dense = random_admissible(rng, h)
        w = WeightMatrix.from_rows(dense)
        n = h.num_links
        assert all(w[i, j] == dense[i][j] for i in range(n) for j in range(n))
        validate_weight_matrix(h, w)
        tau = random_demand(rng, n, small=rng.random() < 0.5)
        assert check_weighted_condition(h, w, tau).per_link == dense_sums(dense, tau)
        delta_sums = dense_sums(dense_delta(h), tau)
        assert check_delta_condition(h, tau).per_link == delta_sums
        assert b_bound(h, tau).per_link == delta_sums
        d = delta_matrix(h)
        assert all(d[i, j] == dense_delta(h)[i][j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("seed", range(4))
def test_step_bound_matches_dense(seed):
    for rng, h in instances(100 + seed, 20):
        dense = random_admissible(rng, h)
        w = WeightMatrix.from_rows(dense)
        tau = random_demand(rng, h.num_links)
        order = tuple(rng.sample(range(h.num_links), h.num_links))
        steps = []
        try:
            greedy_schedule(h, tau, order, step_callback=lambda k, a: steps.append((k, a)))
        except ScheduleStuck:
            pass
        assert steps
        for link, assigned in steps:
            lhs, rhs = greedy_step_bound(h, w, assigned, link)
            assert lhs == dense_blocked(h, assigned, link).measure
            assert rhs == sum(
                (dense[link][j] * assigned[j].measure for j in range(h.num_links)
                 if j != link and assigned[j] is not None),
                F(0),
            )


def inject(rng, h, rows, fault):
    """Put one fault of the named kind into admissible dense ``rows``;
    returns False when ``h`` has no place for it."""
    n = h.num_links
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
    if fault == "diagonal":
        i = rng.randrange(n)
        rows[i][i] = F(1, 2)
    elif fault == "range":
        i, j = rng.choice(pairs)
        rows[i][j] = rows[j][i] = rng.choice([F(3, 2), F(-1, 2)])
    elif fault == "asymmetric":
        i, j = rng.choice(pairs)
        if rng.random() < 0.5:
            i, j = j, i
        rows[i][j] = rng.choice([v for v in (F(0), F(1, 2), F(1)) if v != rows[i][j]])
    elif fault == "support":
        off = [(i, j) for i in range(n) for j in range(i + 1, n)
               if j not in dense_neighbors(h, i)]
        if not off:
            return False
        i, j = rng.choice(off)
        rows[i][j] = rows[j][i] = F(1, 2)
    else:
        edge = rng.choice(h.edges)
        i = rng.choice(edge)
        for j in edge:
            if j != i:
                rows[i][j] = rows[j][i] = F(0)
    return True


FAULTS = ["diagonal", "range", "asymmetric", "support", "row_sum"]


@pytest.mark.parametrize("fault", FAULTS)
def test_single_fault_reported_as_dense_scan(fault):
    checked = 0
    for rng, h in instances(200 + FAULTS.index(fault), 40):
        rows = random_admissible(rng, h)
        if not inject(rng, h, rows, fault):
            continue
        with pytest.raises(Exception) as expected:
            dense_validate(h, rows)
        with pytest.raises(type(expected.value)) as got:
            validate_weight_matrix(h, WeightMatrix.from_rows(rows))
        assert vars(got.value) == vars(expected.value)
        checked += 1
    assert checked >= 20


def test_zero_entries_dropped():
    w = WeightMatrix.from_rows([[0, F(1, 2), 0], [F(1, 2), 0, 0], [0, 0, 0]])
    assert w.rows == ({1: F(1, 2)}, {0: F(1, 2)}, {})
    assert w[2, 0] == 0 and w[0, 1] == F(1, 2)


def test_sparse_construction_checks_symmetry():
    with pytest.raises(NotSymmetric) as err:
        WeightMatrix(3, ({}, {}, {0: F(1)}))
    assert (err.value.i, err.value.j) == (0, 2)
    with pytest.raises(NonzeroDiagonal):
        WeightMatrix(2, ({0: F(1)}, {}))

