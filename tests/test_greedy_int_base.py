"""The greedy pass in ints over 1/L against the frozen ``IntervalSet`` pass.

``greedy_reference`` keeps the scheduler as it was when every step built
``IntervalSet``s with ``Fraction`` endpoints.  On seeded and
``hypothesis``-drawn hypergraphs, demands with mixed denominators (0 and 1
included) and random orders, the library must return the same assignment,
or raise ScheduleStuck with the same ``(link, demanded, available)``, and
show ``step_callback`` the same snapshots.  ``greedy_step_bound``'s blocked
measure and lemma 1's per-link sums are checked against the same oracle.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import greedy_reference
from conftest import random_hypergraph
from hypersched import (
    DemandVector,
    Hypergraph,
    ScheduleStuck,
    check_edge_min_condition,
    delta_matrix,
    greedy_schedule,
    greedy_step_bound,
    minimalize,
    validate_assignment,
)

F = Fraction
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 30, 97)


def mixed_demand(rng, n):
    """Per link a value with its own denominator; a load cap in {1/4, 1/2,
    1} per vector gives both placed and stuck runs, and 0 and 1 appear."""
    cap = rng.choice((F(1, 4), F(1, 2), F(1)))
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.1:
            out.append(F(0))
        elif roll < 0.15:
            out.append(F(1))
        else:
            d = rng.choice(DENOMINATORS)
            out.append(F(rng.randint(0, int(d * cap)), d))
    return DemandVector(tuple(out))


def outcome(schedule, h, tau, order):
    """``("ok", assignment, snapshots)`` or ``("stuck", (link, demanded,
    available), snapshots)``."""
    snaps = []
    try:
        got = schedule(h, tau, order, step_callback=lambda link, a: snaps.append((link, a)))
    except ScheduleStuck as e:
        return "stuck", (e.link, e.demanded, e.available), snaps
    return "ok", got, snaps


def assert_same_pass(h, tau, order):
    got = outcome(greedy_schedule, h, tau, order)
    want = outcome(greedy_reference.greedy_schedule, h, tau, order)
    assert got == want
    if got[0] == "ok":
        assert greedy_schedule(h, tau, order) == want[1]
        validate_assignment(h, got[1], tau)
    else:
        link, demanded, available = got[1]
        assert available < demanded and type(available) is Fraction
        try:
            greedy_schedule(h, tau, order)
        except ScheduleStuck as e:
            assert (e.link, e.demanded, e.available) == got[1]
        else:
            raise AssertionError("stuck only with a callback")
    return got


def seeded_cases(seed, count, max_links=12, max_edges=10):
    rng = random.Random(seed)
    for _ in range(count):
        h = random_hypergraph(rng, max_links=max_links, max_edges=max_edges)
        order = list(range(h.num_links))
        rng.shuffle(order)
        yield h, mixed_demand(rng, h.num_links), order


class TestSamePassAsTheIntervalSetGreedy:
    def test_seeded_instances(self):
        kinds = {"ok": 0, "stuck": 0}
        for h, tau, order in seeded_cases(2020, 1000):
            kinds[assert_same_pass(h, tau, order)[0]] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_default_order(self):
        for h, tau, _ in seeded_cases(2021, 100):
            assert_same_pass(h, tau, None)

    def test_sparse_instances_of_a_hundred_links(self):
        """Many placed links per edge walk and long piece lists."""
        rng = random.Random(2022)
        for _ in range(6):
            n = 100
            raw = [rng.sample(range(n), rng.randint(2, 4)) for _ in range(2 * n)]
            h = minimalize(n, raw)
            order = list(range(n))
            rng.shuffle(order)
            assert_same_pass(h, mixed_demand(rng, n), order)

    def test_forty_digit_denominators_stay_exact(self):
        """Distinct denominators of about 40 digits give an L of several
        hundred digits; every endpoint is still exact."""
        rng = random.Random(2023)
        base = 10**39
        for _ in range(20):
            h = random_hypergraph(rng, max_links=9, max_edges=8)
            dens = [base + rng.randrange(base) for _ in range(h.num_links)]
            tau = DemandVector(tuple(F(rng.randrange(d // 2), d) for d in dens))
            order = list(range(h.num_links))
            rng.shuffle(order)
            kind, result, _ = assert_same_pass(h, tau, order)
            if kind == "ok":
                assert all(js.measure == t for js, t in zip(result, tau))

    def test_forty_digit_stuck_report(self):
        """On a 2-uniform triangle, links 0 and 2 take [0, a) and [a, a + c);
        link 1 is left exactly 1 - a - c."""
        d = 10**40 + 7
        h = Hypergraph(3, ((0, 1), (0, 2), (1, 2)))
        tau = DemandVector((F(d // 3, d), F(1, 2), F(d // 2 + 1, d)))
        kind, result, _ = assert_same_pass(h, tau, [0, 2, 1])
        assert kind == "stuck"
        link, _, available = result
        assert link == 1
        assert available == 1 - F(d // 3, d) - F(d // 2 + 1, d)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_hypothesis_seeds(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, max_links=8, max_edges=8, max_size=4)
        order = list(range(h.num_links))
        rng.shuffle(order)
        assert_same_pass(h, mixed_demand(rng, h.num_links), order)


class TestSharedBlockedTime:
    def test_step_bound_lhs_is_the_reference_blocked_measure(self):
        for h, tau, order in seeded_cases(2024, 150):
            w = delta_matrix(h)
            steps = []
            try:
                greedy_schedule(h, tau, order, step_callback=lambda k, a: steps.append((k, a)))
            except ScheduleStuck:
                pass
            for link, assigned in steps:
                lhs, _ = greedy_step_bound(h, w, assigned, link)
                assert lhs == greedy_reference.blocked_time(h, assigned, link).measure


class TestEdgeMinCondition:
    def test_same_per_link_sums(self):
        rng = random.Random(2025)
        for _ in range(300):
            h = random_hypergraph(rng, max_links=12, max_edges=10)
            tau = mixed_demand(rng, h.num_links)
            report = check_edge_min_condition(h, tau)
            want = greedy_reference.edge_min_sums(h, tau)
            assert report.per_link == want
            assert report.holds == all(v <= 1 for v in want)
