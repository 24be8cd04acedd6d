"""Greedy interval scheduler, weight matrices, sufficient conditions."""

import random
from fractions import Fraction

import pytest

from hypersched import (
    DemandUnmet,
    DemandVector,
    EdgeRowSumTooSmall,
    EntryOutOfRange,
    Hypergraph,
    IntervalSet,
    NonNeighborNonzero,
    NonzeroDiagonal,
    NotIndependent,
    NotSymmetric,
    ScheduleStuck,
    WeightMatrix,
    check_delta_condition,
    check_edge_min_condition,
    check_weighted_condition,
    delta_matrix,
    greedy_schedule,
    greedy_step_bound,
    minimalize,
    validate_assignment,
    validate_schedule,
    validate_weight_matrix,
)
from hypersched.intervals import intersect_all
from conftest import (
    fraction_counter,
    intervals_to_schedule,
    is_feasible,
    random_demand,
    random_hypergraph,
    zeros,
)

F = Fraction


def zero_matrix(n):
    return WeightMatrix.from_rows((F(0),) * n for _ in range(n))


class TestWeightMatrix:
    def test_delta_matrix_is_admissible(self, star2x4, triangle):
        validate_weight_matrix(star2x4, delta_matrix(star2x4))
        validate_weight_matrix(triangle, delta_matrix(triangle))

    def test_delta_matrix_built_once_per_hypergraph(self):
        h = Hypergraph(7, ((0, 1, 2, 3), (0, 4, 5, 6)))
        d = delta_matrix(h)
        assert delta_matrix(h) is d
        twin = Hypergraph(h.num_links, h.edges)
        assert twin == h
        assert delta_matrix(twin) is not d
        assert delta_matrix(twin) == d

    def test_zero_matrix_fails_row_sum(self, triangle):
        with pytest.raises(EdgeRowSumTooSmall) as err:
            validate_weight_matrix(triangle, zero_matrix(3))
        assert err.value.total == 0

    def test_nonzero_diagonal(self, triangle):
        w = [[F(0)] * 3 for _ in range(3)]
        w[0][0] = F(1)
        with pytest.raises(NonzeroDiagonal):
            validate_weight_matrix(triangle, WeightMatrix.from_rows(w))

    def test_asymmetric(self, triangle):
        w = [[F(0), F(1), F(1)], [F(1, 2), F(0), F(1)], [F(1), F(1), F(0)]]
        with pytest.raises(NotSymmetric):
            validate_weight_matrix(triangle, WeightMatrix.from_rows(w))

    def test_entry_out_of_range(self, triangle):
        w = [[F(0), F(2), F(1)], [F(2), F(0), F(1)], [F(1), F(1), F(0)]]
        with pytest.raises(EntryOutOfRange):
            validate_weight_matrix(triangle, WeightMatrix.from_rows(w))

    def test_non_neighbor_support(self):
        h = Hypergraph(4, ((0, 1), (2, 3)))
        w = [[F(0)] * 4 for _ in range(4)]
        w[0][1] = w[1][0] = F(1)
        w[2][3] = w[3][2] = F(1)
        w[0][2] = w[2][0] = F(1, 2)
        with pytest.raises(NonNeighborNonzero):
            validate_weight_matrix(h, WeightMatrix.from_rows(w))

    def test_delta_values_star(self, star2x4):
        d = delta_matrix(star2x4)
        for j in range(1, 7):
            assert d[0, j] == F(1, 3)
        assert d[1, 2] == F(1, 3)
        assert d[1, 4] == 0

    def test_delta_values_triangle(self, triangle):
        d = delta_matrix(triangle)
        assert all(d[i, j] == F(1, 2) for i in range(3) for j in range(3) if i != j)

    def test_delta_graph_case(self):
        h = Hypergraph(3, ((0, 1), (1, 2)))
        d = delta_matrix(h)
        assert d[0, 1] == 1 and d[1, 2] == 1 and d[0, 2] == 0

    def test_delta_takes_max_over_shared_edges(self):
        h = Hypergraph(5, ((0, 1, 2), (0, 1, 3, 4)))
        d = delta_matrix(h)
        assert d[0, 1] == F(1, 2)
        assert d[0, 3] == F(1, 3)

    def test_delta_always_admissible_random(self):
        rng = random.Random(59)
        for _ in range(40):
            h = random_hypergraph(rng)
            validate_weight_matrix(h, delta_matrix(h))


class TestConditions:
    def test_edge_min_triangle_thirds(self, triangle):
        holds, per = check_edge_min_condition(triangle, DemandVector((F(1, 3),) * 3))
        assert holds
        assert per == (F(2, 3),) * 3

    def test_edge_min_zero(self, star2x4):
        holds, per = check_edge_min_condition(star2x4, zeros(7))
        assert holds
        assert per == (F(0),) * 7

    def test_edge_min_all_ones_fails(self, triangle):
        holds, per = check_edge_min_condition(triangle, DemandVector((1, 1, 1)))
        assert not holds
        assert per == (F(2),) * 3

    def test_weighted_equals_delta_rule(self, star2x4, star_tau):
        a = check_weighted_condition(star2x4, delta_matrix(star2x4), star_tau)
        b = check_delta_condition(star2x4, star_tau)
        assert a == b

    def test_delta_rule_star_fails_at_center(self, star2x4, star_tau):
        holds, per = check_delta_condition(star2x4, star_tau)
        assert not holds
        assert per[0] == F(13, 6)
        assert per == (F(13, 6), F(5, 3), F(5, 3), F(4, 3), F(5, 3), F(5, 3), F(4, 3))

    def test_weighted_zero_demand_holds(self, star2x4):
        holds, _ = check_weighted_condition(
            star2x4, delta_matrix(star2x4), zeros(7)
        )
        assert holds

    def test_delta_rule_triangle_halves(self, triangle):
        holds, per = check_delta_condition(triangle, DemandVector((F(1, 2),) * 3))
        assert holds
        assert per == (F(1),) * 3


class TestGreedySchedule:
    def test_triangle_hand_simulation(self, triangle):
        tau = DemandVector((F(1, 2),) * 3)
        assigned = greedy_schedule(triangle, tau)
        assert assigned[0] == IntervalSet(((F(0), F(1, 2)),))
        assert assigned[1] == IntervalSet(((F(0), F(1, 2)),))
        assert assigned[2] == IntervalSet(((F(1, 2), F(1)),))

    def test_zero_demand(self, star2x4):
        assigned = greedy_schedule(star2x4, zeros(7))
        assert all(js == IntervalSet.empty() for js in assigned)

    def test_independent_set_demand(self, star2x4):
        tau = DemandVector.characteristic(7, {1, 2, 3, 4, 5, 6})
        assigned = greedy_schedule(star2x4, tau)
        assert assigned[0] == IntervalSet.empty()
        for i in range(1, 7):
            assert assigned[i] == IntervalSet(((0, 1),))

    def test_stuck_on_triangle_full_demand(self, triangle):
        with pytest.raises(ScheduleStuck) as err:
            greedy_schedule(triangle, DemandVector((1, 1, 1)))
        assert err.value.link == 2
        assert err.value.demanded == 1
        assert err.value.available == 0

    def test_order_parameter(self, triangle):
        tau = DemandVector((F(1, 2),) * 3)
        assigned = greedy_schedule(triangle, tau, order=(2, 1, 0))
        assert assigned[2] == IntervalSet(((F(0), F(1, 2)),))
        assert assigned[0] == IntervalSet(((F(1, 2), F(1)),))

    def test_bad_order_rejected(self, triangle):
        with pytest.raises(ValueError):
            greedy_schedule(triangle, zeros(3), order=(0, 0, 1))

    def test_non_integral_order_rejected(self, triangle):
        # int() would truncate these ids and run the order (0, 1, 2).
        with pytest.raises(ValueError, match="permutation"):
            greedy_schedule(triangle, zeros(3), order=(0.7, 1.2, 2))

    def test_edge_never_fully_active(self):
        rng = random.Random(61)
        for _ in range(40):
            h = random_hypergraph(rng, max_links=7)
            tau = random_demand(rng, h.num_links, small=True)
            try:
                assigned = greedy_schedule(h, tau)
            except ScheduleStuck:
                continue
            for i in range(h.num_links):
                assert assigned[i].measure == tau[i]
            for es in h.edge_sets:
                common = intersect_all([assigned[j] for j in es])
                assert common == IntervalSet.empty()

    def test_edge_min_condition_implies_feasible(self):
        from hypersched import check_edge_min_condition

        rng = random.Random(63)
        triggered = 0
        for _ in range(50):
            h = random_hypergraph(rng, max_links=8)
            tau = random_demand(rng, h.num_links, small=True)
            if check_edge_min_condition(h, tau).holds:
                triggered += 1
                assert is_feasible(h, tau)
        assert triggered >= 10

    def test_success_whenever_condition_holds_any_order(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(60):
            h = random_hypergraph(rng, max_links=7)
            tau = random_demand(rng, h.num_links, small=True)
            w = delta_matrix(h)
            if not check_weighted_condition(h, w, tau).holds:
                continue
            checked += 1
            orders = [None] + [
                tuple(rng.sample(range(h.num_links), h.num_links)) for _ in range(4)
            ]
            for order in orders:
                validate_assignment(h, greedy_schedule(h, tau, order), tau)
        assert checked >= 15


class TestStepBound:
    def test_empty_front(self, star2x4):
        lhs, rhs = greedy_step_bound(
            star2x4, delta_matrix(star2x4), (None,) * 7, 0
        )
        assert lhs == 0
        assert rhs == 0

    def test_triangle_third_step(self, triangle):
        half = IntervalSet(((F(0), F(1, 2)),))
        assigned = (half, half, None)
        lhs, rhs = greedy_step_bound(triangle, delta_matrix(triangle), assigned, 2)
        assert lhs == F(1, 2)
        assert rhs == F(1, 2)

    def test_rejects_bad_input(self):
        # The path 0-1-2 at demand 1/2 each: link 2's step is (1/2, 1/2).
        # Link -1 used to answer (0, 1/2), no link's step; other bad input
        # answered for the wrong sizes or raised a bare IndexError.
        h = Hypergraph(3, ((0, 1), (1, 2)))
        w = delta_matrix(h)
        assigned = greedy_schedule(h, DemandVector((F(1, 2),) * 3))
        assert greedy_step_bound(h, w, assigned, 2) == (F(1, 2), F(1, 2))
        for link in (-1, 3, 5):
            with pytest.raises(ValueError, match=rf"link {link} outside 0\.\.2"):
                greedy_step_bound(h, w, assigned, link)
        with pytest.raises(ValueError, match="matrix is 2x2, hypergraph has 3 links"):
            greedy_step_bound(h, zero_matrix(2), assigned, 0)
        with pytest.raises(ValueError, match="assignment has 2 entries, expected 3"):
            greedy_step_bound(h, w, assigned[:2], 0)
        with pytest.raises(TypeError):
            greedy_step_bound(h, w, assigned, 1.0)

    def test_single_edge_front_bounded_by_min(self):
        rng = random.Random(71)
        for _ in range(30):
            h = random_hypergraph(rng, max_links=6, min_edges=1)
            tau = random_demand(rng, h.num_links, small=True)
            order = tuple(rng.sample(range(h.num_links), h.num_links))
            events = []
            try:
                greedy_schedule(
                    h,
                    tau,
                    order,
                    step_callback=lambda link, assigned: events.append((link, assigned)),
                )
            except ScheduleStuck:
                pass
            for link, assigned in events:
                fronts = [
                    es
                    for es in h.edge_sets
                    if link in es
                    and all(assigned[j] is not None for j in es if j != link)
                ]
                if len(fronts) == 1:
                    blocked = intersect_all(
                        [assigned[j] for j in fronts[0] if j != link]
                    )
                    scheduled = [
                        assigned[j].measure for j in fronts[0] if j != link
                    ]
                    assert blocked.measure <= min(scheduled)

    def test_holds_even_in_failed_runs(self):
        # the accounting inequality needs admissible weights, not success
        rng = random.Random(73)
        violations = []

        def watch(h, w):
            def cb(link, assigned):
                lhs, rhs = greedy_step_bound(h, w, assigned, link)
                if lhs > rhs:
                    violations.append((h, link))

            return cb

        for _ in range(60):
            h = random_hypergraph(rng, max_links=7)
            tau = random_demand(rng, h.num_links)
            w = delta_matrix(h)
            try:
                greedy_schedule(h, tau, step_callback=watch(h, w))
            except ScheduleStuck:
                pass
        assert violations == []


class TestIntervalsToSchedule:
    def test_triangle_run(self, triangle):
        tau = DemandVector((F(1, 2),) * 3)
        assigned = greedy_schedule(triangle, tau)
        sched = intervals_to_schedule(assigned)
        assert set(
            (tuple(sorted(s)), d) for s, d in sched.entries
        ) == {((0, 1), F(1, 2)), ((2,), F(1, 2))}
        validate_schedule(triangle, sched, tau)

    def test_idle_time_dropped(self):
        assigned = (IntervalSet(((F(1, 4), F(1, 2)),)),)
        sched = intervals_to_schedule(assigned)
        assert sched.total_duration == F(1, 4)


def random_assignment(rng, n, den):
    """Per link, up to three random pieces with endpoints on the 1/den grid."""
    out = []
    for _ in range(n):
        k = rng.randint(0, min(3, (den + 1) // 2))
        ends = sorted(rng.sample(range(den + 1), 2 * k))
        out.append(IntervalSet(tuple((F(a, den), F(b, den)) for a, b in zip(ends[::2], ends[1::2]))))
    return tuple(out)


class TestValidateAssignment:
    def test_matches_schedule_oracle(self):
        rng = random.Random(79)
        outcomes = {True: 0, False: 0}
        for _ in range(1200):
            h = random_hypergraph(rng, max_links=7, max_edges=rng.randint(0, 8))
            assigned = random_assignment(rng, h.num_links, rng.choice([2, 3, 4, 6, 12]))
            tau = tuple(js.measure for js in assigned)
            try:
                validate_schedule(h, intervals_to_schedule(assigned), tau)
                expected = False
            except NotIndependent:
                expected = True
            try:
                validate_assignment(h, assigned, tau)
                got = False
            except NotIndependent as err:
                got = True
                # The edge named is one whose links really share some time.
                assert err.links in h.edge_sets
                assert intersect_all([assigned[j] for j in err.links])
            assert got == expected
            outcomes[got] += 1
        assert min(outcomes.values()) >= 200

    def test_touching_pieces_are_not_overlap(self, triangle):
        half, rest = IntervalSet(((0, F(1, 2)),)), IntervalSet(((F(1, 2), 1),))
        validate_assignment(triangle, (half, half, rest), (F(1, 2),) * 3)
        late = IntervalSet(((F(1, 3), 1),))
        with pytest.raises(NotIndependent) as err:
            validate_assignment(triangle, (half, half, late), (F(1, 2), F(1, 2), F(2, 3)))
        assert err.value.links == frozenset({0, 1, 2})

    @pytest.mark.parametrize("delta", [F(1, 12), -F(1, 12)])
    def test_measure_off_demand(self, triangle, delta):
        tau = DemandVector((F(1, 2),) * 3)
        assigned = greedy_schedule(triangle, tau)
        wrong = (F(1, 2), F(1, 2) + delta, F(1, 2))
        with pytest.raises(DemandUnmet) as err:
            validate_assignment(triangle, assigned, wrong)
        assert (err.value.link, err.value.covered, err.value.required) == (1, F(1, 2), wrong[1])

    def test_empty_set_for_positive_demand(self, triangle):
        assigned = (IntervalSet.empty(),) * 3
        with pytest.raises(DemandUnmet) as err:
            validate_assignment(triangle, assigned, (0, 0, F(1, 7)))
        assert (err.value.link, err.value.covered) == (2, 0)

    def test_length_mismatch(self, triangle):
        with pytest.raises(ValueError):
            validate_assignment(triangle, (IntervalSet.empty(),) * 2, zeros(3))

    def test_unplaced_link(self, triangle):
        # A step_callback snapshot holds None for the links not yet placed.
        tau = DemandVector((F(1, 3),) * 3)
        snapshots = []
        greedy_schedule(triangle, tau, step_callback=lambda link, assigned: snapshots.append(assigned))
        assert snapshots[0] == (None, None, None)
        for assigned in snapshots:
            link = assigned.index(None)
            with pytest.raises(ValueError, match=f"link {link} has no interval set"):
                validate_assignment(triangle, assigned, tau)
        js = snapshots[-1][0]
        with pytest.raises(ValueError, match="link 0 "):
            validate_assignment(triangle, (None, js, js), tau)

    def test_large_denominators_far_below_greedy_time(self, monkeypatch):
        # Demands over mixed denominators 40..97 give a huge common
        # denominator; the check must still add ints only, building no
        # Fraction, while the schedule builds at least one per piece.
        rng = random.Random(83)
        n = 1000
        h = minimalize(n, [rng.sample(range(n), rng.randint(2, 4)) for _ in range(n)])
        tau = tuple(F(rng.randint(1, 10), rng.randint(40, 97)) for _ in range(n))
        made = fraction_counter(monkeypatch)
        assigned = greedy_schedule(h, tau)
        greedy_made, made[0] = made[0], 0
        validate_assignment(h, assigned, tau)
        monkeypatch.undo()
        assert made[0] == 0
        assert greedy_made >= sum(len(s.intervals) for s in assigned) > 0
